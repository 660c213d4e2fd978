"""The one-column label probe: known labels checked on one trace column, new
labels recovered on d columns, and the guards against a probe that takes a
new label for a known one."""

import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchlearn
from switchlearn import (LABEL_TOL, BoundedTestingEquivalenceOracle, EventAlphabet, Fa,
                         GenConfig, LabelProbe, LabelRegistry, ObservationStore,
                         SingularBasis, SwitchedSystem, SwitchLearnError,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle,
                         cached_outputs, compute_output, identity, learn, mat_approx_eq,
                         output_of, random_system, recover_transform)
from switchlearn import output_query
from switchlearn.learner import close_store

from conftest import DEMO2D_MATRICES, is_separable, separability_checked

ROOT = Path(__file__).resolve().parent.parent

# Every product of these contracts e1 against the other axes, so one probe
# column barely sees B - A on a long word.
STRESS_A = np.diag([0.5, 2.0, 1.5])
STRESS_B = STRESS_A + 1e-3 * np.diag([1.0, 0.0, 0.0])


def stress_chain(n: int, shortcut: bool = False) -> SwitchedSystem:
    """An n-node chain on event a whose last node, labelled B, absorbs; every
    other node is labelled A. With shortcut, a second event b leads from
    every node straight to the last one."""
    delta = [(min(i + 1, n - 1),) + ((n - 1,) if shortcut else ()) for i in range(n)]
    fa = Fa(num_nodes=n, initial=0, alphabet=EventAlphabet(("a", "b") if shortcut else ("a",)),
            delta=tuple(delta), gamma=tuple([0] * (n - 1) + [1]))
    return SwitchedSystem(fa=fa, matrices=(STRESS_A, STRESS_B), d=3)


def true_label(hidden, registry, label, word) -> bool:
    """Whether label's matrix is the hidden output of word, within LABEL_TOL."""
    return mat_approx_eq(registry.canonical[label],
                         hidden.matrices[output_of(hidden.fa, word)], LABEL_TOL)


@pytest.mark.parametrize("n", [3, 10, 20])
def test_stress_chain_learns(n):
    # at n = 10 and 20 the probe takes the last node's B for A, and the
    # counterexample's endpoints are re-derived on d columns before they are
    # compared; a word recovered on d columns more than once per label shows it
    hidden = stress_chain(n)
    with separability_checked():
        result = learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
                       hidden.fa.alphabet)
    assert result.system.fa.num_nodes == n
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
    assert (result.label_fallbacks > 2) == (n > 3)


def test_stress_chain_refuses_what_float64_cannot_resolve():
    # at n = 40 the basis of the last node's word has condition number 4^39
    hidden = stress_chain(40)
    with pytest.raises(SwitchLearnError):
        learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
              hidden.fa.alphabet)


def learn_black_box(hidden):
    """learn with the bounded oracle at the CLI's default depth, tracing
    through the learner's own trace oracle."""
    obs = WhiteBoxObservationOracle(hidden)
    eq = BoundedTestingEquivalenceOracle(obs, 2 * hidden.fa.num_nodes + 1)
    return learn(obs, eq, hidden.fa.alphabet)


@pytest.mark.parametrize("n", [10, 15, 20])
def test_stress_chain_learns_black_box(n):
    # the bounded oracle starts each word's column from the inverse of the
    # hypothesis's product along its prefixes, so B - A stays visible at
    # the end of the chain
    hidden = stress_chain(n)
    result = learn_black_box(hidden)
    assert result.system.fa.num_nodes == n
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None


def test_stress_chain_black_box_refuses_what_float64_cannot_resolve():
    # at n = 30 the learner's recovery of the last node's label is refused:
    # a typed error, never a wrong model
    with pytest.raises(SwitchLearnError):
        learn_black_box(stress_chain(30))


def test_interning_a_label_rescreens_the_words_accepted_before():
    # with only A known, the probe accepts a^9, which reaches B, as A; (b,)
    # reaches B with a well-spread state, interns it, and a^9 is re-derived
    hidden = stress_chain(10, shortcut=True)
    a9, a10, b = (0,) * 9, (0,) * 10, (1,)
    obs = WhiteBoxObservationOracle(hidden)
    registry, cache, probe = LabelRegistry(canonical=[STRESS_A]), {}, LabelProbe()
    cached_outputs(obs, registry, cache, [a9], None, probe)
    assert cache == {a9: 0} and probe.fallbacks == 0
    cached_outputs(obs, registry, cache, [b, a10], None, probe)
    assert cache == {a9: 1, b: 1, a10: 1}
    assert probe.relabels == 1
    for word, label in cache.items():
        assert true_label(hidden, registry, label, word)
    # a word after the fallback in the same stack is screened against B too
    obs, registry, cache, probe = (WhiteBoxObservationOracle(hidden),
                                   LabelRegistry(canonical=[STRESS_A]), {}, LabelProbe())
    cached_outputs(obs, registry, cache, [a9, b, a10], None, probe)
    assert cache == {a9: 1, b: 1, a10: 1}
    assert obs.stats.output_computations == 3


def test_store_rebuilds_its_rows_when_a_label_changes():
    hidden = stress_chain(10, shortcut=True)
    a8 = (0,) * 8
    store = ObservationStore(WhiteBoxObservationOracle(hidden), access_words=[(), a8],
                             test_words=[(), (0,)])
    # a^9 is taken for A, the only label known, so a^8 looks like the empty word
    assert store.index() == {(0, 0): 0}
    assert store.label((1,)) == 1
    assert store.probe.relabels == 1
    assert store.row(a8) == (0, 1)
    assert store.index() == {(0, 0): 0, (0, 1): 1}


def two_way_system() -> SwitchedSystem:
    """Node 3 (label M) is reached by a through node 1, whose label contracts
    e1, or by b a through node 2, whose label contracts e2; its event c
    leads to node 7, labelled L. Labels 4 (A) and 5 (C) differ from L only
    in entry (0, 0) and (1, 1), so one column passes A for c read after a a,
    and C for c read after b a. Node 6 re-expands e2, so c read after
    b a b is told apart from both and interns L."""
    lab = np.diag([1.3, 0.7, 1.1])
    matrices = (np.diag([0.9, 1.2, 1.0]), np.diag([1e-4, 1.0, 1.0]), np.diag([1.0, 1e-4, 1.0]),
                np.diag([1.1, 0.9, 1.2]), lab - np.diag([1e-3, 0.0, 0.0]),
                lab - np.diag([0.0, 1e-3, 0.0]), np.diag([1.0, 1e4, 1.0]), lab)
    delta = ((1, 2, 4), (3, 1, 5), (3, 2, 4), (3, 6, 7), (4, 4, 4), (5, 5, 5), (6, 6, 7),
             (7, 7, 7))
    fa = Fa(num_nodes=8, initial=0, alphabet=EventAlphabet(("a", "b", "c")), delta=delta,
            gamma=tuple(range(8)))
    return SwitchedSystem(fa=fa, matrices=matrices, d=3)


def test_closure_drops_an_access_word_a_relabel_shows_redundant():
    # the closure appends b a, whose row (M, C) differs from a a's (M, A);
    # the next fetch interns L, both c cells are re-derived as L, and the
    # two rows turn out equal, so b a is dropped and the pass made again
    hidden = two_way_system()
    store = ObservationStore(WhiteBoxObservationOracle(hidden),
                             access_words=[(), (0,), (0, 0), (1,)], test_words=[(), (2,)])
    close_store(store, hidden.fa.alphabet)
    assert store.probe.relabels >= 2
    assert is_separable(store) and (1, 0) not in store.access_words
    assert sorted(output_of(hidden.fa, w) for w in store.access_words) == list(range(8))
    for word in store.access_words:
        for t in store.test_words:
            assert true_label(hidden, store.registry, store.label(word + t), word + t)


def test_counterexample_endpoints_are_re_derived_before_refusal(monkeypatch):
    # without the re-derivation, the stress chain's counterexample is refused
    hidden = stress_chain(10)
    monkeypatch.setattr(ObservationStore, "rederive", lambda self, words: None)
    with pytest.raises(switchlearn.NotACounterexample):
        learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
              hidden.fa.alphabet)


def test_known_labels_cost_one_column_per_maximal_word(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    registry, cache, probe = LabelRegistry(canonical=DEMO2D_MATRICES), {}, LabelProbe()
    words = [(0, 1, 1, 0), (1, 1), (0, 1), (1, 0, 0, 0, 1)]
    cached_outputs(obs, registry, cache, words, None, probe)
    assert obs.stats.io_queries == 3  # (0, 1) is read off the trace of (0, 1, 1, 0)
    assert probe.fallbacks == 0 and len(registry) == 3
    assert [cache[w] for w in words] == [output_of(demo2d_system.fa, w) for w in words]
    assert probe.margin_min > 1


def test_fallback_refused_when_its_recovery_fails_the_probe_check(demo2d_system, monkeypatch):
    recover = output_query.recover_transform
    monkeypatch.setattr(output_query, "recover_transform",
                        lambda basis, image: recover(basis, image) + 1e-3)
    obs, registry, cache = WhiteBoxObservationOracle(demo2d_system), LabelRegistry(), {}
    with pytest.raises(SingularBasis, match="probe check"):
        cached_outputs(obs, registry, cache, [(), (0,)])
    assert cache == {(): 0} and len(registry) == 1
    assert obs.stats.output_computations == 2


def rotated(system: SwitchedSystem, seed: int) -> SwitchedSystem:
    """system in a random orthonormal basis, so its matrices are not diagonal."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((system.d, system.d)))
    return SwitchedSystem(fa=system.fa, matrices=tuple(q @ m @ q.T for m in system.matrices),
                          d=system.d)


@pytest.mark.parametrize("n, refined", [(12, False), (20, True)])
def test_ill_conditioned_recovery_is_refined(n, refined):
    # the basis of a^(n-1) has condition number 4^(n-1): at n = 20 the plain
    # recovery of its output misses B by more than the tolerance, and the
    # refined one, traced again from the basis's inverse, does not
    hidden = rotated(stress_chain(n), 0)
    word, b = (0,) * (n - 1), hidden.matrices[1]
    states = WhiteBoxObservationOracle(hidden).exec_query(identity(3), word)
    plain = recover_transform(states[-2], states[-1])
    assert mat_approx_eq(plain, b, LABEL_TOL) != refined
    # compute_output (the CLI's output) and the learner recover alike
    obs = WhiteBoxObservationOracle(hidden)
    assert mat_approx_eq(compute_output(obs, word), b, 1e-9)
    assert obs.stats.as_dict() == {"io_queries": 3 + 3 * refined, "output_computations": 1,
                                   "equivalence_queries": 0}
    obs, registry, cache = WhiteBoxObservationOracle(hidden), LabelRegistry(), {}
    cached_outputs(obs, registry, cache, [word])
    assert mat_approx_eq(registry.canonical[cache[word]], b, 1e-9)
    # the probe column, the recovery, and the refinement's d = 3 columns
    assert obs.stats.io_queries == 1 + 3 + 3 * refined


def test_recovery_too_ill_conditioned_to_refine_is_refused():
    hidden = rotated(stress_chain(28), 0)
    with pytest.raises(SingularBasis, match="too ill-conditioned"):
        cached_outputs(WhiteBoxObservationOracle(hidden), LabelRegistry(), {}, [(0,) * 27])


class NonFiniteProbe(WhiteBoxObservationOracle):
    """A trace oracle whose one-column traces of words holding event 1
    overflow from that event on."""

    def exec_query(self, x0, word):
        states = super().exec_query(x0, word)
        if np.ndim(x0) == 1 and 1 in word:
            cut = word.index(1) + 1
            states = states[:cut] + [np.full_like(x, np.inf) for x in states[cut:]]
        return states


def test_non_finite_probe_states_pass_no_label(demo2d_system):
    # inf - inf is NaN: no label passes, and no RuntimeWarning is raised
    # (the test configuration turns one into an error)
    obs = NonFiniteProbe(demo2d_system)
    registry, cache = LabelRegistry(canonical=DEMO2D_MATRICES), {}
    cached_outputs(obs, registry, cache, [(0, 0)])
    with pytest.raises(SingularBasis, match="probe check"):
        cached_outputs(obs, registry, cache, [(0, 1, 0)])
    assert cache == {(0, 0): 0}


def test_learn_reports_fallbacks_and_margin(demo2d_system):
    result = learn(WhiteBoxObservationOracle(demo2d_system),
                   WhiteBoxEquivalenceOracle(demo2d_system), demo2d_system.fa.alphabet)
    stats = result.stats_dict()
    assert stats["label_fallbacks"] == 3  # one per label of the demo model
    assert isinstance(stats["label_margin_min"], float) and stats["label_margin_min"] > 1


@pytest.mark.parametrize("config, io, recovering_io", [
    (None, 23, 26), (GenConfig(10, 3, 4, 4, 0), 255, 400), (GenConfig(12, 2, 3, 5, 2), 196, 330)])
def test_coarse_tolerance_learn(demo2d_system, config, io, recovering_io):
    # at label_tol 0.4 one column often passes two labels (a fallback), or a
    # label not yet interned (set right by a rescreen or a counterexample):
    # the learn still verifies, its labels are the hidden matrices, and it
    # costs fewer trace columns than recovering every maximal cell on d
    # columns did (recovering_io)
    hidden = demo2d_system if config is None else random_system(config)
    result = learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden, tol=0.4),
                   hidden.fa.alphabet, label_tol=0.4)
    assert WhiteBoxEquivalenceOracle(hidden, tol=0.4).check(result.system) is None
    for matrix in result.system.matrices:
        assert any(mat_approx_eq(matrix, m, 1e-9) for m in hidden.matrices)
    assert result.stats.io_queries == io < recovering_io


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4, 5, 20]), seed=st.integers(0, 10_000),
       num_nodes=st.integers(1, 12), num_events=st.integers(1, 3),
       num_labels=st.integers(1, 6), lengths=st.lists(st.integers(0, 80), min_size=1,
                                                      max_size=12),
       fetch=st.booleans())
def test_store_labels_are_true_or_refused(d, seed, num_nodes, num_events, num_labels,
                                          lengths, fetch):
    hidden = random_system(GenConfig(num_nodes, num_events, num_labels, d, seed))
    store = ObservationStore(WhiteBoxObservationOracle(hidden))
    rng = np.random.default_rng(seed)
    words = [tuple(int(e) for e in rng.integers(0, num_events, n)) for n in lengths]
    if fetch:
        try:
            store.fetch(words)
        except SwitchLearnError:
            pass
    # read twice: the second pass reads the labels cached by the first,
    # after every re-derivation made since
    for _ in range(2):
        for word in words:
            try:
                label = store.label(word)
            except SwitchLearnError:
                continue
            assert true_label(hidden, store.registry, label, word)


@lru_cache(maxsize=None)
def suite_small(seed):
    """perfbench's suite-small systems at seed, by name."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return {name: hidden for name, hidden, _ in run.suite_small(switchlearn, np, seed)}


@pytest.mark.parametrize("name, seed", [("n10e2l2d4/s47", 1), ("n8e2l3d4/s132", 1),
                                        ("n10e4l2d5/s178", 2)])
def test_suite_small_systems_whose_recovery_failed_learn(name, seed):
    # each raised SingularBasis when every label was recovered on d columns
    hidden = suite_small(seed)[name]
    result = learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
                   hidden.fa.alphabet)
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
    assert result.system.fa.num_nodes <= hidden.fa.num_nodes
