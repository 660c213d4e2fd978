"""The one-column label probe: known labels checked on one trace column, new
labels recovered on d columns, and the guards against a probe that takes a
new label for a known one."""

import importlib.util
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchlearn
from switchlearn import (LABEL_TOL, BoundedTestingEquivalenceOracle, EventAlphabet, Fa,
                         GenConfig, InvalidEvent, LabelRegistry, ObservationStore,
                         SingularBasis, SwitchedSystem, SwitchLearnError,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle,
                         cached_output, cached_outputs, compute_output, identity, learn,
                         mat_approx_eq, output_of, random_system, recover_transform)
from switchlearn import output_query
from switchlearn.learner import close_store

from conftest import DEMO2D_MATRICES, is_separable, separability_checked, stocked_store

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


def rotated(system: SwitchedSystem, seed: int) -> SwitchedSystem:
    """system in a random orthonormal basis, so its matrices are not diagonal."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((system.d, system.d)))
    return SwitchedSystem(fa=system.fa, matrices=tuple(q @ m @ q.T for m in system.matrices),
                          d=system.d)


def true_label(hidden, registry, label, word) -> bool:
    """Whether label's matrix is the hidden output of word, within LABEL_TOL."""
    return mat_approx_eq(registry.canonical[label],
                         hidden.matrices[output_of(hidden.fa, word)], LABEL_TOL)


@pytest.mark.parametrize("n", [3, 10, 20, 40, 80])
def test_stress_chain_learns(n):
    # at n >= 10 the probe takes the last node's B for A, and the
    # counterexample's endpoints are re-derived on d columns before they are
    # compared; a word recovered on d columns more than once per label shows
    # it. From n = 40 on the last node's basis has pivots below 1e-12, but
    # its error bound is small: a diagonal basis is solved exactly
    hidden = stress_chain(n)
    with separability_checked():
        result = learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
                       hidden.fa.alphabet)
    assert result.system.fa.num_nodes == n
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
    assert (result.label_fallbacks > 2) == (n > 3)


def test_stress_chain_refuses_what_float64_cannot_resolve():
    # rotated, the last node's basis (condition number about 4^29) mixes
    # every axis, so neither the plain recovery nor its refinement is within
    # the error bound: a typed error, never a wrong model
    hidden = rotated(stress_chain(30), 0)
    with pytest.raises(SingularBasis, match="too ill-conditioned"):
        learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(hidden),
              hidden.fa.alphabet)


def learn_black_box(hidden):
    """learn with the bounded oracle at the CLI's default depth, tracing
    through the learner's own trace oracle."""
    obs = WhiteBoxObservationOracle(hidden)
    eq = BoundedTestingEquivalenceOracle(obs, 2 * hidden.fa.num_nodes + 1)
    return learn(obs, eq, hidden.fa.alphabet)


@pytest.mark.parametrize("n", [10, 15, 20, 30, 40])
def test_stress_chain_learns_black_box(n):
    # the bounded oracle starts each word's column from the inverse of the
    # hypothesis's product along its prefixes, so B - A stays visible at
    # the end of the chain
    hidden = stress_chain(n)
    result = learn_black_box(hidden)
    assert result.system.fa.num_nodes == n
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None


def test_stress_chain_black_box_refuses_what_float64_cannot_resolve():
    # rotated at n = 30, the learner's recovery of the last node's label is
    # refused: a typed error, never a wrong model
    with pytest.raises(SingularBasis, match="too ill-conditioned"):
        learn_black_box(rotated(stress_chain(30), 0))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the bounded check accepts a wrong one-node model; remove this "
                   "marker when the check refuses what its starts cannot restore")
@pytest.mark.parametrize("n", [40, 50])
def test_rotated_stress_chain_black_box_is_refused_or_learned(n):
    # rotated, the chain's product contracts beyond what the preconditioned
    # starts restore, so no column shows B - A: the learn returns one node,
    # which the white-box check rejects with a^(n-1). Never a wrong model:
    # a SingularBasis or a model that check accepts
    hidden = rotated(stress_chain(n), 0)
    try:
        result = learn_black_box(hidden)
    except SingularBasis:
        return
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None


def test_interning_a_label_rescreens_the_words_accepted_before():
    # with only A known, the probe accepts a^9, which reaches B, as A; (b,)
    # reaches B with a well-spread state, interns it, and a^9 is re-derived
    hidden = stress_chain(10, shortcut=True)
    a9, a10, b = (0,) * 9, (0,) * 10, (1,)
    obs, registry = WhiteBoxObservationOracle(hidden), LabelRegistry(canonical=[STRESS_A])
    cache = registry.cache
    cached_outputs(obs, registry, [a9])
    assert cache == {a9: 0} and registry.fallbacks == 0
    cached_outputs(obs, registry, [b, a10])
    assert cache == {a9: 1, b: 1, a10: 1}
    assert registry.relabels == 1
    # the rescreen took a^9 out of the kept pairs and left no empty entry
    assert all(len(words) == len(pairs) > 0 for words, pairs in registry._kept)
    for word, label in cache.items():
        assert true_label(hidden, registry, label, word)
    # a word after the fallback in the same stack is screened against B too
    obs, registry = WhiteBoxObservationOracle(hidden), LabelRegistry(canonical=[STRESS_A])
    cached_outputs(obs, registry, [a9, b, a10])
    assert registry.cache == {a9: 1, b: 1, a10: 1}
    assert obs.stats.output_computations == 3


def test_a_label_interned_by_a_later_call_rescreens_the_words_accepted_before():
    # the registry keeps the accepted pairs across calls: a^9, taken for A
    # in the first call, is re-derived when the second interns B
    hidden = stress_chain(10, shortcut=True)
    a9 = (0,) * 9
    obs, registry = WhiteBoxObservationOracle(hidden), LabelRegistry(canonical=[STRESS_A])
    cached_outputs(obs, registry, [a9])
    assert registry.cache == {a9: 0}
    cached_outputs(obs, registry, [(1,)])
    assert registry.cache == {a9: 1, (1,): 1}
    assert registry.relabels == 1


def test_a_registry_refuses_a_second_output_cache():
    # a rescreen writes to the registry's cache: cached_output with another
    # cache would move a^9's re-derivation there, so it is refused before
    # any query
    hidden = stress_chain(10, shortcut=True)
    a9 = (0,) * 9
    obs, registry, other = (WhiteBoxObservationOracle(hidden),
                            LabelRegistry(canonical=[STRESS_A]), {})
    cached_outputs(obs, registry, [a9])
    spent = obs.stats.as_dict()
    with pytest.raises(ValueError, match="another output cache"):
        cached_output(obs, registry, other, (1,))
    assert registry.cache == {a9: 0} and other == {} and len(registry) == 1
    assert obs.stats.as_dict() == spent


def test_row_and_index_reread_cells_a_mid_read_relabel_changed():
    # reading the row of the empty word takes a^9 for A, then (1,) interns
    # B and re-derives a^9: the row is read again, not left at (0, 0, 1)
    hidden = stress_chain(10, shortcut=True)
    tests = [(), (0,) * 9, (1,)]
    store = stocked_store(WhiteBoxObservationOracle(hidden), test_words=tests[1:])
    assert store.row(()) == (0, 1, 1)
    assert store.registry.relabels == 1
    # the index holds the empty word's row (0, 0) when reading the row of
    # (1,) interns B and relabels a^9: the index is dropped and built again,
    # rather than (1,)'s row taking the place of the empty word's
    store = stocked_store(WhiteBoxObservationOracle(hidden), access_words=[(1,)],
                          test_words=tests[1:2])
    assert store.index() == {(0, 1): 0, (1, 1): 1}
    assert store.registry.relabels == 1


def test_store_rebuilds_its_rows_when_a_label_changes():
    hidden = stress_chain(10, shortcut=True)
    a8 = (0,) * 8
    store = stocked_store(WhiteBoxObservationOracle(hidden), access_words=[a8],
                          test_words=[(0,)])
    # a^9 is taken for A, the only label known, so a^8 looks like the empty word
    assert store.index() == {(0, 0): 0}
    assert store.label((1,)) == 1
    assert store.registry.relabels == 1
    assert store.row(a8) == (0, 1)
    assert store.index() == {(0, 0): 0, (0, 1): 1}


class LostRecoveries(WhiteBoxObservationOracle):
    """A trace oracle whose d-column traces of words longer than 9 events fail."""

    def exec_query(self, x0, word):
        if np.ndim(x0) == 2 and len(word) > 9:
            raise OSError("trace lost")
        return super().exec_query(x0, word)


# store calls that change a^9's cached label, then raise
RELABEL_THEN_RAISE = {
    # (1,) interns B and a^9 is re-derived as B; the trace of (7,) is refused
    "fetch": lambda store: store.fetch([(1,), (7,)]),
    # a^9 is re-derived as B; the trace of (7,) is refused
    "rederive": lambda store: store.rederive([(0,) * 9, (7,)]),
    # a^10 is taken for A; (1,) interns B, and of the words it rescreens
    # a^9 is re-derived as B before the recovery of a^10 is lost
    "label": lambda store: store.fetch([(0,) * 10]) or store.label((1,)),
}


@pytest.mark.parametrize("call", sorted(RELABEL_THEN_RAISE))
def test_store_rebuilds_its_rows_when_a_failing_call_changed_a_label(call):
    hidden = stress_chain(10, shortcut=True)
    a8 = (0,) * 8
    store = stocked_store(LostRecoveries(hidden), access_words=[a8], test_words=[(0,)])
    assert store.index() == {(0, 0): 0}
    with pytest.raises((InvalidEvent, OSError)):
        RELABEL_THEN_RAISE[call](store)
    assert store.registry.cache[(0,) * 9] == 1 and store.registry.relabels >= 1
    # the rows are read again from the cache, not served as before the call
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
    store = stocked_store(WhiteBoxObservationOracle(hidden), access_words=[(0,), (0, 0), (1,)],
                          test_words=[(2,)])
    close_store(store, hidden.fa.alphabet)
    assert store.registry.relabels >= 2
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
    registry = LabelRegistry(canonical=DEMO2D_MATRICES)
    words = [(0, 1, 1, 0), (1, 1), (0, 1), (1, 0, 0, 0, 1)]
    cached_outputs(obs, registry, words)
    assert obs.stats.io_queries == 3  # (0, 1) is read off the trace of (0, 1, 1, 0)
    assert registry.fallbacks == 0 and len(registry) == 3
    assert [registry.cache[w] for w in words] == [output_of(demo2d_system.fa, w)
                                                  for w in words]
    assert registry.margin_min > 1


def test_fallback_refused_when_its_recovery_fails_the_probe_check(demo2d_system, monkeypatch):
    recover = output_query.recover_transform
    monkeypatch.setattr(output_query, "recover_transform",
                        lambda basis, image: recover(basis, image) + 1e-3)
    obs, registry = WhiteBoxObservationOracle(demo2d_system), LabelRegistry()
    with pytest.raises(SingularBasis, match="probe check"):
        cached_outputs(obs, registry, [(), (0,)])
    assert registry.cache == {(): 0} and len(registry) == 1
    assert obs.stats.output_computations == 2


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
    obs, registry = WhiteBoxObservationOracle(hidden), LabelRegistry()
    cached_outputs(obs, registry, [word])
    assert mat_approx_eq(registry.canonical[registry.cache[word]], b, 1e-9)
    # the probe column, the recovery, and the refinement's d = 3 columns
    assert obs.stats.io_queries == 1 + 3 + 3 * refined


def test_recovery_too_ill_conditioned_to_refine_is_refused():
    hidden = rotated(stress_chain(28), 0)
    with pytest.raises(SingularBasis, match="too ill-conditioned"):
        cached_outputs(WhiteBoxObservationOracle(hidden), LabelRegistry(), [(0,) * 27])


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
    registry = LabelRegistry(canonical=DEMO2D_MATRICES)
    cached_outputs(obs, registry, [(0, 0)])
    with pytest.raises(SingularBasis, match="probe check"):
        cached_outputs(obs, registry, [(0, 1, 0)])
    assert registry.cache == {(0, 0): 0}


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
       fetch=st.booleans(), scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_store_labels_are_true_or_refused(d, seed, num_nodes, num_events, num_labels,
                                          lengths, fetch, scale):
    # scale makes the products along a word contract or expand: the
    # recovery's bound, not the size of its basis, decides what is refused
    hidden = random_system(GenConfig(num_nodes, num_events, num_labels, d, seed))
    hidden = SwitchedSystem(fa=hidden.fa, matrices=tuple(scale * m for m in hidden.matrices),
                            d=d)
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


RATIOS = output_query._ratios


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 5, 20]), m=st.integers(1, 10), k=st.integers(0, 40),
       tol=st.sampled_from([1e-6, 0.4]), seed=st.integers(0, 10_000))
def test_ratios_match_a_loop_over_labels_and_words(d, m, k, tol, seed):
    rng = np.random.default_rng(seed)
    matrices = rng.uniform(-1.0, 1.0, (m, d, d))
    pairs = rng.standard_normal((k, 2, d))
    for i, kind in zip(range(k), rng.integers(0, 6, k)):
        if kind == 0:  # passes the first label, up to rounding
            pairs[i, 1] = matrices[0] @ pairs[i, 0]
        elif kind == 1:
            pairs[i, 0] = 0.0
        elif kind == 2:
            pairs[i, rng.integers(2), rng.integers(d)] = rng.choice([np.nan, np.inf])
    with np.errstate(all="ignore"):
        expected = np.array([[np.abs(y - c @ x).max() / (tol * np.abs(x).sum())
                              for x, y in pairs] for c in matrices]).reshape(m, k)
    # the loop's sums run in another order: ratios near 0 differ by about
    # eps * |C x|_inf / (tol * |x|_1), below 1e-7 at these tolerances
    np.testing.assert_allclose(RATIOS(matrices, pairs[:, 0], pairs[:, 1], tol), expected,
                               rtol=1e-12, atol=1e-7)


def word_by_word_ratios(matrices, xs, ys, tol):
    """output_query._ratios one word per call. BLAS may round the product
    of one column otherwise than that of the same column among many (it
    takes another kernel), so only word by word is the ratio of a label and
    a word independent of the other words screened with it."""
    columns = [RATIOS(matrices, xs[k:k + 1], ys[k:k + 1], tol) for k in range(len(xs))]
    return np.concatenate(columns, axis=1) if columns else RATIOS(matrices, xs, ys, tol)


def rescreening_identify(obs, registry, words, pairs):
    """Reference for output_query._identify: whenever a fallback adds a
    label, every label is screened again against the words still to come."""
    cache, accepted, known = registry.cache, [], -1
    try:
        for i, word in enumerate(words):
            if len(registry) != known:
                known, base = len(registry), i
                ratios = (output_query._ratios(registry._labels, pairs[i:, 0], pairs[i:, 1],
                                               registry.tol)
                          if known else np.empty((0, len(words) - i)))
                registry._note(ratios)
                passed = ratios <= 1
                hits = passed.sum(axis=0).tolist()
                first = passed.argmax(axis=0).tolist() if known else hits
            obs.stats.output_computations += 1
            if hits[i - base] == 1:
                cache[word] = first[i - base]
                accepted.append(i)
                continue
            registry._keep(words, pairs, accepted)
            accepted = []
            registry.fallbacks += 1
            matrix = output_query._derive(obs, word, registry.tol, pairs[i])
            cache[word] = output_query._intern(obs, registry, matrix)
    finally:
        registry._keep(words, pairs, accepted)


def stacks_outcome(hidden, tol, known, stacks, identify, ratios):
    """Everything labelling the stacks shows, each stack one cached_outputs
    call, from a registry that knows the first known hidden labels: the
    cache, the label bytes, the registry's counters, the query counts and
    the error raised; and, apart, margin_min."""
    obs = WhiteBoxObservationOracle(hidden)
    registry = LabelRegistry(tol, canonical=hidden.matrices[:known])
    error = None
    with mock.patch.object(output_query, "_identify", identify), \
            mock.patch.object(output_query, "_ratios", ratios):
        try:
            for words in stacks:
                cached_outputs(obs, registry, words)
        except SwitchLearnError as exc:
            error = type(exc), str(exc)
    labels = np.array(registry.canonical).tobytes()
    return ((registry.cache, labels, registry.fallbacks, registry.relabels,
             obs.stats.as_dict(), error), registry.margin_min)


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4, 5, 20]), tol=st.sampled_from([1e-6, 0.4]),
       seed=st.integers(0, 10_000), num_events=st.integers(1, 3),
       num_labels=st.integers(2, 8), known=st.integers(0, 2), stress=st.booleans(),
       sizes=st.lists(st.integers(1, 80), min_size=1, max_size=3), word_by_word=st.booleans())
def test_identify_screens_each_label_once(d, tol, seed, num_events, num_labels, known, stress,
                                          sizes, word_by_word):
    # a label a fallback adds mid-stack is screened alone against the words
    # after it; the outcome is that of screening every label again. The
    # stress chain's long a-words pass A while they reach B, so there B,
    # interned mid-stack, often re-derives words accepted before it
    if stress:
        hidden, num_events, known = stress_chain(4 + seed % 13, shortcut=True), 2, 1
        lengths = 16
    else:
        hidden = random_system(GenConfig(12, num_events, num_labels, d, seed))
        known, lengths = min(known, len(hidden.matrices) - 1), 8
    rng = np.random.default_rng(seed)
    # the stress chain's a-words are drawn with a few b's among them
    stacks = [[tuple(int(e) for e in (rng.random(rng.integers(0, lengths)) < 0.1 if stress
                                      else rng.integers(0, num_events, rng.integers(0, lengths))))
               for _ in range(size)] for size in sizes]
    ratios = word_by_word_ratios if word_by_word else RATIOS
    outcome, margin = stacks_outcome(hidden, tol, known, stacks, output_query._identify, ratios)
    expected, expected_margin = stacks_outcome(hidden, tol, known, stacks,
                                               rescreening_identify, ratios)
    assert outcome == expected
    if word_by_word:
        assert margin == expected_margin
    else:  # the rescreen may see a ratio in another call's rounding: a ratio
        # over 1 is off by at most about d * eps * max|C| / tol of itself
        assert margin == pytest.approx(expected_margin, rel=1e-8)


def test_a_label_added_mid_stack_is_screened_alone(demo2d_system):
    # each of the demo model's three labels is new when its first word is
    # reached, so every screen after the first word is of one new label
    screens = []

    def recording_ratios(matrices, xs, ys, tol):
        screens.append(len(matrices))
        return RATIOS(matrices, xs, ys, tol)

    words = [(), (0,), (1,), (0, 1), (1, 0), (0, 0), (1, 1)]
    obs, registry = WhiteBoxObservationOracle(demo2d_system), LabelRegistry()
    with mock.patch.object(output_query, "_ratios", recording_ratios):
        cached_outputs(obs, registry, words)
    assert len(registry) == 3 and obs.stats.output_computations == len(words)
    assert screens and set(screens) == {1}
    assert registry.cache == {
        w: registry.classify(demo2d_system.matrices[output_of(demo2d_system.fa, w)])
        for w in words}


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
