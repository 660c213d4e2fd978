import itertools
from unittest import mock

import numpy as np
import pytest

from switchlearn import (BoundedTestingEquivalenceOracle, BudgetExceeded,
                         EventAlphabet, Fa, GenConfig, NotACounterexample, NotClosed,
                         ObservationStore, SingularBasis, SwitchedSystem,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle,
                         build_hypothesis, close_store, learn, learner,
                         mat_approx_eq, process_counterexample, random_system, run,
                         validate)
from switchlearn import output_query
from switchlearn.learner import find_representative, max_outputs_for_counterexample
from switchlearn.output_query import cached_output

from conftest import (DEMO2D_MATRICES, count_maximal, is_separable, row,
                      separability_checked, stocked_store)

E1, E2 = 0, 1
F, G = 0, 1


def fresh_store(system, **words):
    return stocked_store(WhiteBoxObservationOracle(system), **words)


def minimal_state_count(fa):
    """Moore-style partition refinement; the block count of a reachable
    machine is its minimal equivalent size."""
    part = {n: fa.gamma[n] for n in range(fa.num_nodes)}
    while True:
        keys = {}
        refined = {}
        for n in range(fa.num_nodes):
            key = (part[n],) + tuple(part[fa.delta[n][e]]
                                     for e in range(len(fa.alphabet)))
            refined[n] = keys.setdefault(key, len(keys))
        if refined == part:
            return len(set(part.values()))
        part = refined


def test_row_reflexive(demo2d_system):
    store = fresh_store(demo2d_system, test_words=[(E2,)])
    assert store.row((E1,)) == row((E1,), store.test_words, store.label)
    assert store.row((E1,)) == store.row((E1,))
    assert len(store.row((E1,))) == len(store.test_words)
    # a stored row gains the cell of a test word added since
    store.test_words.append((E1,))
    assert store.row((E1,)) == row((E1,), store.test_words, store.label)


def test_one_event_word_distinguished_from_empty(demo2d_system):
    # reading e1 lands on a node with a different label than the start node
    store = fresh_store(demo2d_system)
    assert store.row((E1,)) != store.row(())


def states_language_equal(fa, s1, s2):
    seen = {(s1, s2)}
    frontier = [(s1, s2)]
    while frontier:
        a, b = frontier.pop()
        if fa.gamma[a] != fa.gamma[b]:
            return False
        for e in range(len(fa.alphabet)):
            nxt = (fa.delta[a][e], fa.delta[b][e])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


DIAG_POOL = tuple(np.diag([float(k + 1), float(k + 2)]) for k in range(3))


def random_diag_system(rng, max_nodes):
    num_nodes = int(rng.integers(1, max_nodes + 1))
    fa = Fa(num_nodes=num_nodes, initial=0,
            alphabet=EventAlphabet(("e1", "e2")),
            delta=tuple(tuple(int(t) for t in rng.integers(0, num_nodes, 2))
                        for _ in range(num_nodes)),
            gamma=tuple(int(g) for g in rng.integers(0, len(DIAG_POOL), num_nodes)))
    return SwitchedSystem(fa=fa, matrices=DIAG_POOL, d=2)


def test_agreement_on_all_short_tests_matches_state_equality():
    rng = np.random.default_rng(5)
    for trial in range(20):
        system = random_diag_system(rng, 4)
        fa = system.fa
        num_nodes = fa.num_nodes
        tests = [w for n in range(num_nodes + 1)
                 for w in itertools.product((0, 1), repeat=n)]
        store = fresh_store(system, test_words=tests[1:])
        for _ in range(6):
            u = tuple(int(e) for e in rng.integers(0, 2, rng.integers(0, 5)))
            v = tuple(int(e) for e in rng.integers(0, 2, rng.integers(0, 5)))
            expected = states_language_equal(fa, run(fa, u)[-1], run(fa, v)[-1])
            assert (store.row(u) == store.row(v)) == expected


def test_fresh_store_first_defect(demo2d_system):
    # closing a fresh store adds (E1,) first; closure only appends, so the
    # access words are in the order they were added
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    assert store.access_words[1:] == [(E1,), (E2,)]


def test_single_node_system_is_closed_immediately():
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=((0, 0),), gamma=(0,))
    system = SwitchedSystem(fa=fa, matrices=(DEMO2D_MATRICES[0],), d=2)
    store = fresh_store(system)
    close_store(store, fa.alphabet)
    assert store.access_words == [()]


def test_close_collects_both_one_event_words(demo2d_system):
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    assert store.access_words == [(), (E1,), (E2,)]
    hyp = build_hypothesis(store, demo2d_system.fa.alphabet)
    assert hyp.fa.num_nodes == 3


def restart_close(store, alphabet):
    """Reference closure: append the first extension, in access-word then
    event order, whose row matches no access word; rescan from the start."""
    while True:
        rows = [row(w, store.test_words, store.label) for w in store.access_words]
        defects = [w + (e,) for w in store.access_words
                   for e in range(len(alphabet))
                   if row(w + (e,), store.test_words, store.label) not in rows]
        if not defects:
            return
        store.access_words.append(defects[0])


def test_close_matches_restart_from_zero_closure():
    rng = np.random.default_rng(11)
    for trial in range(30):
        system = random_diag_system(rng, 8)
        tests = [tuple(int(e) for e in rng.integers(0, 2, n))
                 for n in rng.integers(1, 4, rng.integers(0, 5))]
        one_pass = fresh_store(system, test_words=tests)
        restarted = fresh_store(system, test_words=tests)
        close_store(one_pass, system.fa.alphabet)
        restart_close(restarted, system.fa.alphabet)
        assert one_pass.access_words == restarted.access_words


def word_by_word_close(store, alphabet):
    """Reference closure without fetches: one pass over the growing access
    words, indexing them by row first, each cell computed by store.label
    when first read."""
    index = {}
    for i, word in enumerate(store.access_words):
        index.setdefault(row(word, store.test_words, store.label), i)
    for word in store.access_words:
        for e in range(len(alphabet)):
            extension_row = row(word + (e,), store.test_words, store.label)
            if extension_row not in index:
                index[extension_row] = len(store.access_words)
                store.access_words.append(word + (e,))


def closure_trace(system, test_rounds, close):
    """Access words, canonical labels, query counts, the number of maximal
    words among the uncached cells each fetch hands over and the words
    recovered on d columns, after closing a store with close once per list
    of test words in test_rounds, adding those words before each closure."""
    obs = WhiteBoxObservationOracle(system)
    store = ObservationStore(obs)
    maximal = 0
    fetch = learner.cached_outputs

    def counting(obs, registry, words, *args):
        nonlocal maximal
        words = list(words)
        maximal += count_maximal(w for w in words if w not in registry.cache)
        return fetch(obs, registry, words, *args)

    with mock.patch.object(learner, "cached_outputs", counting):
        for tests in test_rounds:
            store.test_words.extend(t for t in tests if t not in store.test_words)
            close(store, system.fa.alphabet)
    return (store.access_words, store.registry.canonical, obs.stats.as_dict(), maximal,
            store.registry.fallbacks)


def test_prefetched_closure_matches_word_by_word_closure(demo2d_system):
    rng = np.random.default_rng(5)
    cases = [(demo2d_system, [[], [(E2,)], [(E1, E2), (E2, E2)]])]
    for seed in range(8):
        system = random_system(GenConfig(num_nodes=int(rng.integers(2, 25)),
                                         num_events=int(rng.integers(2, 5)),
                                         num_labels=int(rng.integers(1, 7)), dim=5,
                                         seed=seed, full_rank_threshold=0.3))
        events = len(system.fa.alphabet)
        cases.append((system, [[tuple(int(e) for e in rng.integers(0, events, n))
                                for n in rng.integers(1, 4, rng.integers(0, 4))]
                               for _ in range(3)]))
    for system, test_rounds in cases:
        words, labels, stats, unfetched, _ = closure_trace(system, test_rounds,
                                                           word_by_word_close)
        assert unfetched == 0
        batched_words, batched_labels, batched_stats, maximal, fallbacks = closure_trace(
            system, test_rounds, close_store)
        assert batched_words == words
        # every cell is fetched, and a fetch traces only its maximal cells,
        # one column each: the others are read off the trace of a cell
        # extending them; each label is recovered once, on d columns
        assert fallbacks == len(labels)
        assert batched_stats == {**stats, "io_queries": maximal + system.d * fallbacks}
        assert maximal < stats["output_computations"]
        assert len(batched_labels) == len(labels)
        for a, b in zip(batched_labels, labels):
            assert np.array_equal(a, b)


def test_close_leaves_closed_store_unchanged(demo2d_system):
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    before = list(store.access_words)
    close_store(store, demo2d_system.fa.alphabet)
    assert store.access_words == before


def test_close_extends_fault_mode_chain(fault_system):
    store = fresh_store(fault_system, access_words=[(G,), (G, G)], test_words=[(G,)])
    close_store(store, fault_system.fa.alphabet)
    assert store.access_words == [(), (G,), (G, G), (G, G, G)]


def test_closure_additions_preserve_separability(demo2d_system):
    # the test words stay fixed and access words are only appended, so a
    # separable table after closure was separable after every addition
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    assert len(store.access_words) > 1
    assert is_separable(store)


def test_find_representative_is_the_first_access_word_with_the_row(demo2d_system):
    # (E1, E2) and (E2,) reach nodes with the same label, told apart by (E2,)
    store = fresh_store(demo2d_system, access_words=[(E1,), (E2,), (E1, E2)])
    assert find_representative(store, (E2, E2)) == 0
    assert find_representative(store, (E1, E2)) == 2
    assert not is_separable(store)
    store.test_words.append((E2,))
    assert find_representative(store, (E1, E2)) == 3
    assert is_separable(store)


def test_row_reads_cached_cells_from_the_cache(demo2d_system, monkeypatch):
    tests = [(), (E2,), (E1,), (E1, E2)]
    store = stocked_store(WhiteBoxObservationOracle(demo2d_system), test_words=tests[1:],
                          max_outputs=6)
    store.fetch([(E1,) + t for t in tests])
    spent, lookups, expected = store.spent, [], row((E1,), tests, store.label)
    monkeypatch.setattr(learner, "cached_output",
                        lambda *args: lookups.append(args[3]) or cached_output(*args))
    assert store.row((E1,)) == expected
    assert lookups == [] and store.spent == spent == 4
    # at the budget, the first missing cell in test-word order is refused,
    # and only it reaches label; the cached cells around it are read as above
    store.fetch([(E2,), (E2, E1)])
    spent, labelled = store.spent, []
    monkeypatch.setattr(store, "label", lambda word: labelled.append(word) or
                        ObservationStore.label(store, word))
    with pytest.raises(BudgetExceeded):
        store.row((E2,))
    assert labelled == [(E2, E2)] and lookups == [] and store.spent == spent
    assert (E2,) not in store._rows
    # rows reads its words in order: at a budget that covers only the first
    # word's missing cells, that word's row is stored, and only the second
    # word's first missing cell in test-word order reaches label
    store = stocked_store(WhiteBoxObservationOracle(demo2d_system), test_words=tests[1:],
                          max_outputs=6)
    store.fetch([(E2,), (E2, E1)])
    labelled = []
    monkeypatch.setattr(store, "label", lambda word: labelled.append(word) or
                        ObservationStore.label(store, word))
    with pytest.raises(BudgetExceeded):
        store.rows([(E1,), (E2,)])
    assert store._rows[(E1,)] == tuple(store.registry.cache[(E1,) + t] for t in tests)
    assert labelled == [(E2, E2)] and lookups == [] and store.spent == 6
    assert (E2,) not in store._rows


def test_build_three_node_hypothesis(demo2d_system):
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    hyp = build_hypothesis(store, demo2d_system.fa.alphabet)
    assert hyp.fa.num_nodes == 3
    assert hyp.fa.initial == 0
    assert hyp.fa.delta == ((1, 2), (0, 2), (2, 0))
    expected_labels = (DEMO2D_MATRICES[0], DEMO2D_MATRICES[2], DEMO2D_MATRICES[1])
    for node, matrix in enumerate(expected_labels):
        assert mat_approx_eq(hyp.matrices[hyp.fa.gamma[node]], matrix, 1e-9)


def test_build_four_node_hypothesis_is_equivalent(demo2d_system):
    store = fresh_store(demo2d_system, access_words=[(E1,), (E2,), (E1, E2)],
                        test_words=[(E2,)])
    hyp = build_hypothesis(store, demo2d_system.fa.alphabet)
    assert hyp.fa.num_nodes == 4
    assert WhiteBoxEquivalenceOracle(demo2d_system).check(hyp) is None


def test_build_single_node_hypothesis():
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=((0, 0),), gamma=(0,))
    system = SwitchedSystem(fa=fa, matrices=(DEMO2D_MATRICES[0],), d=2)
    store = fresh_store(system)
    hyp = build_hypothesis(store, fa.alphabet)
    assert hyp.fa.num_nodes == 1
    assert hyp.fa.delta == ((0, 0),)


def test_build_hypothesis_requires_closed_store(demo2d_system):
    store = fresh_store(demo2d_system)
    with pytest.raises(NotClosed):
        build_hypothesis(store, demo2d_system.fa.alphabet)


def test_counterexample_yields_access_and_test_word(demo2d_system):
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    hyp = build_hypothesis(store, demo2d_system.fa.alphabet)
    cex = WhiteBoxEquivalenceOracle(demo2d_system).check(hyp)
    assert cex == (E1, E2, E2)
    new_access, new_test = process_counterexample(cex, hyp, store)
    assert new_access == (E1, E2)
    assert new_test == (E2,)
    assert new_access not in store.access_words
    store.access_words.append(new_access)
    store.test_words.append(new_test)
    assert is_separable(store)


def test_counterexample_on_fault_mode_system(fault_system):
    store = fresh_store(fault_system)
    close_store(store, fault_system.fa.alphabet)
    hyp = build_hypothesis(store, fault_system.fa.alphabet)
    assert hyp.fa.num_nodes == 2
    cex = WhiteBoxEquivalenceOracle(fault_system).check(hyp)
    assert cex == (G, G, G)
    new_access, new_test = process_counterexample(cex, hyp, store)
    assert new_access == (G, G)
    assert new_test == (G,)


def test_non_counterexample_rejected(demo2d_system):
    store = fresh_store(demo2d_system)
    close_store(store, demo2d_system.fa.alphabet)
    hyp = build_hypothesis(store, demo2d_system.fa.alphabet)
    with pytest.raises(NotACounterexample):
        process_counterexample((E1, E1), hyp, store)


def test_learn_demo_model(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    result = learn(obs, eq, demo2d_system.fa.alphabet)
    assert result.system.fa.num_nodes == 4
    assert result.stats.equivalence_queries == 2
    assert result.rounds == 2
    assert result.test_words == [(), (E2,)]
    assert result.access_words == [(), (E1,), (E2,), (E1, E2)]
    assert WhiteBoxEquivalenceOracle(demo2d_system).check(result.system) is None
    assert validate(result.system) == []


def test_learn_fault_mode_model(fault_system):
    obs = WhiteBoxObservationOracle(fault_system)
    eq = WhiteBoxEquivalenceOracle(fault_system)
    result = learn(obs, eq, fault_system.fa.alphabet)
    assert result.system.fa.num_nodes == 4
    assert result.stats.equivalence_queries == 2
    assert result.access_words == [(), (G,), (G, G), (G, G, G)]
    assert result.test_words == [(), (G,)]
    assert WhiteBoxEquivalenceOracle(fault_system).check(result.system) is None


def test_learn_single_node_model():
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=((0, 0),), gamma=(0,))
    system = SwitchedSystem(fa=fa, matrices=(DEMO2D_MATRICES[0],), d=2)
    result = learn(WhiteBoxObservationOracle(system),
                   WhiteBoxEquivalenceOracle(system), fa.alphabet)
    assert result.system.fa.num_nodes == 1
    assert result.rounds == 1
    assert result.stats.equivalence_queries == 1


def test_learn_round_budget(demo2d_system):
    with pytest.raises(BudgetExceeded):
        learn(WhiteBoxObservationOracle(demo2d_system),
              WhiteBoxEquivalenceOracle(demo2d_system),
              demo2d_system.fa.alphabet, max_rounds=1)


@pytest.mark.parametrize("max_outputs", [None, 5])
def test_store_label_takes_any_sequence_of_events(demo2d_system, max_outputs):
    store = ObservationStore(WhiteBoxObservationOracle(demo2d_system),
                             max_outputs=max_outputs)
    assert store.label([E1, E2]) == store.label((E1, E2))
    assert store.spent == 1


def test_learn_output_budget(demo2d_system):
    # the demo model needs exactly 14 output computations; cache hits after
    # the 14th are free
    def learn_with(budget):
        return learn(WhiteBoxObservationOracle(demo2d_system),
                     WhiteBoxEquivalenceOracle(demo2d_system),
                     demo2d_system.fa.alphabet, max_outputs=budget)

    assert learn_with(14).stats.output_computations == 14
    for budget in (2, 13):
        with pytest.raises(BudgetExceeded, match=f"more than {budget} "):
            learn_with(budget)


def test_learn_output_budget_refuses_at_the_budget(demo2d_system):
    # closure computes cells in batches; they stop at the budget, so the
    # refusal comes with exactly the budget spent, as word by word
    for budget in range(14):
        obs = WhiteBoxObservationOracle(demo2d_system)
        with pytest.raises(BudgetExceeded):
            learn(obs, WhiteBoxEquivalenceOracle(demo2d_system),
                  demo2d_system.fa.alphabet, max_outputs=budget)
        assert obs.stats.output_computations == budget
        # one column per trace, one trace per computed cell, except that the
        # last closure prefetch reads (E1, E2, E1), the 12th cell, off the
        # trace of (E1, E2, E1, E2), the 13th, once both are in budget; and
        # d = 2 columns more for each of the first three cells, which
        # carry the model's three labels, each new when computed
        assert obs.stats.io_queries == budget + 2 * min(budget, 3) - (budget == 13)


def test_learn_output_budget_counts_shared_equivalence_oracle(demo2d_system):
    # the bounded oracle shares obs, so its output computations count toward
    # max_outputs: the second check (no counterexample up to length 9) runs
    # to completion, then learn refuses instead of returning
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, 9)
    with pytest.raises(BudgetExceeded, match="more than 30 "):
        learn(obs, eq, demo2d_system.fa.alphabet, max_outputs=30)
    assert eq.stats.equivalence_queries == 2
    assert obs.stats.output_computations > 2 ** 10


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_learn_rejects_bad_label_tol(demo2d_system, tol):
    obs = WhiteBoxObservationOracle(demo2d_system)
    with pytest.raises(ValueError, match="label tolerance"):
        learn(obs, WhiteBoxEquivalenceOracle(demo2d_system),
              demo2d_system.fa.alphabet, label_tol=tol)
    assert obs.stats.io_queries == 0


def test_learn_is_deterministic_within_a_process():
    hidden = random_system(GenConfig(num_nodes=12, num_events=3, num_labels=4,
                                     dim=5, seed=17))

    def learn_once():
        return learn(WhiteBoxObservationOracle(hidden),
                     WhiteBoxEquivalenceOracle(hidden), hidden.fa.alphabet)

    first, second = learn_once(), learn_once()
    assert first.rounds > 1
    assert first.system.fa == second.system.fa
    assert len(first.system.matrices) == len(second.system.matrices)
    for a, b in zip(first.system.matrices, second.system.matrices):
        assert np.array_equal(a, b)
    assert first.access_words == second.access_words
    assert first.test_words == second.test_words
    assert first.counterexample_costs == second.counterexample_costs
    counts = lambda r: {k: v for k, v in r.stats_dict().items() if k != "wall_ms"}
    assert counts(first) == counts(second)


@pytest.mark.parametrize("eq_kind", ["exact", "bounded"])
def test_learn_refuses_overflowing_outputs(eq_kind):
    # the output of (a,) overflows to inf; recovered as a label, every such
    # output would be new, and so would the access word, without end (the
    # budget turns that into BudgetExceeded)
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("a",)), delta=((0,),), gamma=(0,))
    hidden = SwitchedSystem(fa=fa, matrices=(np.array([[1e200, 1.0], [1.0, 1e200]]),), d=2)
    obs = WhiteBoxObservationOracle(hidden)
    eq = (WhiteBoxEquivalenceOracle(hidden) if eq_kind == "exact"
          else BoundedTestingEquivalenceOracle(obs, 3))
    with np.errstate(over="ignore"), pytest.raises(SingularBasis, match="not finite"):
        learn(obs, eq, fa.alphabet, max_outputs=200)
    assert obs.stats.output_computations == 2


@pytest.mark.parametrize("eq_kind", ["exact", "bounded"])
def test_relearning_on_the_same_oracles_recovers_as_many_bases(eq_kind, monkeypatch):
    # the learner's probe state lives for one learn and the bounded
    # oracle's probe columns for one check, so a second learn on the same
    # oracle objects does the same recovery work
    tested = []
    recover = output_query.recover_transform

    def counting(basis, image):
        tested[-1] += 1
        return recover(basis, image)

    hidden = random_system(GenConfig(num_nodes=5, num_events=2, num_labels=3, dim=3, seed=0))
    obs = WhiteBoxObservationOracle(hidden)
    eq = (WhiteBoxEquivalenceOracle(hidden) if eq_kind == "exact"
          else BoundedTestingEquivalenceOracle(obs, 2 * hidden.fa.num_nodes + 1))
    monkeypatch.setattr(output_query, "recover_transform", counting)
    results = []
    for _ in range(2):
        tested.append(0)
        results.append(learn(obs, eq, hidden.fa.alphabet))
    assert tested[0] == tested[1] > 0
    assert results[0].system.fa == results[1].system.fa
    # only the learner's fallbacks recover, one per label, except the empty
    # word's: its output is the traced image of the identity; the bounded
    # oracle recovers nothing
    assert tested[0] + 1 == results[0].label_fallbacks == len(results[0].system.matrices)


class MatrixQueryRecorder(WhiteBoxObservationOracle):
    """A white-box trace oracle that records the words of its queries
    started at the identity: the d-column traces that a recovery reads."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.recovered = []

    def exec_query(self, x0, word):
        if np.shape(x0) == (self.dimension(),) * 2 and np.array_equal(x0, np.eye(len(x0))):
            self.recovered.append(tuple(word))
        return super().exec_query(x0, word)


@pytest.mark.parametrize("eq_kind", ["exact", "bounded"])
def test_learn_recovers_only_the_words_the_probe_cannot_label(eq_kind):
    # every label the learner uses, counterexample splices included, comes
    # from the one-column probe; a word is recovered on d columns only as a
    # fallback, here once per label, when it is new; the bounded oracle,
    # tracing through the same oracle, recovers no word at all
    hidden = random_system(GenConfig(num_nodes=5, num_events=2, num_labels=3, dim=3, seed=0))
    obs = MatrixQueryRecorder(hidden)
    eq = (WhiteBoxEquivalenceOracle(hidden) if eq_kind == "exact"
          else BoundedTestingEquivalenceOracle(obs, 2 * hidden.fa.num_nodes + 1))
    result = learn(obs, eq, hidden.fa.alphabet)
    assert result.rounds > 1 and result.counterexample_costs
    assert len(obs.recovered) == result.label_fallbacks == len(result.system.matrices)
    assert obs.recovered == [(), (0,)]
    assert result.stats.output_computations > 10 * len(obs.recovered)


def test_learn_random_systems_end_to_end():
    rng = np.random.default_rng(99)
    totals = {"io_queries": 0, "output_computations": 0,
              "equivalence_queries": 0, "rounds": 0}
    for trial in range(30):
        config = GenConfig(num_nodes=int(rng.integers(1, 13)),
                           num_events=int(rng.integers(2, 5)),
                           num_labels=int(rng.integers(1, 7)),
                           dim=int(rng.integers(1, 6)),
                           seed=1000 + trial, full_rank_threshold=0.3)
        hidden = random_system(config)
        obs = WhiteBoxObservationOracle(hidden)
        eq = WhiteBoxEquivalenceOracle(hidden)
        with separability_checked():
            result = learn(obs, eq, hidden.fa.alphabet)
        assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
        assert result.system.fa.num_nodes <= hidden.fa.num_nodes
        assert result.system.fa.num_nodes == minimal_state_count(hidden.fa)
        assert len(result.access_words) >= result.rounds
        assert validate(result.system) == []
        for length, outputs in result.counterexample_costs:
            assert outputs <= max_outputs_for_counterexample(length)
        for key in totals:
            totals[key] += result.stats_dict()[key]
    # the learner asks exactly these queries; a change to them is a change
    # of algorithm, not of representation
    assert totals == {"io_queries": 1704, "output_computations": 1714,
                      "equivalence_queries": 86, "rounds": 86}


def test_learned_labels_match_queried_outputs(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    result = learn(obs, eq, demo2d_system.fa.alphabet)
    hidden_matrix = {w: demo2d_system.matrices[
        demo2d_system.fa.gamma[run(demo2d_system.fa, w)[-1]]]
        for w in result.access_words}
    for node, word in enumerate(result.access_words):
        got = result.system.matrices[result.system.fa.gamma[node]]
        assert mat_approx_eq(got, hidden_matrix[word], 1e-8)
