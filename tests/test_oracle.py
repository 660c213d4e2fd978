import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from switchlearn import (AlphabetMismatch, BoundedTestingEquivalenceOracle,
                         DimensionMismatch, EventAlphabet, Fa, GenConfig, InvalidEvent,
                         ObservationOracle, SingularBasis, SwitchedSystem, SwitchLearnError,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle,
                         compute_output, execute, language_equivalent, learn, mat_approx_eq,
                         output_of, random_system)
from switchlearn import oracle
from switchlearn.linalg import LABEL_TOL, identity
from switchlearn.oracle import CHECK_BATCH, GATHER_FLOATS, PROBE_SEED, _inverses

from conftest import (OSErrorObservationOracle, make_four_node_hypothesis,
                      make_three_node_hypothesis, record_traces)

E1, E2 = 0, 1


def test_exec_query_single_event(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    states = obs.exec_query(np.array([1.0, 0.0]), (E1,))
    expected = [(1.0, 0.0), (1.0, 0.7), (1.69, 1.67)]
    for state, want in zip(states, expected):
        assert np.max(np.abs(state - np.array(want))) <= 1e-9


def test_exec_query_empty_word(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    x = np.array([2.0, -1.0])
    states = obs.exec_query(x, ())
    assert len(states) == 2
    assert np.allclose(states[1], demo2d_system.matrices[0] @ x)


def test_io_queries_count_columns(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    obs.exec_query(np.eye(2), (E1,))
    assert obs.stats.io_queries == 2
    obs.exec_query(np.array([1.0, 0.0]), (E1,))
    assert obs.stats.io_queries == 3
    # a refused query is charged as perfbench counts its columns
    with pytest.raises(DimensionMismatch):
        obs.exec_query(np.float64(1.0), (E1,))
    with pytest.raises(InvalidEvent):
        obs.exec_query([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], (7,))
    assert obs.stats.io_queries == 3 + 1 + 3


def test_repeated_queries_identical(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    first = obs.exec_query(np.eye(2), (E1, E2, E2))
    second = obs.exec_query(np.eye(2), (E1, E2, E2))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_exact_oracle_accepts_itself(demo2d_system):
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    assert eq.check(demo2d_system) is None
    assert eq.stats.equivalence_queries == 1


def test_exact_oracle_rejects_three_node_hypothesis(demo2d_system):
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    cex = eq.check(make_three_node_hypothesis())
    assert cex is not None and len(cex) == 3


def test_exact_oracle_accepts_four_node_hypothesis(demo2d_system):
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    assert eq.check(make_four_node_hypothesis()) is None


def test_exact_oracle_alphabet_mismatch(demo2d_system):
    eq = WhiteBoxEquivalenceOracle(demo2d_system)
    other = SwitchedSystem(
        fa=Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("go",)),
              delta=((0,),), gamma=(0,)),
        matrices=(np.eye(2),), d=2)
    with pytest.raises(AlphabetMismatch):
        eq.check(other)


def test_bounded_oracle_accepts_hidden_itself(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, l_max=6)
    assert eq.check(demo2d_system) is None


def test_bounded_oracle_finds_short_counterexample(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, l_max=6)
    hyp = make_three_node_hypothesis()
    cex = eq.check(hyp)
    assert cex is not None and len(cex) <= 3
    observed = compute_output(obs, cex)
    claimed = hyp.matrices[output_of(hyp.fa, cex)]
    assert not mat_approx_eq(observed, claimed, 1e-6)


def test_bounded_oracle_depth_zero_checks_initial_label(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, l_max=0)
    assert eq.check(make_three_node_hypothesis()) is None


def test_bounded_oracle_never_exceeds_depth(demo2d_system):
    # the shortest counterexample has length 3; searching to depth 2 finds
    # nothing, an unsound "equivalent" verdict by design
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, l_max=2)
    assert eq.check(make_three_node_hypothesis()) is None


def test_deep_search_that_ends_early_asks_the_reference_queries(demo2d_system):
    # the words of lengths up to 70 would number 2^71, yet the search ends
    # at the first counterexample, of length 3, as the reference's does
    hypothesis = make_three_node_hypothesis()
    outcome = recorded_check(BoundedTestingEquivalenceOracle.check, demo2d_system, hypothesis,
                             70, None)
    assert len(outcome[0]) == 3
    assert outcome == recorded_check(reference_check, demo2d_system, hypothesis, 70, None)


def test_counterexamples_are_genuine(demo2d_system):
    hyp = make_three_node_hypothesis()
    obs = WhiteBoxObservationOracle(demo2d_system)
    for eq in (WhiteBoxEquivalenceOracle(demo2d_system),
               BoundedTestingEquivalenceOracle(obs, l_max=5)):
        cex = eq.check(hyp)
        assert cex is not None
        observed = compute_output(obs, cex)
        claim = hyp.matrices[output_of(hyp.fa, cex)]
        assert not mat_approx_eq(observed, claim, 1e-6)


# distinct, well separated matrices shared by both randomly drawn systems so
# that matrix comparison at tolerance coincides with label-id equality
_POOL = tuple(np.diag([float(k + 1), float(k + 2)]) for k in range(4))


@st.composite
def pooled_system(draw, max_nodes=3):
    num_nodes = draw(st.integers(1, max_nodes))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    fa = Fa(num_nodes=num_nodes, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=tuple(tuple(int(t) for t in rng.integers(0, num_nodes, 2))
                        for _ in range(num_nodes)),
            gamma=tuple(int(g) for g in rng.integers(0, len(_POOL), num_nodes)))
    return SwitchedSystem(fa=fa, matrices=_POOL, d=2)


@settings(max_examples=50, deadline=None)
@given(pooled_system(), pooled_system())
def test_exact_verdict_matches_exhaustive_comparison(hidden, hypothesis):
    verdict = WhiteBoxEquivalenceOracle(hidden).check(hypothesis)
    bound = hidden.fa.num_nodes * hypothesis.fa.num_nodes
    mismatch = None
    for length in range(bound + 1):
        for word in itertools.product((0, 1), repeat=length):
            if output_of(hidden.fa, word) != output_of(hypothesis.fa, word):
                mismatch = word
                break
        if mismatch is not None:
            break
    assert (verdict is None) == (mismatch is None)
    if verdict is not None:
        assert len(verdict) == len(mismatch)


def label_distance(hidden, hypothesis, word):
    """Max-abs distance between the hidden output of word and the
    hypothesis's label of it."""
    return np.abs(hidden.matrices[output_of(hidden.fa, word)]
                  - hypothesis.matrices[output_of(hypothesis.fa, word)]).max()


def words_up_to(num_events, l_max):
    """The words up to length l_max in length-lex order."""
    for length in range(l_max + 1):
        yield from itertools.product(range(num_events), repeat=length)


def search_outcome(hidden, hypothesis, l_max, make_obs=WhiteBoxObservationOracle):
    """(verdict or error, output computations, io queries) of one bounded
    search on a fresh observation oracle for hidden. A returned word must
    be a true counterexample: its hidden output differs from the
    hypothesis's label by more than the tolerance."""
    obs = make_obs(hidden)
    try:
        verdict = BoundedTestingEquivalenceOracle(obs, l_max).check(hypothesis)
    except (SwitchLearnError, OSError) as exc:
        verdict = (type(exc), str(exc))
    else:
        assert verdict is None or label_distance(hidden, hypothesis, verdict) > LABEL_TOL
    return verdict, obs.stats.output_computations, obs.stats.io_queries


def random_matrix(rng, d):
    """A random d x d matrix, sometimes with one singular value small enough
    that products of a few of them are numerically singular."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = rng.uniform(0.5, 2.0, d)
    if rng.random() < 0.6:
        sigma[-1] = 10.0 ** -rng.integers(4, 8)
    return u @ np.diag(sigma) @ v.T


def random_fa(rng, num_nodes, num_events, num_labels):
    return Fa(num_nodes=num_nodes, initial=0,
              alphabet=EventAlphabet(tuple(f"e{i}" for i in range(num_events))),
              delta=tuple(tuple(int(t) for t in rng.integers(0, num_nodes, num_events))
                          for _ in range(num_nodes)),
              gamma=tuple(int(g) for g in rng.integers(0, num_labels, num_nodes)))


def prefix_condition(system, word):
    """Condition number of the product of system's labels along the proper
    prefixes of word: the map from a trace's start to word's state before
    its last step."""
    product = np.eye(system.d)
    for length in range(len(word)):
        product = system.matrices[output_of(system.fa, word[:length])] @ product
    return np.linalg.cond(product)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), num_events=st.integers(1, 3),
       l_max=st.integers(0, 6),
       hypothesis_kind=st.sampled_from(["same", "relabel", "perturb", "random"]))
def test_bounded_check_is_sound_and_complete(seed, d, num_events, l_max, hypothesis_kind):
    rng = np.random.default_rng(seed)
    num_labels = int(rng.integers(1, 4))
    matrices = tuple(random_matrix(rng, d) for _ in range(num_labels))
    fa = random_fa(rng, int(rng.integers(1, 5)), num_events, num_labels)
    hidden = SwitchedSystem(fa=fa, matrices=matrices, d=d)
    if hypothesis_kind == "relabel":
        # one node's label moved to another matrix (or to a new one); the
        # initial node's only when it is the only node
        node = int(rng.integers(1, fa.num_nodes)) if fa.num_nodes > 1 else 0
        gamma = list(fa.gamma)
        gamma[node] = (gamma[node] + 1) % (num_labels + 1)
        fa = Fa(num_nodes=fa.num_nodes, initial=0, alphabet=fa.alphabet,
                delta=fa.delta, gamma=tuple(gamma))
        matrices = matrices + (random_matrix(rng, d),)
    elif hypothesis_kind == "perturb":
        # one matrix off by just above or just within the label tolerance
        label = int(rng.integers(num_labels))
        delta = np.zeros((d, d))
        delta[rng.integers(d), rng.integers(d)] = rng.choice([-1, 1]) * rng.choice([5e-7, 2e-6])
        matrices = tuple(m + delta if k == label else m for k, m in enumerate(matrices))
    elif hypothesis_kind == "random":
        # agreeing on the empty word, so that the search goes on
        other = random_fa(rng, int(rng.integers(1, 5)), num_events, num_labels)
        fa = Fa(num_nodes=other.num_nodes, initial=0, alphabet=other.alphabet,
                delta=other.delta, gamma=(fa.gamma[0],) + other.gamma[1:])
    hypothesis = SwitchedSystem(fa=fa, matrices=matrices, d=d)
    # sound: search_outcome checks any returned word, and no search here fails
    verdict, outputs, io = search_outcome(hidden, hypothesis, l_max)
    assert verdict is None or all(isinstance(event, int) for event in verdict)
    if hypothesis_kind in ("relabel", "random"):
        # complete: the labels of both systems are the same matrices up to
        # the first word that differs, so its state before the last step is
        # its random column, up to the rounding of the prefix product
        words = list(words_up_to(num_events, l_max))
        differing = [rank for rank, word in enumerate(words)
                     if label_distance(hidden, hypothesis, word) > LABEL_TOL]
        if not differing:
            assert (verdict, outputs) == (None, len(words))
        elif prefix_condition(hidden, words[differing[0]]) < 1e8:
            assert (verdict, outputs) == (words[differing[0]], differing[0] + 1)


class RecordingLabelEq:
    """Max-abs closeness at LABEL_TOL that records every pair of matrices
    it compares, by object, in call order."""

    def __init__(self):
        self.pairs = []

    def __call__(self, a, b):
        self.pairs.append((id(a), id(b)))
        return mat_approx_eq(a, b, LABEL_TOL)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_events=st.integers(1, 3),
       hypothesis_kind=st.sampled_from(["same", "relabel", "redirect", "random"]))
def test_exact_check_compares_each_label_pair_once(seed, num_events, hypothesis_kind):
    rng = np.random.default_rng(seed)
    num_labels = int(rng.integers(1, 6))
    matrices = tuple(random_matrix(rng, 2) for _ in range(num_labels))
    fa = random_fa(rng, int(rng.integers(1, 12)), num_events, num_labels)
    hidden = SwitchedSystem(fa=fa, matrices=matrices, d=2)
    gamma, delta = list(fa.gamma), [list(targets) for targets in fa.delta]
    node = int(rng.integers(fa.num_nodes))
    if hypothesis_kind == "relabel":  # one node's label moved to another or a new matrix
        gamma[node] = (gamma[node] + 1) % (num_labels + 1)
        matrices = matrices + (random_matrix(rng, 2),)
    elif hypothesis_kind == "redirect":  # one transition moved to another node
        delta[node][int(rng.integers(num_events))] = int(rng.integers(fa.num_nodes))
    elif hypothesis_kind == "random":
        other = random_fa(rng, int(rng.integers(1, 12)), num_events, num_labels)
        gamma, delta = list(other.gamma), [list(targets) for targets in other.delta]
    hypothesis = SwitchedSystem(
        fa=Fa(num_nodes=len(gamma), initial=0, alphabet=fa.alphabet,
              delta=tuple(map(tuple, delta)), gamma=tuple(gamma)),
        matrices=matrices, d=2)
    unmemoized = RecordingLabelEq()
    expected = language_equivalent(
        hidden.fa, hypothesis.fa,
        lambda i, j: unmemoized(hidden.matrices[i], hypothesis.matrices[j]))
    label_eq = RecordingLabelEq()
    eq = WhiteBoxEquivalenceOracle(hidden, label_eq=label_eq)
    for _ in range(2):  # each check compares its pairs afresh
        label_eq.pairs.clear()
        assert eq.check(hypothesis) == expected
        assert len(label_eq.pairs) == len(set(label_eq.pairs))
        assert set(label_eq.pairs) == set(unmemoized.pairs)


def test_exact_check_propagates_a_label_eq_error(demo2d_system):
    seen = []

    def label_eq(a, b):
        if seen:
            raise RuntimeError("comparison failed")
        seen.append((a, b))
        return mat_approx_eq(a, b)

    eq = WhiteBoxEquivalenceOracle(demo2d_system, label_eq=label_eq)
    with pytest.raises(RuntimeError, match="comparison failed"):
        eq.check(make_three_node_hypothesis())
    assert len(seen) == 1 and eq.stats.equivalence_queries == 1


def test_full_search_traces_one_column_per_word(demo2d_system):
    # one trace query of one column for each of the 127 words up to length 6
    obs = WhiteBoxObservationOracle(demo2d_system)
    calls = []
    query = obs.exec_query
    obs.exec_query = lambda x0, word: calls.append(word) or query(x0, word)
    assert BoundedTestingEquivalenceOracle(obs, 6).check(demo2d_system) is None
    assert len(calls) == 127
    assert (obs.stats.output_computations, obs.stats.io_queries) == (127, 127)


def test_repeated_checks_make_the_same_queries(demo2d_system):
    # the columns are drawn afresh from the same seed in each check, so
    # checking twice on one oracle traces the same starts and counts the same
    obs = WhiteBoxObservationOracle(demo2d_system)
    calls = []
    query = obs.exec_query
    obs.exec_query = lambda x0, word: calls.append((x0.copy(), word)) or query(x0, word)
    eq = BoundedTestingEquivalenceOracle(obs, 4)
    outcomes = []
    for _ in range(2):
        calls.clear()
        before = (obs.stats.output_computations, obs.stats.io_queries)
        verdict = eq.check(make_three_node_hypothesis())
        outcomes.append((verdict, obs.stats.output_computations - before[0],
                         obs.stats.io_queries - before[1],
                         [(x0.tobytes(), word) for x0, word in calls]))
    assert outcomes[0][0] is not None
    assert outcomes[0] == outcomes[1]


def test_difference_in_a_contracted_direction_is_found():
    # the labels along (0, 0, 0, 0) shrink the second coordinate by 1e-12,
    # and the last node's labels differ only in what they do to it; each
    # column starts from the hypothesis's inverse product along its word's
    # prefixes, so the state before the last step is its random column
    # again, and the difference of 0.01 shows
    fa = Fa(num_nodes=5, initial=0, alphabet=EventAlphabet(("a",)),
            delta=((1,), (2,), (3,), (4,), (4,)), gamma=(0, 0, 0, 0, 1))
    shrink = np.diag([1.0, 1e-3])
    hidden = SwitchedSystem(fa=fa, matrices=(shrink, np.eye(2)), d=2)
    hypothesis = SwitchedSystem(fa=fa, matrices=(shrink, np.array([[1.0, 0.01], [0.0, 1.0]])),
                                d=2)
    # from an unpreconditioned start the state before the last step of
    # (0, 0, 0, 0) is A^4 x0, whose second entry is 1e-12 of x0's, far below
    # tol * ||x||_1
    assert search_outcome(hidden, hypothesis, 6) == ((0, 0, 0, 0), 5, 5)


def test_one_event_alphabet_makes_one_trace_per_word():
    hidden = SwitchedSystem(
        fa=Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("go",)),
              delta=((1,), (0,)), gamma=(0, 1)),
        matrices=(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])),
        d=2)
    obs = WhiteBoxObservationOracle(hidden)
    calls = []
    query = obs.exec_query
    obs.exec_query = lambda x0, word: calls.append(word) or query(x0, word)
    assert BoundedTestingEquivalenceOracle(obs, 7).check(hidden) is None
    assert calls == [(0,) * length for length in range(8)]
    assert (obs.stats.output_computations, obs.stats.io_queries) == (8, 8)


def singular_at_length_three():
    # event 1 loops on the initial node, whose matrix shrinks one direction
    # by 1e-5: the product along the prefixes of (1, 1, 0) is that matrix
    # cubed, with a pivot of 1e-15, which the bounded oracle's
    # preconditioned start columns undo
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("a", "b")),
            delta=((1, 0), (1, 1)), gamma=(0, 1))
    return SwitchedSystem(fa=fa, matrices=(np.diag([1.0, 1e-5]),
                                           np.array([[1.0, 1.0], [-1.0, 1.0]])), d=2)


def infinite_after_b_a():
    # node 2, first reached by (1, 0), has an infinite label entry: the
    # state after the last step of (1, 0) is not finite
    fa = Fa(num_nodes=3, initial=0, alphabet=EventAlphabet(("a", "b")),
            delta=((0, 1), (2, 1), (2, 2)), gamma=(0, 1, 2))
    return SwitchedSystem(fa=fa, matrices=(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                           np.array([[0.0, 1.0], [1.0, 0.0]]),
                                           np.array([[1.0, np.inf], [0.0, 1.0]])), d=2)


def test_non_finite_state_raised_after_earlier_words_are_counted():
    # the words of an ill-conditioned prefix product are checked, not refused:
    # each state before the last step is about its random column
    hidden = singular_at_length_three()
    assert search_outcome(hidden, hidden, 5) == (None, 63, 63)
    # (), (0,), (1,), (0, 0) and (0, 1) agree, then (1, 0) fails, whether
    # the hypothesis claims the infinite label or a finite one
    hidden = infinite_after_b_a()
    finite = SwitchedSystem(fa=hidden.fa, matrices=hidden.matrices[:2] + (np.eye(2),), d=2)
    for claimed in (hidden, finite):
        with np.errstate(invalid="ignore"):
            verdict, outputs, _ = search_outcome(hidden, claimed, 4)
        assert (verdict, outputs) == ((SingularBasis, "trace state of word (1, 0) before or "
                                       "after its last step is not finite"), 6)
    # a counterexample ahead of it, (1,), still wins
    relabelled = Fa(num_nodes=3, initial=0, alphabet=hidden.fa.alphabet,
                    delta=hidden.fa.delta, gamma=(0, 0, 2))
    claimed = SwitchedSystem(fa=relabelled, matrices=hidden.matrices, d=2)
    with np.errstate(invalid="ignore"):
        assert search_outcome(hidden, claimed, 4)[:2] == ((1,), 3)


def overflowing_chain(claims):
    """A one-dimensional system over events a and b: b walks 0 -> 1 -> 2,
    and a or b from node 2 on reach node 3, with the labels claims."""
    fa = Fa(num_nodes=4, initial=0, alphabet=EventAlphabet(("a", "b")),
            delta=((0, 1), (1, 2), (3, 3), (3, 3)), gamma=(0, 1, 2, 3))
    return SwitchedSystem(fa=fa, matrices=tuple(np.array([[c]]) for c in claims), d=1)


def test_overflowed_state_before_the_last_step_is_raised_not_passed():
    # the hypothesis's zero label at node 2 has no inverse, so (1, 1, 0)
    # starts from its random column itself, and the hidden labels 1e200 at
    # nodes 0 and 1 overflow its state x before the last step; node 3's
    # claimed -1 against the hidden 1 makes its residual inf, as is its
    # bound tol * ||x||_1, and inf <= inf must not pass it: it is raised
    # once the six words of its run before it are compared, as word by word
    hidden = overflowing_chain((1e200, 1e200, 1e-7, 1.0))
    hypothesis = overflowing_chain((1e200, 1e200, 0.0, -1.0))
    raised = (SingularBasis, "trace state of word (1, 1, 0) before or after its last step "
              "is not finite")
    for make_obs in (WhiteBoxObservationOracle, LoopingObservationOracle):
        assert search_outcome(hidden, hypothesis, 4, make_obs) == (raised, 7 + 7, 7 + 8)
    outcome = recorded_check(BoundedTestingEquivalenceOracle.check, hidden, hypothesis, 4, None)
    assert outcome == recorded_check(reference_check, hidden, hypothesis, 4, None)


def test_counterexample_before_singular_basis_wins():
    # the hypothesis disagrees on (0, 0, 0) only, ahead of (1, 1, 0), whose
    # prefix product is singular to 1e-15
    hidden = singular_at_length_three()
    fa = Fa(num_nodes=5, initial=0, alphabet=hidden.fa.alphabet,
            delta=((1, 0), (2, 4), (3, 4), (4, 4), (4, 4)), gamma=(0, 1, 1, 2, 1))
    hypothesis = SwitchedSystem(fa=fa, matrices=hidden.matrices + (np.eye(2),), d=2)
    assert search_outcome(hidden, hypothesis, 5)[:2] == ((0, 0, 0), 8)


def test_trace_error_raised_after_earlier_words_are_compared(demo2d_system):
    # a hypothesis alphabet larger than the hidden one: the first word with
    # event 2 cannot be traced, unless an earlier word is a counterexample
    three = EventAlphabet(("e1", "e2", "e3"))
    agreeing = Fa(num_nodes=4, initial=0, alphabet=three,
                  delta=tuple(row + (0,) for row in demo2d_system.fa.delta),
                  gamma=demo2d_system.fa.gamma)
    hypothesis = SwitchedSystem(fa=agreeing, matrices=demo2d_system.matrices, d=2)
    assert search_outcome(demo2d_system, hypothesis, 3)[:2] == (
        (InvalidEvent, "event index 2 out of range for 2 events"), 4)
    disagreeing = Fa(num_nodes=4, initial=0, alphabet=three, delta=agreeing.delta,
                     gamma=(0, 2, 1, 2))
    hypothesis = SwitchedSystem(fa=disagreeing, matrices=demo2d_system.matrices, d=2)
    assert search_outcome(demo2d_system, hypothesis, 3)[:2] == ((1,), 3)
    # an error from outside the package is deferred the same way: (1,) is
    # the first word whose trace fails, after () and (0,) are compared
    assert search_outcome(demo2d_system, demo2d_system, 3, OSErrorObservationOracle)[:2] == (
        (OSError, "trace lost"), 3)
    # and a counterexample ahead of it, (0,), still wins
    fa = demo2d_system.fa
    relabelled = Fa(num_nodes=4, initial=0, alphabet=fa.alphabet, delta=fa.delta,
                    gamma=(0, 1, 1, 0))
    hypothesis = SwitchedSystem(fa=relabelled, matrices=demo2d_system.matrices, d=2)
    assert search_outcome(demo2d_system, hypothesis, 3, OSErrorObservationOracle)[:2] == (
        (0,), 2)


class ShortTraceObservationOracle(WhiteBoxObservationOracle):
    """A trace oracle that refuses words longer than 3 events."""

    def exec_query(self, x0, word):
        if len(word) > 3:
            raise OSError("trace too long")
        return super().exec_query(x0, word)


def test_failing_chain_trace_is_not_charged_to_its_first_word(demo2d_system):
    # each of the 15 words up to length 3 is traced on one column and
    # compared; the first word of length 4 fails on its own trace, which is
    # not charged, and is counted
    assert search_outcome(demo2d_system, demo2d_system, 5, ShortTraceObservationOracle) == (
        (OSError, "trace too long"), 16, 15)


def test_singular_label_is_checked_before_untraceable_word():
    # the label diag(1, 1e-13) makes every basis after the empty word
    # singular; the words are checked on columns that the hypothesis's
    # inverse labels spread out again, so an equal hypothesis agrees, and a
    # hypothesis with one more event fails at (2,), which cannot be traced
    def one_node(names, matrix=np.diag([1.0, 1e-13])):
        fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(names),
                delta=((0,) * len(names),), gamma=(0,))
        return SwitchedSystem(fa=fa, matrices=(matrix,), d=2)
    hidden = one_node(("a", "b"))
    assert search_outcome(hidden, hidden, 2)[:2] == (None, 7)
    assert search_outcome(hidden, one_node(("a", "b", "c")), 2)[:2] == (
        (InvalidEvent, "event index 2 out of range for 2 events"), 4)
    # an exactly singular label has no inverse: the columns after the empty
    # word start from their random columns themselves
    singular = one_node(("a", "b"), np.ones((2, 2)))
    assert search_outcome(singular, singular, 3)[:2] == (None, 15)


def test_bounded_oracle_refuses_non_finite_empty_word_output():
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("a",)), delta=((1,), (0,)),
            gamma=(0, 1))
    hidden = SwitchedSystem(fa=fa, matrices=(np.array([[1.0, -np.inf], [0.0, 1.0]]),
                                             np.eye(2)), d=2)
    hypothesis = SwitchedSystem(fa=fa, matrices=(np.eye(2), np.eye(2)), d=2)
    for claimed in (hidden, hypothesis):
        with np.errstate(invalid="ignore"):
            outcome = search_outcome(hidden, claimed, 3)
        # the image of a random column has an infinite first entry
        assert outcome[:2] == ((SingularBasis, "trace state of word () before or after its "
                                "last step is not finite"), 1)


def test_bounded_oracle_rejects_hypothesis_of_other_dimension(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    hypothesis = SwitchedSystem(fa=demo2d_system.fa, matrices=(np.eye(1),) * 3, d=1)
    with pytest.raises(DimensionMismatch,
                       match="hypothesis has dimension 1, hidden states have dimension 2"):
        BoundedTestingEquivalenceOracle(obs, 3).check(hypothesis)
    assert obs.stats.io_queries == 0


@pytest.mark.parametrize("names", [("e1",), ("e2", "e1")])
def test_bounded_oracle_rejects_hypothesis_that_misses_or_reorders_hidden_events(
        demo2d_system, names):
    # a 2-node hypothesis that follows the demo model on e1: over e1 alone
    # it was accepted after 6 io, since e2 was never enumerated; with the
    # events swapped, event index 0 would trace the hidden e1 for its e2
    delta = ((1,), (0,)) if len(names) == 1 else ((0, 1), (1, 0))
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(names), delta=delta, gamma=(0, 2))
    hypothesis = SwitchedSystem(fa=fa, matrices=demo2d_system.matrices, d=2)
    obs = WhiteBoxObservationOracle(demo2d_system)
    eq = BoundedTestingEquivalenceOracle(obs, 5)
    with pytest.raises(AlphabetMismatch,
                       match=rf"alphabets differ: \('e1', 'e2'\) vs {re.escape(str(names))}"):
        eq.check(hypothesis)
    assert (obs.stats.io_queries, obs.stats.output_computations) == (0, 0)
    with pytest.raises(AlphabetMismatch):
        WhiteBoxEquivalenceOracle(demo2d_system).check(hypothesis)


@pytest.mark.parametrize("l_max", [-1, True, False, 2.0, "3", None, np.True_, np.False_,
                                   np.float64(2.0), np.int64(-1), np.array(3), np.array([3])])
def test_bounded_oracle_rejects_bad_depth(demo2d_system, l_max):
    obs = WhiteBoxObservationOracle(demo2d_system)
    with pytest.raises(ValueError, match="l_max"):
        BoundedTestingEquivalenceOracle(obs, l_max)


@pytest.mark.parametrize("l_max", [0, 3, np.int64(3), np.uint8(3), np.int32(0)])
def test_bounded_oracle_accepts_any_integer_depth(demo2d_system, l_max):
    # a numpy integer searches as deep as the int of its value
    obs = WhiteBoxObservationOracle(demo2d_system)
    assert BoundedTestingEquivalenceOracle(obs, l_max).check(demo2d_system) is None
    assert obs.stats.io_queries == 2 ** (int(l_max) + 1) - 1


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_equivalence_oracles_reject_bad_tol(demo2d_system, tol):
    obs = WhiteBoxObservationOracle(demo2d_system)
    with pytest.raises(ValueError, match="label tolerance"):
        BoundedTestingEquivalenceOracle(obs, 3, tol=tol)
    with pytest.raises(ValueError, match="label tolerance"):
        WhiteBoxEquivalenceOracle(demo2d_system, tol=tol)
    assert obs.stats.io_queries == 0


def reference_check(eq, hypothesis):
    """eq.check(hypothesis) word by word: the words of each length in lex
    order, each traced by one exec_query from its own (d, 1) column Ĥ⁻¹ r
    (r itself where that is not finite), with the r of a length drawn as
    the check draws them; a run's words are all traced, up to one whose
    query raises, before they are compared in order. Kept as the reference
    whose trace queries the check must repeat."""
    eq.stats.equivalence_queries += 1
    obs, fa, d = eq._obs, hypothesis.fa, hypothesis.d
    inverses = _inverses(np.stack(hypothesis.matrices))
    rng = np.random.default_rng(PROBE_SEED)
    for length in range(eq._l_max + 1):
        words = list(itertools.product(range(len(fa.alphabet)), repeat=length))
        r = rng.standard_normal((len(words), d))
        for begin in range(0, len(words), CHECK_BATCH):
            traced, error = [], None
            for word, column in zip(words[begin:begin + CHECK_BATCH], r[begin:]):
                prefix, node = identity(d), fa.initial
                for event in word:
                    prefix, node = prefix @ inverses[fa.gamma[node]], fa.delta[node][event]
                with np.errstate(all="ignore"):
                    start = prefix @ column
                if not np.isfinite(start).all():
                    start = column
                try:
                    states = obs.exec_query(start[:, None], word)
                except Exception as exc:
                    error = exc
                    break
                traced.append((word, fa.gamma[node], states[length][:, 0],
                               states[length + 1][:, 0]))
            for word, label, x, y in traced:
                obs.stats.output_computations += 1
                if not (np.isfinite(x).all() and np.isfinite(y).all()):
                    raise SingularBasis(f"trace state of word {word} before or after its "
                                        "last step is not finite")
                with np.errstate(all="ignore"):
                    residual = np.abs(y - hypothesis.matrices[label] @ x).max()
                    if residual > eq._tol * np.abs(x).sum():
                        return word
            if error is not None:
                obs.stats.output_computations += 1
                raise error
    return None


class RecordingObservationOracle(WhiteBoxObservationOracle):
    """A trace oracle that records the word and start of every trace query
    and refuses words longer than k events (none when k is None)."""

    def __init__(self, hidden, k=None):
        super().__init__(hidden)
        self.k = k
        self.calls = []

    def exec_query(self, x0, word):
        self.calls.append((word, x0.shape, x0.tobytes()))
        if self.k is not None and len(word) > self.k:
            raise OSError(f"cannot trace words longer than {self.k} events")
        return super().exec_query(x0, word)


def recorded_check(check, hidden, hypothesis, l_max, k):
    """(verdict or error, output computations, io queries, trace queries)
    of check(eq, hypothesis) for a bounded oracle on a fresh recording
    oracle for hidden."""
    obs = RecordingObservationOracle(hidden, k)
    try:
        with np.errstate(all="ignore"):  # traces through overflowing labels
            verdict = check(BoundedTestingEquivalenceOracle(obs, l_max), hypothesis)
    except (SwitchLearnError, OSError) as exc:
        verdict = (type(exc), str(exc))
    return verdict, obs.stats.output_computations, obs.stats.io_queries, obs.calls


def drawn_systems(seed, d, num_events, overflow, hypothesis_kind):
    """A random hidden system and a hypothesis for it, of the given kind:
    the system itself, one node relabelled, another random automaton, or
    the system with one label made singular (in both)."""
    rng = np.random.default_rng(seed)
    num_labels = int(rng.integers(1, 4))
    matrices = [random_matrix(rng, d) for _ in range(num_labels)]
    fa = random_fa(rng, int(rng.integers(1, 5)), num_events, num_labels)
    label = int(rng.integers(num_labels))
    if overflow:  # states can overflow two steps after this label
        matrices[label] *= 1e160
    if hypothesis_kind == "singular":  # the columns behind it start from r
        matrices[label][:, -1] = 0.0
    hidden = SwitchedSystem(fa=fa, matrices=tuple(matrices), d=d)
    if hypothesis_kind == "relabel":
        gamma = list(fa.gamma)
        node = int(rng.integers(fa.num_nodes))
        gamma[node] = (gamma[node] + 1) % (num_labels + 1)
        fa = Fa(num_nodes=fa.num_nodes, initial=0, alphabet=fa.alphabet, delta=fa.delta,
                gamma=tuple(gamma))
        matrices.append(random_matrix(rng, d))
    elif hypothesis_kind == "random":
        fa = random_fa(rng, int(rng.integers(1, 5)), num_events, num_labels)
    return hidden, SwitchedSystem(fa=fa, matrices=tuple(matrices), d=d)


def benchmark_systems(seed):
    """The blackbox-bounded workload's system of generator seed seed, and a
    copy whose last node has the next label."""
    hidden = random_system(GenConfig(5, 2, 3, 3, seed))
    fa = hidden.fa
    gamma = fa.gamma[:-1] + ((fa.gamma[-1] + 1) % len(hidden.matrices),)
    relabelled = SwitchedSystem(fa=Fa(num_nodes=fa.num_nodes, initial=fa.initial,
                                      alphabet=fa.alphabet, delta=fa.delta, gamma=gamma),
                                matrices=hidden.matrices, d=hidden.d)
    return hidden, relabelled


SYSTEM_DRAWS = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
                    num_events=st.integers(1, 3), l_max=st.integers(0, 7),
                    overflow=st.booleans(),
                    hypothesis_kind=st.sampled_from(["same", "relabel", "random", "singular"]))


@settings(max_examples=150, deadline=None)
@given(k=st.none() | st.integers(0, 7), **SYSTEM_DRAWS)
def test_bounded_check_asks_the_reference_queries(seed, d, num_events, l_max, k, overflow,
                                                  hypothesis_kind):
    hidden, hypothesis = drawn_systems(seed, d, num_events, overflow, hypothesis_kind)
    outcome = recorded_check(BoundedTestingEquivalenceOracle.check, hidden, hypothesis,
                             l_max, k)
    assert outcome == recorded_check(reference_check, hidden, hypothesis, l_max, k)


def test_bounded_check_passes_an_overflowing_copy_of_its_hidden_system():
    # a label scaled by 1e160 makes states near 1e160: the check's per-word
    # product C x is bit-identical to the hidden step, so every residual is
    # zero, where one GEMM per label rounds differently and shows a false
    # counterexample
    hidden, hypothesis = drawn_systems(0, 2, 2, True, "same")
    outcome = recorded_check(BoundedTestingEquivalenceOracle.check, hidden, hypothesis, 1, None)
    assert outcome[:3] == (None, 3, 3)
    assert outcome == recorded_check(reference_check, hidden, hypothesis, 1, None)


@pytest.mark.parametrize("seed", range(6))
def test_bounded_check_asks_the_reference_queries_at_the_benchmark_shape(seed):
    # the blackbox-bounded workload's systems at the `learn --eq bounded`
    # default depth 2n + 1 = 11 (the property test above stops at depth 7):
    # the hidden system itself and a relabelled copy
    hidden, relabelled = benchmark_systems(seed)
    for hypothesis, equivalent in ((hidden, True), (relabelled, False)):
        outcome = recorded_check(BoundedTestingEquivalenceOracle.check, hidden, hypothesis,
                                 11, None)
        assert (outcome[0] is None) == equivalent
        assert outcome == recorded_check(reference_check, hidden, hypothesis, 11, None)


class CheckCostOracle(BoundedTestingEquivalenceOracle):
    """A bounded oracle that records each check's io minus its output
    computations."""

    def __init__(self, obs, l_max):
        super().__init__(obs, l_max)
        self.excess = []

    def check(self, hypothesis):
        stats = self._obs.stats
        before = stats.io_queries - stats.output_computations
        try:
            return super().check(hypothesis)
        finally:
            self.excess.append(stats.io_queries - stats.output_computations - before)


@pytest.mark.parametrize("seed, counts", [(0, (4150, 4142, 3)), (1, (4125, 4118, 2)),
                                          (2, (4211, 4185, 4)), (3, (4142, 4134, 3)),
                                          (4, (4133, 4120, 2)), (5, (4126, 4119, 2))])
def test_black_box_learn_at_the_benchmark_shape_makes_the_pinned_queries(seed, counts):
    # the blackbox-bounded workload's systems learned through the bounded
    # check at the `learn --eq bounded` default depth 11: the io, output
    # computations and equivalence queries of the whole learn, not only of
    # its final check, and a model the exact check accepts; no check traces
    # more than the rest of one run past its last compared word
    hidden = random_system(GenConfig(5, 2, 3, 3, seed))
    obs = WhiteBoxObservationOracle(hidden)
    eq = CheckCostOracle(obs, 11)
    result = learn(obs, eq, hidden.fa.alphabet)
    stats = result.stats_dict()
    assert (stats["io_queries"], stats["output_computations"],
            stats["equivalence_queries"]) == counts
    assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
    assert len(eq.excess) == counts[2] and max(eq.excess) <= CHECK_BATCH - 1


@settings(max_examples=150, deadline=None)
@given(k=st.none() | st.integers(0, 7), **SYSTEM_DRAWS)
def test_bounded_check_traces_at_most_one_run_past_its_last_compared_word(
        seed, d, num_events, l_max, k, overflow, hypothesis_kind):
    # io beyond the compared words is bounded by the rest of the last run,
    # whether the run is traced in one call or word by word up to a refusal;
    # the search is steered towards checks that trace the most past them
    hidden, hypothesis = drawn_systems(seed, d, num_events, overflow, hypothesis_kind)
    _, outputs, io, _ = recorded_check(BoundedTestingEquivalenceOracle.check, hidden,
                                       hypothesis, l_max, k)
    (_, stacked_outputs, stacked_io), _ = traced_check(WhiteBoxObservationOracle, hidden,
                                                       hypothesis, l_max)
    excess = max(io - outputs, stacked_io - stacked_outputs)
    target(excess)
    assert excess <= CHECK_BATCH - 1


class LoopingObservationOracle(WhiteBoxObservationOracle):
    """A white-box oracle whose exec_query is its own, so that exec_runs
    makes its queries one at a time, as for any oracle that overrides it."""

    def exec_query(self, x0, word):
        return super().exec_query(x0, word)


def traced_check(make_obs, hidden, hypothesis, l_max):
    """(verdict or error, output computations, io queries) of one bounded
    check on a fresh make_obs(hidden), and the number of its trace calls."""
    obs, calls = make_obs(hidden), []
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls)
        try:
            with np.errstate(all="ignore"):  # traces through overflowing labels
                verdict = BoundedTestingEquivalenceOracle(obs, l_max).check(hypothesis)
        except SwitchLearnError as exc:
            verdict = (type(exc), str(exc))
    return (verdict, obs.stats.output_computations, obs.stats.io_queries), len(calls)


@settings(max_examples=150, deadline=None)
@given(**SYSTEM_DRAWS)
def test_stacked_check_equals_the_per_word_loop(seed, d, num_events, l_max, overflow,
                                                hypothesis_kind):
    # the systems of test_bounded_check_asks_the_reference_queries: the
    # white-box oracle traces each run in one call, the looping one word by
    # word, with the same verdict or error and the same counts
    hidden, hypothesis = drawn_systems(seed, d, num_events, overflow, hypothesis_kind)
    stacked, stacked_calls = traced_check(WhiteBoxObservationOracle, hidden, hypothesis, l_max)
    looped, looped_calls = traced_check(LoopingObservationOracle, hidden, hypothesis, l_max)
    assert stacked == looped
    assert stacked_calls <= looped_calls


@pytest.mark.parametrize("seed", range(6))
def test_stacked_check_equals_the_per_word_loop_at_the_benchmark_shape(seed):
    hidden, relabelled = benchmark_systems(seed)
    outcomes = {}
    for hypothesis in (hidden, relabelled):
        stacked, stacked_calls = traced_check(WhiteBoxObservationOracle, hidden, hypothesis, 11)
        looped, looped_calls = traced_check(LoopingObservationOracle, hidden, hypothesis, 11)
        assert stacked == looped
        outcomes[hypothesis] = stacked[0], stacked_calls, looped_calls
    # the hidden system's check traces all 4,095 words, which the white-box
    # oracle steps in one call per block of whole runs of 32 words of one
    # length, as many runs as fit GATHER_FLOATS floats of d=3 states
    verdict, stacked_calls, looped_calls = outcomes[hidden]
    assert (verdict, looped_calls) == (None, 4095)
    assert stacked_calls == len(benchmark_blocks()) == 19
    assert outcomes[relabelled][0] is not None


def benchmark_blocks():
    """The (words, length) shape of each block that the white-box oracle
    steps a full depth-11 bounded check's words in, at d=3 over two events:
    each block as many whole runs as fit GATHER_FLOATS floats of states."""
    blocks = []
    for length in range(12):
        block = max(1, GATHER_FLOATS // ((length + 2) * 3 * CHECK_BATCH)) * CHECK_BATCH
        blocks += [(min(block, 2**length - first), length)
                   for first in range(0, 2**length, block)]
    return blocks


class RefusingObservationOracle(ObservationOracle):
    """A trace oracle that is not white-box: it refuses every word that
    contains event 1, and charges one io query per column of the others."""

    def __init__(self, hidden):
        super().__init__()
        self._hidden = hidden
        self.words = []

    def exec_query(self, x0, word):
        self.words.append(word)
        if 1 in word:
            raise OSError("event 1 refused")
        self.stats.io_queries += x0.shape[1]
        return execute(self._hidden, x0, word)


def test_exec_runs_default_stops_at_the_first_refused_query(demo2d_system):
    # one run of all four words: the queries up to the refused one, and its
    # error, which ends the stream
    obs = RefusingObservationOracle(demo2d_system)
    words = np.array([[0, 0], [0, 0], [0, 1], [0, 0]], dtype=np.uint8)
    x0s = np.random.default_rng(3).standard_normal((4, 2))
    [(states, error)] = obs.exec_runs(x0s, words, 4)
    assert states.shape == (2, 4, 2)
    for x0, trace in zip(x0s, states):
        assert np.array_equal(np.stack(execute(demo2d_system, x0[:, None], (0, 0)))[..., 0],
                              trace)
    assert isinstance(error, OSError) and str(error) == "event 1 refused"
    assert obs.words == [(0, 0), (0, 0), (0, 1)]
    assert obs.stats.io_queries == 2
    # every query runs: no exception
    [(states, error)] = obs.exec_runs(x0s[:2], words[:2], 2)
    assert states.shape == (2, 4, 2) and error is None
    [(states, error)] = obs.exec_runs(x0s[2:], words[2:], 2)
    assert states.shape == (0, 4, 2) and isinstance(error, OSError)


def test_white_box_exec_runs_is_one_charged_query(demo2d_system):
    words = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    x0s = np.random.default_rng(4).standard_normal((3, 2))
    obs, looping = (make(demo2d_system)
                    for make in (WhiteBoxObservationOracle, LoopingObservationOracle))
    calls, queries, query = [], [], WhiteBoxObservationOracle.exec_query

    def recorded(self, x0, word, *trace):
        queries.append((self, np.shape(x0), np.shape(word), *map(np.shape, trace)))
        return query(self, x0, word, *trace)
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls)
        patch.setattr(WhiteBoxObservationOracle, "exec_query", recorded)
        [(states, error)], [(looped, looped_error)] = (o.exec_runs(x0s, words, 3)
                                                       for o in (obs, looping))
    # one trace of the whole array, charged by one query of its states, then
    # three traces of one word each, each its own query
    assert [np.shape(word) for word in calls] == [(3, 2), (2,), (2,), (2,)]
    assert queries == [(obs, (2, 3), (3, 2), (3, 4, 2))] + [(looping, (2, 1), (2,))] * 3
    assert error is looped_error is None
    assert np.array_equal(states, looped)
    assert obs.stats.io_queries == looping.stats.io_queries == 3
    # a word with an event that is not hidden is traced through the loop,
    # so the queries before it are charged and the ones after it are not
    words[1, 0] = 2
    for o in (obs, looping):
        [(states, error)] = o.exec_runs(x0s, words, 3)
        assert states.shape == (1, 4, 2) and isinstance(error, InvalidEvent)
    assert obs.stats.io_queries == looping.stats.io_queries == 3 + 2


def test_words_of_each_length_extend_the_shorter_ones():
    # every word of a length in lex order, one row each, in the least
    # unsigned type that holds an event
    for events in (1, 2, 3, 300):
        words = np.zeros((1, 0), dtype=np.min_scalar_type(events - 1))
        for length in range(1, 5 if events < 300 else 3):
            words = oracle._words(words, events)
            expected = np.array(list(itertools.product(range(events), repeat=length)),
                                dtype=np.min_scalar_type(events - 1))
            assert words.dtype == expected.dtype and words.tobytes() == expected.tobytes()


def run_outcomes(obs, x0s, words, size):
    """Each run of obs.exec_runs(x0s, words, size) as (states shape, the
    bytes of each word's states up to its own end, error type and message,
    io charged once the run is read)."""
    outcomes, begin = [], 0
    for states, error in obs.exec_runs(x0s, words, size):
        ends = [len(word) + 2 for word in words[begin:begin + len(states)]]
        outcomes.append((states.shape, [trace[:end].tobytes() for trace, end in zip(states, ends)],
                         error and (type(error), str(error)), obs.stats.io_queries))
        begin += size
    return outcomes


def drawn_runs(seed, d, num_events, n, length, mixed):
    """A random hidden system, n starts and n words for it: one (n, L)
    array, or a list of n words of lengths 0 to L, which the white-box
    oracle pads with zeros and the default with each word's last state."""
    hidden = random_system(GenConfig(num_nodes=4, num_events=num_events, num_labels=3,
                                     dim=d, seed=seed))
    rng = np.random.default_rng(seed)
    if mixed:
        words = [tuple(rng.integers(0, num_events, rng.integers(0, length + 1)).tolist())
                 for _ in range(n)]
    else:
        words = rng.integers(0, num_events, (n, length)).astype(np.min_scalar_type(num_events))
    return hidden, rng.standard_normal((n, d)), words


RUN_DRAWS = dict(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 3, 20]),
                 num_events=st.integers(1, 3), n=st.integers(0, 70), length=st.integers(0, 8),
                 size=st.integers(1, 40), mixed=st.booleans())


@settings(max_examples=100, deadline=None)
@given(**RUN_DRAWS)
def test_white_box_runs_equal_the_default_loop(seed, d, num_events, n, length, size, mixed):
    # one stacked trace per block of whole runs, then one charged
    # exec_query per run: the states of every run, bit for bit up to each
    # word's end, and the io after each, as the default's loop and the
    # word-by-word loop give them
    hidden, x0s, words = drawn_runs(seed, d, num_events, n, length, mixed)
    obs = WhiteBoxObservationOracle(hidden)
    runs = run_outcomes(obs, x0s, words, size)
    default = WhiteBoxObservationOracle(hidden)
    default.exec_runs = lambda *args: ObservationOracle.exec_runs(default, *args)
    assert len(runs) == -(-n // size)
    assert runs == run_outcomes(default, x0s, words, size)
    assert runs == run_outcomes(LoopingObservationOracle(hidden), x0s, words, size)


@settings(max_examples=100, deadline=None)
@given(**RUN_DRAWS)
def test_white_box_runs_across_block_boundaries_equal_the_default_loop(seed, d, num_events, n,
                                                                      length, size, mixed):
    # the property above with a budget of 64 floats, so that most streams
    # are stepped in several blocks of whole runs, and a run larger than
    # the budget is a block of its own; the stacked steps gather at most
    # 64 floats of label matrices at a time too
    hidden, x0s, words = drawn_runs(seed, d, num_events, n, length, mixed)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "GATHER_FLOATS", 64)
        record_traces(patch, calls, lambda system, x0s, words: len(words))
        runs = run_outcomes(WhiteBoxObservationOracle(hidden), x0s, words, size)
    longest = max(map(len, words), default=0) if mixed else length
    block = max(1, 64 // ((longest + 2) * d * size)) * size
    assert calls == [min(block, n - first) for first in range(0, n, block)]
    assert runs == run_outcomes(LoopingObservationOracle(hidden), x0s, words, size)


def test_white_box_runs_step_a_block_only_when_its_first_run_is_read():
    # 1,000 words of length 11 at d=3 in runs of 32: blocks of 13 runs, 416
    # words; reading the first run steps the first block and charges only
    # that run, and the rest of the block's states are dropped uncharged
    hidden = random_system(GenConfig(5, 2, 3, 3, 0))
    rng = np.random.default_rng(10)
    words = rng.integers(0, 2, (1000, 11)).astype(np.uint8)
    x0s = rng.standard_normal((1000, 3))
    calls, queries, query = [], [], WhiteBoxObservationOracle.exec_query

    def counted(self, x0, *args):
        queries.append(x0.shape[1])
        return query(self, x0, *args)
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls, lambda system, x0s, words: len(words))
        patch.setattr(WhiteBoxObservationOracle, "exec_query", counted)
        obs = WhiteBoxObservationOracle(hidden)
        runs = obs.exec_runs(x0s, words, CHECK_BATCH)
        assert (calls, queries, obs.stats.io_queries) == ([], [], 0)
        states, error = next(runs)
        assert (calls, queries, obs.stats.io_queries) == ([416], [32], 32)
        assert states.shape == (32, 13, 3) and error is None
        runs.close()
        assert (calls, queries, obs.stats.io_queries) == ([416], [32], 32)
        # read to the end: three blocks, 32 runs, every word charged once
        obs = WhiteBoxObservationOracle(hidden)
        assert len(list(obs.exec_runs(x0s, words, CHECK_BATCH))) == 32
    assert calls[1:] == [416, 416, 168] and obs.stats.io_queries == 1000
    assert queries[1:] == [32] * 31 + [8]


def traced_runs(make_obs, hidden, x0s, words, size):
    """run_outcomes on a fresh make_obs(hidden), and the words that were
    traced, one row of a word array at a time."""
    obs, calls = make_obs(hidden), []
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls)
        outcomes = run_outcomes(obs, x0s, words, size)
    return outcomes, [tuple(word) for words in calls
                      for word in (words.tolist() if np.ndim(words) == 2 else [words])]


def test_white_box_runs_with_an_event_that_is_not_hidden_are_the_default_loop(demo2d_system):
    # an event out of range in run 2 of 3, past the hidden ones or
    # negative, in a word array of an unsigned or signed type (numpy
    # indexes with a uint64 as with an int64, so 2**63 reads as negative
    # there) or in a list of words: the whole stream goes the default's
    # way, word by word up to the refused word, whose InvalidEvent ends
    # the stream; run 3 is never traced
    rng = np.random.default_rng(5)
    events = rng.integers(0, 2, (12, 3))
    x0s = rng.standard_normal((12, 2))
    for dtype, bad in ((np.uint8, 2), (np.int64, -1), (np.uint64, 2**63), (list, -1),
                       (list, 2)):
        words = events.astype(np.int64 if dtype is list else dtype)
        words[6, 1] = bad
        if dtype is list:
            words = list(map(tuple, words.tolist()))
        runs, traced = traced_runs(WhiteBoxObservationOracle, demo2d_system, x0s, words, 4)
        looped_runs, looped = traced_runs(LoopingObservationOracle, demo2d_system, x0s, words,
                                          4)
        assert runs == looped_runs
        assert traced == looped == [tuple(word) for word in np.asarray(words)[:7].tolist()]
        assert [run[0] for run in runs] == [(4, 5, 2), (2, 5, 2)]
        assert runs[1][2] == (InvalidEvent, f"event index {bad} out of range for 2 events")
        # the refused query is charged, as exec_query charges before it traces
        assert [run[3] for run in runs] == [4, 4 + 3]


def test_exec_runs_refuses_a_list_word_with_an_event_that_is_not_an_integer(demo2d_system):
    # a float event, integral or not, in a list word: both oracles trace
    # and charge the words before it, then charge and refuse its word with
    # InvalidEvent, as execute refuses it; a bool event reads as 0 or 1.
    # Over 2 events and over 300, whose event 299 no byte holds
    wide = random_system(GenConfig(num_nodes=3, num_events=300, num_labels=2, dim=2, seed=0))
    x0s = np.random.default_rng(11).standard_normal((4, 2))
    for hidden, last in ((demo2d_system, 1), (wide, 299)):
        for event in (1.5, 1.0, np.float64(0.0)):
            words = [(0, last), (last, 1), (event, 0), (0, 0)]
            runs, looped = (run_outcomes(make(hidden), x0s, words, 2)
                            for make in (WhiteBoxObservationOracle, LoopingObservationOracle))
            assert runs == looped
            assert [run[0] for run in runs] == [(2, 4, 2), (0, 4, 2)]
            assert runs[1][2:] == ((InvalidEvent, f"event {event!r} is not an integer"), 3)
        bools, ints = [(0, last), (True, False), (1, 0)], [(0, last), (1, 0), (1, 0)]
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            record_traces(patch, calls, lambda system, x0, words: np.shape(words))
            runs = run_outcomes(WhiteBoxObservationOracle(hidden), x0s[:3], bools, 3)
        # one stacked trace where a byte holds every event, else one per word
        assert calls == ([(3, 2)] if last < 256 else [(2,)] * 3)
        looped, read = (run_outcomes(LoopingObservationOracle(hidden), x0s[:3], words, 3)
                        for words in (bools, ints))
        assert runs == looped == read


def test_exec_runs_of_an_oracle_that_overrides_exec_query_is_lazy(demo2d_system):
    # each run is one exec_query per word, made only when the run is read;
    # the stream ends with the first run that has an error, after the words
    # before the refused one
    obs = RefusingObservationOracle(demo2d_system)
    words = np.array([[0, 0], [0, 0], [0, 0], [0, 1], [0, 0]], dtype=np.uint8)
    x0s = np.random.default_rng(6).standard_normal((5, 2))
    runs = obs.exec_runs(x0s, words, 2)
    assert obs.words == []
    states, error = next(runs)
    assert states.shape == (2, 4, 2) and error is None and obs.words == [(0, 0)] * 2
    states, error = next(runs)
    assert states.shape == (1, 4, 2) and str(error) == "event 1 refused"
    assert obs.words == [(0, 0)] * 3 + [(0, 1)] and obs.stats.io_queries == 3
    assert next(runs, None) is None
    assert obs.words == [(0, 0)] * 3 + [(0, 1)]
    # an instance's own exec_query sees every query too
    white = WhiteBoxObservationOracle(demo2d_system)
    query, seen = white.exec_query, []
    white.exec_query = lambda x0, word: seen.append(word) or query(x0, word)
    assert len(list(white.exec_runs(x0s, words, 2))) == 3
    assert seen == list(map(tuple, words.tolist()))


@pytest.mark.parametrize("make_obs", [WhiteBoxObservationOracle, LoopingObservationOracle,
                                      RefusingObservationOracle])
def test_exec_runs_refuses_starts_and_words_of_different_counts(demo2d_system, make_obs):
    # 3 starts for 2 words, or 2 for 3, as an array or a list: refused on
    # the stacked path and the default loop alike, before any query; so are
    # starts that are not an (n, d) array, one per word or not, a nested
    # list of one start per word included
    words = np.array([[0, 0], [1, 0], [0, 0]], dtype=np.uint8)
    x0s = np.random.default_rng(7).standard_normal((3, 2))
    obs, calls = make_obs(demo2d_system), []
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls)
        for starts, stack in ((x0s, words[:2]), (x0s[:2], words), (x0s, words.tolist()[:2])):
            with pytest.raises(DimensionMismatch, match="one start per word"):
                next(obs.exec_runs(starts, stack, 2))
        for starts in (x0s[:, 0], x0s[:2, 0], x0s[..., None], x0s[:, None], x0s[0, 0],
                       x0s.tolist()):
            for stack in (words, words.tolist()):
                with pytest.raises(DimensionMismatch, match=r"in an \(n, d\) array"):
                    next(obs.exec_runs(starts, stack, 2))
    assert calls == [] and obs.stats.io_queries == 0
    assert getattr(obs, "words", []) == []


@pytest.mark.parametrize("make_obs", [WhiteBoxObservationOracle, LoopingObservationOracle,
                                      RefusingObservationOracle])
def test_exec_runs_refuses_word_arrays_that_are_not_of_an_integer_type(demo2d_system, make_obs):
    # a float or bool array of events, empty or not, is refused with one
    # typed error before any query, on the stacked path and the default
    # loop alike: not traced as the events it compares equal to
    words = np.array([[0, 0], [1, 0], [0, 1]])
    x0s = np.random.default_rng(9).standard_normal((3, 2))
    obs, calls = make_obs(demo2d_system), []
    with pytest.MonkeyPatch.context() as patch:
        record_traces(patch, calls)
        for dtype in (float, bool, np.float32, object):
            for stack in (words.astype(dtype), words[:0].astype(dtype)):
                with pytest.raises(InvalidEvent, match=f"words of type {stack.dtype}: "
                                                       "events must be integers"):
                    next(obs.exec_runs(x0s[:len(stack)], stack, 2))
    assert calls == [] and obs.stats.io_queries == 0
    assert getattr(obs, "words", []) == []


@pytest.mark.parametrize("make_obs", [WhiteBoxObservationOracle, LoopingObservationOracle,
                                      RefusingObservationOracle])
def test_exec_runs_refuses_a_run_size_below_one(demo2d_system, make_obs):
    words = np.array([[0, 0], [1, 0]], dtype=np.uint8)
    x0s = np.random.default_rng(8).standard_normal((2, 2))
    obs = make_obs(demo2d_system)
    for size in (0, -1):
        for stack in (words, words.tolist(), words[:0]):
            with pytest.raises(ValueError, match=f"run size must be >= 1, got {size}"):
                next(obs.exec_runs(x0s[:len(stack)], stack, size))
    assert obs.stats.io_queries == 0 and getattr(obs, "words", []) == []


def test_depth_eleven_check_walks_the_hidden_automaton_once_per_block(monkeypatch):
    # the 4,095 words of a full check at the benchmark shape: one stacked
    # trace, which walks its words together, per block of whole runs of 32
    # words of one length, each block as many runs as fit GATHER_FLOATS
    # floats of states, and no single-word trace
    hidden = random_system(GenConfig(5, 2, 3, 3, 0))
    calls = []
    record_traces(monkeypatch, calls, lambda system, x0, words: np.shape(words))
    obs = WhiteBoxObservationOracle(hidden)
    assert BoundedTestingEquivalenceOracle(obs, 11).check(hidden) is None
    assert calls == benchmark_blocks()
    assert len(calls) == 19 and obs.stats.io_queries == 4095


def test_exec_query_wrapped_on_the_class_sees_every_io_column(monkeypatch):
    # perfbench counts io by wrapping WhiteBoxObservationOracle.exec_query
    # on the class, and its traced run checks that count against the io
    # charged: every charged column must pass through exec_query, all
    # 4,095 of a depth-11 check (in one call per run, the stacked way) and
    # every one of a black-box learn
    columns = []
    query = WhiteBoxObservationOracle.exec_query

    def counted(self, x0, *args, **kwargs):
        columns.append(np.shape(x0)[1] if np.ndim(x0) == 2 else 1)
        return query(self, x0, *args, **kwargs)
    monkeypatch.setattr(WhiteBoxObservationOracle, "exec_query", counted)
    hidden = random_system(GenConfig(5, 2, 3, 3, 0))
    obs = WhiteBoxObservationOracle(hidden)
    assert BoundedTestingEquivalenceOracle(obs, 11).check(hidden) is None
    assert (len(columns), sum(columns), obs.stats.io_queries) == (132, 4095, 4095)
    columns.clear()
    obs = WhiteBoxObservationOracle(hidden)
    learn(obs, BoundedTestingEquivalenceOracle(obs, 11), hidden.fa.alphabet)
    assert sum(columns) == obs.stats.io_queries == 4150
