import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlearn import (AlphabetMismatch, BoundedTestingEquivalenceOracle,
                         DimensionMismatch, EventAlphabet, Fa, InvalidEvent,
                         SingularBasis, SwitchedSystem, SwitchLearnError,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle,
                         compute_output, mat_approx_eq, output_of)

from conftest import (OSErrorObservationOracle, make_four_node_hypothesis,
                      make_three_node_hypothesis)

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


def word_by_word_check(obs, hypothesis, l_max, tol=1e-6):
    """The bounded search computing each word's output on its own."""
    num_events = len(hypothesis.fa.alphabet)
    for length in range(l_max + 1):
        for word in itertools.product(range(num_events), repeat=length):
            observed = compute_output(obs, word)
            claimed = hypothesis.matrices[output_of(hypothesis.fa, word)]
            if not mat_approx_eq(observed, claimed, tol):
                return word
    return None


def search_outcome(check, hidden, make_obs=WhiteBoxObservationOracle):
    """(verdict or error, output computations, io queries) of one search on
    a fresh observation oracle for hidden."""
    obs = make_obs(hidden)
    try:
        verdict = check(obs)
    except (SwitchLearnError, OSError) as exc:
        verdict = (type(exc), str(exc))
    return verdict, obs.stats.output_computations, obs.stats.io_queries


def assert_same_search(hidden, hypothesis, l_max, make_obs=WhiteBoxObservationOracle):
    chained = search_outcome(
        lambda obs: BoundedTestingEquivalenceOracle(obs, l_max).check(hypothesis),
        hidden, make_obs)
    reference = search_outcome(
        lambda obs: word_by_word_check(obs, hypothesis, l_max), hidden, make_obs)
    assert chained[:2] == reference[:2]
    return chained, reference


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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), num_events=st.integers(1, 3),
       l_max=st.integers(0, 6),
       hypothesis_kind=st.sampled_from(["same", "relabel", "perturb", "random"]))
def test_chained_check_matches_word_by_word_search(seed, d, num_events, l_max,
                                                   hypothesis_kind):
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
    assert_same_search(hidden, SwitchedSystem(fa=fa, matrices=matrices, d=d), l_max)


def test_full_search_traces_each_chain_once(demo2d_system):
    # one trace query per word ending in a non-zero event, plus the empty
    # word's: 2**6 traces of d=2 columns for all 127 words up to length 6
    chained, reference = assert_same_search(demo2d_system, demo2d_system, 6)
    assert chained == (None, 127, 128)
    assert reference == (None, 127, 254)


def test_one_event_alphabet_makes_one_trace():
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
    assert calls == [(0,) * 7]
    assert obs.stats.output_computations == 8


def singular_at_length_three():
    # event 1 loops on the initial node, whose matrix shrinks one direction
    # by 1e-5: the basis of (1, 1, 0) is that matrix cubed, with a pivot of
    # 1e-15; every shorter word and every word before it in its length
    # has a basis with pivots of 1e-10 or more
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("a", "b")),
            delta=((1, 0), (1, 1)), gamma=(0, 1))
    return SwitchedSystem(fa=fa, matrices=(np.diag([1.0, 1e-5]),
                                           np.array([[1.0, 1.0], [-1.0, 1.0]])), d=2)


def test_singular_basis_raised_after_word_by_word_count():
    hidden = singular_at_length_three()
    chained, _ = assert_same_search(hidden, hidden, 5)
    (error, message), outputs, _ = chained
    assert error is SingularBasis and "column 1" in message
    # 1 + 2 + 4 shorter words, then (0,0,0) .. (1,0,1) agree and (1,1,0) fails
    assert outputs == 7 + 7


def test_counterexample_before_singular_basis_wins():
    # the hypothesis disagrees on (0, 0, 0) only, ahead of the singular (1, 1, 0)
    hidden = singular_at_length_three()
    fa = Fa(num_nodes=5, initial=0, alphabet=hidden.fa.alphabet,
            delta=((1, 0), (2, 4), (3, 4), (4, 4), (4, 4)), gamma=(0, 1, 1, 2, 1))
    hypothesis = SwitchedSystem(fa=fa, matrices=hidden.matrices + (np.eye(2),), d=2)
    chained, _ = assert_same_search(hidden, hypothesis, 5)
    assert chained[:2] == ((0, 0, 0), 8)


def test_trace_error_raised_after_earlier_words_are_compared(demo2d_system):
    # a hypothesis alphabet larger than the hidden one: the first word with
    # event 2 cannot be traced, unless an earlier word is a counterexample
    three = EventAlphabet(("e1", "e2", "e3"))
    agreeing = Fa(num_nodes=4, initial=0, alphabet=three,
                  delta=tuple(row + (0,) for row in demo2d_system.fa.delta),
                  gamma=demo2d_system.fa.gamma)
    hypothesis = SwitchedSystem(fa=agreeing, matrices=demo2d_system.matrices, d=2)
    chained, _ = assert_same_search(demo2d_system, hypothesis, 3)
    assert chained[:2] == ((InvalidEvent, "event index 2 out of range for 2 events"), 4)
    disagreeing = Fa(num_nodes=4, initial=0, alphabet=three, delta=agreeing.delta,
                     gamma=(0, 2, 1, 2))
    hypothesis = SwitchedSystem(fa=disagreeing, matrices=demo2d_system.matrices, d=2)
    chained, _ = assert_same_search(demo2d_system, hypothesis, 3)
    assert chained[:2] == ((1,), 3)
    # an error from outside the package is deferred the same way: (1,) is
    # the first word whose trace fails, after () and (0,) are compared
    chained, _ = assert_same_search(demo2d_system, demo2d_system, 3,
                                    OSErrorObservationOracle)
    assert chained[:2] == ((OSError, "trace lost"), 3)
    # and a counterexample ahead of it, (0,), still wins
    fa = demo2d_system.fa
    relabelled = Fa(num_nodes=4, initial=0, alphabet=fa.alphabet, delta=fa.delta,
                    gamma=(0, 1, 1, 0))
    hypothesis = SwitchedSystem(fa=relabelled, matrices=demo2d_system.matrices, d=2)
    chained, _ = assert_same_search(demo2d_system, hypothesis, 3, OSErrorObservationOracle)
    assert chained[:2] == ((0,), 2)


class ShortTraceObservationOracle(WhiteBoxObservationOracle):
    """A trace oracle that refuses words longer than 3 events."""

    def exec_query(self, x0, word):
        if len(word) > 3:
            raise OSError("trace too long")
        return super().exec_query(x0, word)


def test_failing_chain_trace_is_not_charged_to_its_first_word(demo2d_system):
    # every chain of the depth-5 search is longer than 3 events, yet each of
    # the 15 words up to length 3 is traced alone and compared; the first
    # word of length 4 fails on its own trace, as word by word
    chained, _ = assert_same_search(demo2d_system, demo2d_system, 5,
                                    ShortTraceObservationOracle)
    assert chained[:2] == ((OSError, "trace too long"), 16)


def test_singular_basis_before_untraceable_word_wins():
    # (0,) has a singular basis and (2,) cannot be traced; (0,) comes first
    def one_node(names):
        fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(names),
                delta=((0,) * len(names),), gamma=(0,))
        return SwitchedSystem(fa=fa, matrices=(np.diag([1.0, 1e-13]),), d=2)
    chained, _ = assert_same_search(one_node(("a", "b")), one_node(("a", "b", "c")), 2)
    (error, _), outputs, _ = chained
    assert error is SingularBasis and outputs == 2


def test_bounded_oracle_refuses_non_finite_empty_word_output():
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("a",)), delta=((1,), (0,)),
            gamma=(0, 1))
    hidden = SwitchedSystem(fa=fa, matrices=(np.array([[1.0, -np.inf], [0.0, 1.0]]),
                                             np.eye(2)), d=2)
    hypothesis = SwitchedSystem(fa=fa, matrices=(np.eye(2), np.eye(2)), d=2)
    for claimed in (hidden, hypothesis):
        with np.errstate(invalid="ignore"):
            chained, _ = assert_same_search(hidden, claimed, 3)
        # the image of the identity: -inf * 0 makes entry (0, 0) NaN
        assert chained[:2] == ((SingularBasis, "recovered matrix is not finite: "
                                "entry (0, 0) is nan"), 1)


def test_bounded_oracle_rejects_hypothesis_of_other_dimension(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    hypothesis = SwitchedSystem(fa=demo2d_system.fa, matrices=(np.eye(1),) * 3, d=1)
    with pytest.raises(DimensionMismatch,
                       match="hypothesis has dimension 1, hidden states have dimension 2"):
        BoundedTestingEquivalenceOracle(obs, 3).check(hypothesis)
    assert obs.stats.io_queries == 0


@pytest.mark.parametrize("l_max", [-1, True, False, 2.0, "3", None])
def test_bounded_oracle_rejects_bad_depth(demo2d_system, l_max):
    obs = WhiteBoxObservationOracle(demo2d_system)
    with pytest.raises(ValueError, match="l_max"):
        BoundedTestingEquivalenceOracle(obs, l_max)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_equivalence_oracles_reject_bad_tol(demo2d_system, tol):
    obs = WhiteBoxObservationOracle(demo2d_system)
    with pytest.raises(ValueError, match="label tolerance"):
        BoundedTestingEquivalenceOracle(obs, 3, tol=tol)
    with pytest.raises(ValueError, match="label tolerance"):
        WhiteBoxEquivalenceOracle(demo2d_system, tol=tol)
    assert obs.stats.io_queries == 0
