import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlearn import (EPSILON, AlphabetMismatch, EventAlphabet, Fa,
                         InvalidEvent, SwitchedSystem, WhiteBoxEquivalenceOracle, execute,
                         WhiteBoxObservationOracle, format_word, language_equivalent,
                         language_of, learn, load_json, output_of, parse_word,
                         reachable_nodes, reachable_part, run, save_json, to_dot)

from conftest import DEMO2D_MATRICES, make_demo2d_fa, make_three_node_hypothesis

E1, E2 = 0, 1


@st.composite
def random_fa(draw, max_nodes=6, max_events=3, max_labels=4):
    num_nodes = draw(st.integers(1, max_nodes))
    num_events = draw(st.integers(1, max_events))
    num_labels = draw(st.integers(1, max_labels))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    return Fa(num_nodes=num_nodes, initial=0,
              alphabet=EventAlphabet(tuple(f"e{i+1}" for i in range(num_events))),
              delta=tuple(tuple(int(t) for t in rng.integers(0, num_nodes, num_events))
                          for _ in range(num_nodes)),
              gamma=tuple(int(g) for g in rng.integers(0, num_labels, num_nodes)))


@st.composite
def fa_and_word(draw, max_word=12, **kwargs):
    fa = draw(random_fa(**kwargs))
    word = tuple(draw(st.lists(st.integers(0, len(fa.alphabet) - 1),
                               max_size=max_word)))
    return fa, word


def brute_force_mismatch(fa1, fa2, max_len):
    for length in range(max_len + 1):
        for word in itertools.product(range(len(fa1.alphabet)), repeat=length):
            if output_of(fa1, word) != output_of(fa2, word):
                return word
    return None


def test_run_five_event_word(demo2d_fa):
    assert run(demo2d_fa, (E1, E2, E1, E2, E2)) == [0, 3, 2, 1, 0, 1]


def test_run_empty_word(demo2d_fa):
    assert run(demo2d_fa, EPSILON) == [0]


def test_run_invalid_event(demo2d_fa):
    with pytest.raises(InvalidEvent):
        run(demo2d_fa, (0, 7))


@pytest.mark.parametrize("read", [run, language_of, output_of])
def test_a_float_event_is_refused_by_name(demo2d_fa, read):
    # 1.0 passes check_word's set test (1.0 == 1); the walk refuses it
    with pytest.raises(InvalidEvent, match=r"^event 1\.0 is not an integer$"):
        read(demo2d_fa, (1.0, 0))
    assert read(demo2d_fa, (True, False)) == read(demo2d_fa, (1, 0))


# an event that no random_fa (at most 3 events) has: out of range, or a float
BAD_EVENT = st.one_of(st.integers(3, 9), st.integers(-3, -1), st.floats(-3, 9, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(fa_and_word(), st.lists(st.tuples(st.integers(0, 12), BAD_EVENT), min_size=1, max_size=3))
@example((make_demo2d_fa(), (E1,)), [(0, 7), (0, 1.5)])
def test_run_and_execute_name_the_first_bad_event_in_word_order(fa_word, inserts):
    # inserts: (position, bad event) pairs, inserted into the word in turn
    fa, word = fa_word
    word = list(word)
    for at, event in inserts:
        word.insert(at, event)
    num_events = len(fa.alphabet)
    first = next(e for e in word if isinstance(e, float) or not 0 <= e < num_events)
    message = (f"event {first!r} is not an integer" if isinstance(first, float)
               else f"event index {first} out of range for {num_events} events")
    system = SwitchedSystem(fa=fa, matrices=tuple(np.eye(1) * (label + 1)
                                                  for label in range(max(fa.gamma) + 1)), d=1)
    for walk in (lambda w: run(fa, w), lambda w: execute(system, np.ones(1), w)):
        with pytest.raises(InvalidEvent) as refused:
            walk(tuple(word))
        assert str(refused.value) == message


def test_language_five_event_word(demo2d_fa):
    assert language_of(demo2d_fa, (E1, E2, E1, E2, E2)) == [0, 2, 1, 1, 0, 1]


def test_language_empty_word(demo2d_fa):
    assert language_of(demo2d_fa, EPSILON) == [demo2d_fa.gamma[0]]


def test_output_five_event_word(demo2d_fa):
    assert output_of(demo2d_fa, (E1, E2, E1, E2, E2)) == 1


def test_output_two_event_word(demo2d_fa):
    # walk: q0 -e1-> q3 -e2-> q2, labelled with the shared middle label
    assert output_of(demo2d_fa, (E1, E2)) == 1


def test_output_empty_word(demo2d_fa):
    assert output_of(demo2d_fa, EPSILON) == demo2d_fa.gamma[0]


@settings(max_examples=80, deadline=None)
@given(fa_and_word())
def test_run_matches_independent_walk(case):
    fa, word = case
    node = fa.initial
    expected = [node]
    for e in word:
        node = fa.delta[node][e]
        expected.append(node)
    assert run(fa, word) == expected
    assert language_of(fa, word) == [fa.gamma[n] for n in expected]


@settings(max_examples=80, deadline=None)
@given(fa_and_word())
def test_run_and_language_lengths(case):
    fa, word = case
    assert len(run(fa, word)) == len(word) + 1
    assert len(language_of(fa, word)) == len(word) + 1
    assert output_of(fa, word) == language_of(fa, word)[-1]


@settings(max_examples=60, deadline=None)
@given(fa_and_word(max_word=8))
def test_run_composes_across_a_split(case):
    fa, word = case
    cut = len(word) // 2
    prefix, suffix = word[:cut], word[cut:]
    rerooted = Fa(num_nodes=fa.num_nodes, initial=run(fa, prefix)[-1],
                  alphabet=fa.alphabet, delta=fa.delta, gamma=fa.gamma)
    assert run(fa, word)[cut:] == run(rerooted, suffix)


def test_equivalent_to_itself(demo2d_fa):
    assert language_equivalent(demo2d_fa, demo2d_fa, lambda a, b: a == b) is None


def test_three_node_hypothesis_has_short_counterexample(demo2d_fa):
    hyp_fa = make_three_node_hypothesis().fa
    cex = language_equivalent(demo2d_fa, hyp_fa, lambda a, b: a == b)
    assert cex is not None and len(cex) == 3
    assert output_of(demo2d_fa, cex) != output_of(hyp_fa, cex)
    assert brute_force_mismatch(demo2d_fa, hyp_fa, 2) is None
    # deterministic: repeated checks return the same word
    assert cex == language_equivalent(demo2d_fa, hyp_fa, lambda a, b: a == b)


def test_alphabet_mismatch(demo2d_fa):
    other = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("go",)),
               delta=((0,),), gamma=(0,))
    with pytest.raises(AlphabetMismatch):
        language_equivalent(demo2d_fa, other, lambda a, b: a == b)


@settings(max_examples=40, deadline=None)
@given(random_fa(max_nodes=3, max_events=2), random_fa(max_nodes=3, max_events=2))
def test_equivalence_matches_exhaustive_search(fa1, fa2):
    if fa1.alphabet != fa2.alphabet:
        return  # only compare same-alphabet pairs
    bound = fa1.num_nodes * fa2.num_nodes
    expected = brute_force_mismatch(fa1, fa2, bound)
    got = language_equivalent(fa1, fa2, lambda a, b: a == b)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert len(got) == len(expected)  # both shortest
        assert output_of(fa1, got) != output_of(fa2, got)


@settings(max_examples=60, deadline=None)
@given(random_fa(), random_fa())
def test_counterexamples_are_genuine_and_shortest(fa1, fa2):
    if fa1.alphabet != fa2.alphabet:
        return
    got = language_equivalent(fa1, fa2, lambda a, b: a == b)
    flipped = language_equivalent(fa2, fa1, lambda a, b: a == b)
    assert (got is None) == (flipped is None)
    if got is not None:
        assert output_of(fa1, got) != output_of(fa2, got)
        assert brute_force_mismatch(fa1, fa2, len(got) - 1) is None


def test_reachable_part_keeps_language(demo2d_fa):
    trimmed = reachable_part(demo2d_fa)
    assert trimmed.num_nodes == demo2d_fa.num_nodes
    assert language_equivalent(demo2d_fa, trimmed, lambda a, b: a == b) is None


def test_reachable_part_drops_orphan(demo2d_fa):
    padded = Fa(num_nodes=5, initial=0, alphabet=demo2d_fa.alphabet,
                delta=demo2d_fa.delta + ((4, 4),),
                gamma=demo2d_fa.gamma + (0,))
    trimmed = reachable_part(padded)
    assert trimmed.num_nodes == 4
    assert language_equivalent(padded, trimmed, lambda a, b: a == b) is None


def test_reachable_nodes_in_discovery_order():
    # node 1 is unreachable from 0; breadth-first order from 0 is 0, 2, 4, 3
    delta = ((2, 0), (1, 1), (4, 3), (0, 2), (4, 4))
    for table in (delta, np.array(delta)):
        assert reachable_nodes(table, 0) == [0, 2, 4, 3]
        assert reachable_nodes(table, 3) == [3, 0, 2, 4]
        assert reachable_nodes(table, 1) == [1]
    assert all(type(node) is int for node in reachable_nodes(np.array(delta), 0))


@settings(max_examples=60, deadline=None)
@given(random_fa())
def test_reachable_part_renumbers_in_reachable_nodes_order(fa):
    order = reachable_nodes(fa.delta, fa.initial)
    assert reachable_nodes(np.array(fa.delta), fa.initial) == order
    trimmed = reachable_part(fa)
    assert trimmed.gamma == tuple(fa.gamma[node] for node in order)
    assert trimmed.delta == tuple(tuple(order.index(t) for t in fa.delta[node])
                                  for node in order)


@settings(max_examples=60, deadline=None)
@given(random_fa())
def test_reachable_part_preserves_language(fa):
    assert language_equivalent(fa, reachable_part(fa), lambda a, b: a == b) is None


def test_parse_and_format_word(demo2d_fa):
    alphabet = demo2d_fa.alphabet
    assert parse_word("e1 e2 e2", alphabet) == (0, 1, 1)
    assert parse_word("", alphabet) == EPSILON
    assert format_word((0, 1), alphabet) == "e1 e2"
    with pytest.raises(InvalidEvent):
        parse_word("e1 nope", alphabet)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10))
def test_word_round_trip(indices):
    alphabet = EventAlphabet(("e1", "e2"))
    word = tuple(indices)
    assert parse_word(format_word(word, alphabet), alphabet) == word


def test_dot_export_shape(demo2d_fa):
    dot = to_dot(demo2d_fa)
    node_lines = [ln for ln in dot.splitlines() if "shape=circle" in ln]
    edge_lines = [ln for ln in dot.splitlines()
                  if "->" in ln and "__start__" not in ln]
    assert len(node_lines) == 4
    assert len(edge_lines) == 8
    assert "__start__ -> q0" in dot
    assert 'label="q0 / A0"' in dot


def test_dot_export_escapes_event_names():
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(('a"b', "c\\")),
            delta=((0, 0),), gamma=(0,))
    edges = [ln for ln in to_dot(fa).splitlines() if ln.startswith("  q0 -> ")]
    assert edges == ['  q0 -> q0 [label="a\\"b"];', '  q0 -> q0 [label="c\\\\"];']


@pytest.mark.parametrize("name", ["", "a b", " a", "a\t", "a\nb", "a\u00a0b"])
def test_alphabet_rejects_names_no_word_can_use(name):
    # parse_word splits on whitespace, so it could never read such a name
    with pytest.raises(ValueError, match="empty or contains whitespace"):
        EventAlphabet(("e1", name))


def test_alphabet_from_any_sequence_is_a_tuple():
    listed = EventAlphabet(["e1", "e2"])
    assert listed.names == ("e1", "e2")
    assert listed == EventAlphabet(("e1", "e2"))
    assert hash(listed) == hash(EventAlphabet(("e1", "e2")))
    assert EventAlphabet(name for name in ("e1", "e2")) == listed


def test_alphabet_rejects_a_bare_string():
    # a string is a sequence of characters, so it would become one event each
    with pytest.raises(ValueError, match="not the string 'e1'"):
        EventAlphabet("e1")


@pytest.mark.parametrize("names", [[1, 2], ["e1", None], [b"e1"]])
def test_alphabet_rejects_names_that_are_not_strings(names):
    with pytest.raises(ValueError, match="must be strings"):
        EventAlphabet(names)


def test_list_alphabet_learns_against_a_loaded_model(demo2d_fa):
    fa = Fa(num_nodes=demo2d_fa.num_nodes, initial=0, alphabet=EventAlphabet(["e1", "e2"]),
            delta=demo2d_fa.delta, gamma=demo2d_fa.gamma)
    hidden = SwitchedSystem(fa=fa, matrices=DEMO2D_MATRICES, d=2)
    loaded = load_json(save_json(hidden))
    result = learn(WhiteBoxObservationOracle(hidden), WhiteBoxEquivalenceOracle(loaded),
                   fa.alphabet)
    assert result.system.fa.alphabet == loaded.fa.alphabet
    assert WhiteBoxEquivalenceOracle(loaded).check(result.system) is None


def test_fa_validation_rejects_bad_tables():
    alphabet = EventAlphabet(("e1",))
    with pytest.raises(ValueError):
        Fa(num_nodes=2, initial=0, alphabet=alphabet, delta=((0,),), gamma=(0, 0))
    with pytest.raises(ValueError):
        Fa(num_nodes=1, initial=0, alphabet=alphabet, delta=((5,),), gamma=(0,))
    with pytest.raises(ValueError):
        Fa(num_nodes=1, initial=3, alphabet=alphabet, delta=((0,),), gamma=(0,))
