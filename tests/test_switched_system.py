import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlearn import (DimensionMismatch, GenConfig, InvalidEvent, ParseError,
                         SwitchedSystem, ValidationError, Violation,
                         WhiteBoxObservationOracle, execute, language_of, load_json,
                         random_system, save_json, validate)

from switchlearn.oracle import _trace_words

from conftest import DEMO2D_MATRICES, make_demo2d_system

E1, E2 = 0, 1

DEMO_TRACE = [
    (0.5, 0.5),
    (0.65, 0.95),
    (1.445, 1.135),
    (1.486, -0.3305),
    (0.33, -1.2385),
    (-0.04155, -1.2552),
    (-1.02078, -0.724035),
]


def test_execute_five_event_trace(demo2d_system):
    states = execute(demo2d_system, np.array([0.5, 0.5]), (E1, E2, E1, E2, E2))
    assert len(states) == 7
    for state, expected in zip(states, DEMO_TRACE):
        assert np.max(np.abs(state - np.array(expected))) <= 1e-9


def test_execute_single_event(demo2d_system):
    states = execute(demo2d_system, np.array([1.0, 0.0]), (E1,))
    expected = [(1.0, 0.0), (1.0, 0.7), (1.69, 1.67)]
    for state, want in zip(states, expected):
        assert np.max(np.abs(state - np.array(want))) <= 1e-9


def test_execute_empty_word_applies_initial_label(demo2d_system):
    states = execute(demo2d_system, np.eye(2), ())
    assert len(states) == 2
    assert np.allclose(states[0], np.eye(2))
    assert np.allclose(states[1], DEMO2D_MATRICES[0])


def test_execute_checks_dimensions(demo2d_system):
    with pytest.raises(DimensionMismatch):
        execute(demo2d_system, np.zeros(3), (E1,))
    with pytest.raises(InvalidEvent):
        execute(demo2d_system, np.zeros(2), (9,))
    # a bad event anywhere in the word is refused, and the first one named
    for bad in (2, 9, -1):
        for at in range(3):
            word = [E1, E2, E1]
            word[at] = bad
            with pytest.raises(InvalidEvent, match=f"event index {bad} out of range"):
                execute(demo2d_system, np.eye(2), tuple(word) + (-5,))
    x0 = np.array([2.0, -1.0])
    states = execute(demo2d_system, x0, ())
    assert len(states) == 2
    assert np.array_equal(states[0], x0)
    assert np.array_equal(states[1], DEMO2D_MATRICES[0] @ x0)


def reference_execute(system, x0, word):
    """The states of word from x0, one `@` product per label of its run."""
    states = [x0]
    for label in language_of(system.fa, word):
        states.append(system.matrices[label] @ states[-1])
    return states


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 20), num_events=st.integers(1, 3),
       data=st.data(),
       x0_kind=st.sampled_from(["identity", "vector", "columns", "fortran columns"]))
def test_execute_matches_matmul_reference_bit_for_bit(seed, d, num_events, data, x0_kind):
    system = random_system(GenConfig(num_nodes=data.draw(st.integers(1, 6)),
                                     num_events=num_events,
                                     num_labels=data.draw(st.integers(1, 4)), dim=d,
                                     seed=seed))
    word = data.draw(st.lists(st.integers(0, num_events - 1), max_size=30))
    # some words carry out-of-range events, negative or past the last event
    bad = st.integers(-3, -1) | st.integers(num_events, num_events + 3)
    for at, event in data.draw(st.lists(st.tuples(st.integers(0, 30), bad), max_size=2)):
        word.insert(at, event)
    word = tuple(word)
    rng = np.random.default_rng(seed)
    x0 = {"identity": lambda: np.eye(d),
          "vector": lambda: rng.uniform(-1, 1, d),
          "columns": lambda: rng.uniform(-1, 1, (d, int(rng.integers(1, 5)))),
          "fortran columns": lambda: np.asfortranarray(rng.uniform(-1, 1, (d, 3)))}[x0_kind]()
    obs = WhiteBoxObservationOracle(system)
    invalid = [e for e in word if not 0 <= e < num_events]
    if invalid:  # both refuse the word, naming its first bad event
        for trace in (lambda: execute(system, x0, word), lambda: obs.exec_query(x0, word)):
            with pytest.raises(InvalidEvent) as refused:
                trace()
            assert str(refused.value) == (f"event index {invalid[0]} out of range "
                                          f"for {num_events} events")
        # the refused query is still charged, one io query per column
        assert obs.stats.io_queries == (x0.shape[1] if x0.ndim == 2 else 1)
        return
    expected = reference_execute(system, x0, word)
    for states in (execute(system, x0, word), obs.exec_query(x0, word)):
        assert len(states) == len(expected) == len(word) + 2
        for state, want in zip(states, expected):
            assert state.shape == want.shape and state.dtype == want.dtype
            assert state.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10), st.integers(1, 4))
def test_execute_length_and_columns(indices, k):
    system = make_demo2d_system()
    word = tuple(indices)
    x0 = np.random.default_rng(k).uniform(-1, 1, (2, k))
    states = execute(system, x0, word)
    assert len(states) == len(word) + 2
    # executing the block equals executing each column independently, up to
    # rounding: BLAS does not promise that a block product and its column
    # products sum in the same order
    for col in range(k):
        column_states = execute(system, x0[:, col], word)
        for block, single in zip(states, column_states):
            np.testing.assert_allclose(block[:, col], single, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(single)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10))
def test_execute_final_state_is_label_product(indices):
    # from the identity, the final states are the product of the matrices
    # along the run, the last-applied one leftmost; execute groups it from
    # the right, this reference from the left
    system = make_demo2d_system()
    word = tuple(indices)
    product = np.eye(2)
    for label in reversed(language_of(system.fa, word)):
        product = product @ system.matrices[label]
    final = execute(system, np.eye(2), word)[-1]
    np.testing.assert_allclose(final, product, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(product)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=10),
       st.integers(0, 10))
def test_execute_prefix_property(indices, cut):
    system = make_demo2d_system()
    word = tuple(indices)
    prefix = word[:min(cut, len(word))]
    x0 = np.array([0.25, -0.75])
    full = execute(system, x0, word)
    partial = execute(system, x0, prefix)
    # all but the last state of the prefix execution appear unchanged in the
    # longer one; the final state re-applies the label of the node reached
    for i in range(len(prefix) + 1):
        assert np.array_equal(full[i], partial[i])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 20), num_events=st.integers(1, 3),
       n=st.integers(0, 6), length=st.integers(0, 12),
       dtype=st.sampled_from([np.uint8, np.uint64, np.int64]))
def test_execute_of_a_word_array_equals_single_word_calls(seed, d, num_events, n, length, dtype):
    # the white-box oracle's stacked trace of a word array: row i reads
    # word i, and each state equals that of execute on its start as a
    # (d, 1) column bit for bit, since both step it with one BLAS product
    system = random_system(GenConfig(num_nodes=4, num_events=num_events, num_labels=3,
                                     dim=d, seed=seed))
    rng = np.random.default_rng(seed)
    words = rng.integers(0, num_events, (n, length)).astype(dtype)
    x0s = rng.uniform(-1, 1, (n, d))
    states = _trace_words(system, x0s, words)
    assert states.shape == (n, length + 2, d)
    for x0, word, trace in zip(x0s, words.tolist(), states):
        single = execute(system, x0[:, None], tuple(word))
        assert np.array_equal(np.stack(single)[..., 0], trace)


def test_execute_of_a_word_array_checks_its_columns_and_events(demo2d_system):
    # the stacked trace checks neither: exec_runs refuses starts that are
    # not one (n, d) row per word before any query, and hands a word array
    # with an event that is not hidden to the default loop, which names
    # the first out-of-range event in row order as execute names it
    words = np.array([[E1, E2], [E2, E1], [E1, E1]])
    obs = WhiteBoxObservationOracle(demo2d_system)
    for shape in ((4, 2), (2,), (2, 3), (6, 2)):
        with pytest.raises(DimensionMismatch, match="one start per word"):
            next(obs.exec_runs(np.zeros(shape), words, 3))
    assert list(obs.exec_runs(np.zeros((0, 2)), words[:0], 1)) == []
    assert _trace_words(demo2d_system, np.zeros((0, 2)), words[:0]).shape == (0, 4, 2)
    for bad in (2, -1):
        words[1, 1], words[2, 0] = bad, 7
        [(states, refused)] = obs.exec_runs(np.zeros((3, 2)), words, 3)
        with pytest.raises(InvalidEvent) as single:
            execute(demo2d_system, np.zeros(2), (E2, bad))
        assert len(states) == 1 and str(refused) == str(single.value) == (
            f"event index {bad} out of range for 2 events")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 3, 20]), num_events=st.integers(1, 3),
       n=st.integers(1, 40), length=st.integers(0, 9), cut=st.data())
def test_execute_steps_a_slice_of_a_larger_walk_as_its_own(seed, d, num_events, n, length, cut):
    # a run's rows of the states of one stacked trace of a larger array are
    # the states of a stacked trace of the run alone, bit for bit
    system = random_system(GenConfig(num_nodes=4, num_events=num_events, num_labels=3,
                                     dim=d, seed=seed))
    rng = np.random.default_rng(seed)
    words = rng.integers(0, num_events, (n, length)).astype(np.min_scalar_type(num_events))
    begin = cut.draw(st.integers(0, n - 1))
    end = cut.draw(st.integers(begin + 1, n))
    x0s = rng.uniform(-1, 1, (n, d))
    stepped = _trace_words(system, x0s, words)[begin:end]
    alone = _trace_words(system, x0s[begin:end], words[begin:end])
    assert stepped.tobytes() == alone.tobytes()


def test_execute_of_a_word_array_overflows_without_a_warning():
    # the stacked product ignores floating-point errors; pytest makes a
    # RuntimeWarning an error, so this would fail if it warned
    fa = make_demo2d_system().fa
    system = SwitchedSystem(fa=fa, matrices=(np.eye(2) * 1e200,) * 3, d=2)
    words = np.zeros((2, 3), dtype=int)
    states = _trace_words(system, np.ones((2, 2)), words)
    assert not np.isfinite(states[:, -1]).any()
    with np.errstate(all="ignore"):  # a single word's dot warns
        single = execute(system, np.ones((2, 1)), (0, 0, 0))
    assert np.array_equal(np.stack(single)[..., 0], states[0], equal_nan=True)


def test_validate_ok(demo2d_system):
    assert validate(demo2d_system) == []


def test_validate_flags_rank_deficiency(demo2d_system):
    broken = SwitchedSystem(fa=demo2d_system.fa,
                            matrices=DEMO2D_MATRICES[:2] + (np.zeros((2, 2)),),
                            d=2)
    assert validate(broken) == [Violation("rank_deficient_label", 2)]


def test_system_rejects_bad_dimension(demo2d_system):
    with pytest.raises(ValidationError, match=r"bad_dimension\(label=2\)") as exc:
        SwitchedSystem(fa=demo2d_system.fa, matrices=DEMO2D_MATRICES[:2] + (np.eye(3),), d=2)
    assert exc.value.violations == [Violation("bad_dimension", 2)]
    # a matrix no node names is still checked, and all are listed
    with pytest.raises(ValidationError) as exc:
        SwitchedSystem(fa=demo2d_system.fa,
                       matrices=(np.eye(1),) + DEMO2D_MATRICES[1:] + (np.ones((2, 3)),), d=2)
    assert exc.value.violations == [Violation("bad_dimension", 0), Violation("bad_dimension", 3)]


def test_system_rejects_missing_matrix(demo2d_system):
    # demo2d's nodes name labels 0, 1 and 2
    with pytest.raises(ValidationError, match=r"missing_matrix\(label=2\)") as exc:
        SwitchedSystem(fa=demo2d_system.fa, matrices=DEMO2D_MATRICES[:2], d=2)
    assert exc.value.violations == [Violation("missing_matrix", 2)]
    # missing labels first, in increasing order, then misshapen matrices
    with pytest.raises(ValidationError) as exc:
        SwitchedSystem(fa=demo2d_system.fa, matrices=(DEMO2D_MATRICES[0], np.eye(3)), d=2)
    assert exc.value.violations == [Violation("missing_matrix", 2), Violation("bad_dimension", 1)]


@pytest.mark.parametrize("d", [0, -1])
def test_system_rejects_nonpositive_dimension(demo2d_system, d):
    with pytest.raises(ValidationError, match=f"dimension d={d} is not positive") as exc:
        SwitchedSystem(fa=demo2d_system.fa, matrices=(np.zeros((0, 0)),) * 3, d=d)
    assert len(exc.value.violations) == 1


def test_json_round_trip(demo2d_system):
    text = save_json(demo2d_system)
    loaded = load_json(text)
    assert save_json(loaded) == text
    assert loaded.fa == demo2d_system.fa
    assert all(np.array_equal(a, b)
               for a, b in zip(loaded.matrices, demo2d_system.matrices))


def test_json_structure(demo2d_system):
    obj = json.loads(save_json(demo2d_system))
    assert obj["num_nodes"] == 4
    assert len(obj["matrices"]) == 3
    assert obj["events"] == ["e1", "e2"]
    assert obj["d"] == 2
    assert obj["initial"] == 0


def test_load_rejects_missing_matrix(demo2d_system):
    obj = json.loads(save_json(demo2d_system))
    obj["matrices"] = obj["matrices"][:2]
    with pytest.raises(ValidationError):
        load_json(json.dumps(obj))


def test_load_rejects_bad_transition(demo2d_system):
    obj = json.loads(save_json(demo2d_system))
    obj["delta"][0][0] = 99
    with pytest.raises(ValidationError):
        load_json(json.dumps(obj))


def test_load_rejects_rank_deficient_label(demo2d_system):
    singular = SwitchedSystem(fa=demo2d_system.fa,
                              matrices=DEMO2D_MATRICES[:2] + (np.zeros((2, 2)),), d=2)
    with pytest.raises(ValidationError) as exc:
        load_json(save_json(singular))
    assert exc.value.violations == [Violation("rank_deficient_label", 2)]


def test_load_rejects_ragged_matrix_rows(demo2d_system):
    obj = json.loads(save_json(demo2d_system))
    obj["matrices"][1] = [[1.0, 2.0], [3.0]]
    with pytest.raises(ParseError, match="matrix 1"):
        load_json(json.dumps(obj))


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_json("not json at all {")
    with pytest.raises(ParseError):
        load_json(json.dumps({"d": 2}))
    # well-formed JSON whose empty alphabet breaks an invariant
    with pytest.raises(ValidationError):
        load_json(json.dumps({"d": 2, "events": [], "num_nodes": 1,
                              "initial": 0, "delta": [], "gamma": [],
                              "matrices": []}))


def one_node_json(**fields):
    return json.dumps({"d": 1, "events": ["a"], "num_nodes": 1, "initial": 0,
                       "delta": [[0]], "gamma": [0], "matrices": [[[1.0]]], **fields})


@pytest.mark.parametrize("field, value, named", [
    ("d", True, "d must"),
    ("num_nodes", True, "num_nodes must"),
    ("initial", False, "initial must"),
    ("delta", [[False]], "delta must"),
    ("gamma", [False], "gamma must"),
    ("matrices", [[[True]]], "matrix 0 must"),
])
def test_load_rejects_json_booleans_as_numbers(field, value, named):
    # true and false would pass as 1 and 0, the values that load here
    assert load_json(one_node_json()).d == 1
    with pytest.raises(ParseError, match=named):
        load_json(one_node_json(**{field: value}))


@pytest.mark.parametrize("fields, first", [
    ({"num_nodes": 2, "delta": [[99], [77]], "gamma": [0, 0]},
     "transition target 99 out of range"),
    ({"initial": 5, "delta": [[-1]]}, "initial node 5 out of range"),
    ({"events": ["a", "a"], "delta": [[0, 0]]}, "event names must be distinct"),
])
def test_load_names_the_first_structural_violation(fields, first):
    with pytest.raises(ValidationError) as exc:
        load_json(one_node_json(**fields))
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(first)


@pytest.mark.parametrize("fields, named", [
    ({"num_nodes": 0}, "automaton needs at least one node"),
    ({"gamma": [-1]}, "negative label id -1"),
    ({"events": ["a", "b"]}, "node 0 has 1 transitions, expected 2"),
    ({"num_nodes": 2, "delta": [[0], [0]]}, "delta and gamma must have one entry per node"),
    ({"events": [], "delta": [[]]}, "alphabet must contain at least one event"),
    ({"events": ["a b"]}, "event name 'a b' is empty or contains whitespace"),
    ({"d": 0}, "dimension d=0 is not positive"),
    ({"matrices": [[]]}, r"bad_dimension\(label=0\)"),
])
def test_load_reports_well_formed_invariant_violations_as_validation_errors(fields, named):
    with pytest.raises(ValidationError, match=named) as exc:
        load_json(one_node_json(**fields))
    assert len(exc.value.violations) == 1


@pytest.mark.parametrize("entry", ["1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400],
                         ids=["1e400", "-1e400", "int-10^400", "int--10^400"])
def test_load_rejects_entries_beyond_the_float_range(entry):
    # JSON reads 1e400 as inf, and an integer that long overflows float
    text = one_node_json().replace("[[[1.0]]]", f"[[[{entry}]]]")
    with pytest.raises(ValidationError, match="matrix 0 has non-finite entries"):
        load_json(text)
