from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from switchlearn import (EventAlphabet, Fa, ObservationStore, SwitchedSystem,
                         WhiteBoxObservationOracle, learner, oracle)

# 2-D demo model: four nodes on two events, three distinct subsystem
# matrices, the middle label shared by two nodes.
DEMO2D_MATRICES = (
    np.array([[1.0, 0.3], [0.7, 1.2]]),
    np.array([[0.4, 0.8], [-0.7, 0.6]]),
    np.array([[1.2, 0.7], [1.6, 0.1]]),
)

# 3-D fault-mode model: a healthy event (f) dwells on the current mode,
# the schedule event (g) advances through the mode cycle.
FAULT_MATRICES = (
    np.array([[0.2, 0.4, 0.8], [0.3, 0.6, 0.9], [0.5, 1.5, 1.5]]),
    np.array([[-1.0, 0.1, 0.2], [0.3, -1.0, 0.4], [0.5, 0.6, -1.0]]),
    np.array([[-0.1, -0.2, 0.3], [-0.1, -0.4, 0.6], [0.8, 0.7, -0.6]]),
)


def count_maximal(words) -> int:
    """Number of distinct words that are not a proper prefix of another of
    them: the trace queries cached_outputs makes for them."""
    words = set(words)
    return sum(not any(len(v) > len(w) and v[:len(w)] == w for v in words)
               for w in words)


def record_traces(patch, calls, key=lambda system, x0, words: words):
    """Patch the oracle module's traces, execute (one word) and
    _trace_words (the white-box stream's word arrays), so that each call
    appends key(system, x0, words) to calls."""
    for name in ("execute", "_trace_words"):
        trace = getattr(oracle, name)
        patch.setattr(oracle, name, lambda *args, trace=trace:
                      calls.append(key(*args)) or trace(*args))


def row(word, test_words, label) -> tuple[int, ...]:
    """Reference row: the output labels of word followed by each test word,
    in test-word order, each read by label."""
    return tuple(label(word + t) for t in test_words)


def stocked_store(obs, access_words=(), test_words=(), **options) -> ObservationStore:
    """An ObservationStore on obs (options: its keyword arguments) whose
    access and test words are the empty word followed by access_words and
    test_words, appended to its own lists."""
    store = ObservationStore(obs, **options)
    store.access_words.extend(access_words)
    store.test_words.extend(test_words)
    return store


def is_separable(store) -> bool:
    """True iff no two distinct access words have the same row."""
    return len(store.index()) == len(store.access_words)


class NotSeparable(AssertionError):
    """Two access words of the observation table have the same row."""


@contextmanager
def separability_checked():
    """Within the block, learn checks the table at each hypothesis, once
    built, and raises NotSeparable when it is not separable. Between
    hypotheses the test words are fixed and access words only appended, so
    this also covers every earlier change to the table in that round."""
    build = learner.build_hypothesis

    def checked(store, alphabet):
        hypothesis = build(store, alphabet)
        if not is_separable(store):
            raise NotSeparable(f"access words sharing a row: {store.access_words!r}")
        return hypothesis

    with mock.patch.object(learner, "build_hypothesis", checked):
        yield


class OSErrorObservationOracle(WhiteBoxObservationOracle):
    """A trace oracle whose queries of words containing event 1 fail with
    an error from outside the package."""

    def exec_query(self, x0, word):
        if 1 in word:
            raise OSError("trace lost")
        return super().exec_query(x0, word)


def make_demo2d_fa() -> Fa:
    return Fa(num_nodes=4, initial=0, alphabet=EventAlphabet(("e1", "e2")),
              delta=((3, 1), (2, 0), (1, 3), (0, 2)),
              gamma=(0, 1, 1, 2))


def make_demo2d_system() -> SwitchedSystem:
    return SwitchedSystem(fa=make_demo2d_fa(), matrices=DEMO2D_MATRICES, d=2)


def make_fault_system() -> SwitchedSystem:
    fa = Fa(num_nodes=4, initial=0, alphabet=EventAlphabet(("f", "g")),
            delta=((0, 1), (1, 2), (2, 3), (3, 0)),
            gamma=(0, 1, 1, 2))
    return SwitchedSystem(fa=fa, matrices=FAULT_MATRICES, d=3)


def make_contracting_system(d: int = 3) -> SwitchedSystem:
    """One node on event e1, labelled 0.1 Q for an orthonormal Q: the state
    of a word of length n is 10^-(n+1) times an orthonormal matrix, so its
    recovery bases are tiny but perfectly conditioned."""
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("e1",)), delta=((0,),), gamma=(0,))
    return SwitchedSystem(fa=fa, matrices=(0.1 * q,), d=d)


def make_three_node_hypothesis() -> SwitchedSystem:
    # First closed hypothesis reached when learning the demo model: access
    # words (), (e1,), (e2,); it misses the fourth hidden node.
    fa = Fa(num_nodes=3, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=((1, 2), (0, 2), (2, 0)),
            gamma=(0, 2, 1))
    return SwitchedSystem(fa=fa, matrices=DEMO2D_MATRICES, d=2)


def make_four_node_hypothesis() -> SwitchedSystem:
    # Final learned machine for the demo model: isomorphic to it with nodes
    # reordered by access word (), (e1,), (e2,), (e1, e2).
    fa = Fa(num_nodes=4, initial=0, alphabet=EventAlphabet(("e1", "e2")),
            delta=((1, 2), (0, 3), (3, 0), (2, 1)),
            gamma=(0, 2, 1, 1))
    return SwitchedSystem(fa=fa, matrices=DEMO2D_MATRICES, d=2)


@pytest.fixture
def demo2d_fa() -> Fa:
    return make_demo2d_fa()


@pytest.fixture
def demo2d_system() -> SwitchedSystem:
    return make_demo2d_system()


@pytest.fixture
def fault_system() -> SwitchedSystem:
    return make_fault_system()


@pytest.fixture
def three_node_hypothesis() -> SwitchedSystem:
    return make_three_node_hypothesis()


@pytest.fixture
def four_node_hypothesis() -> SwitchedSystem:
    return make_four_node_hypothesis()
