"""The two oracles a learner may query: trace generation and equivalence
checking, each with query accounting.

The white-box implementations wrap a known system and exist for testing and
benchmarking; the bounded-testing equivalence checker works purely through
trace queries and demonstrates the fully black-box mode (its "equivalent"
verdict is only as strong as the search depth). It recovers no output: it
checks the hypothesis's own label of each word on one trace column, as
Freivalds's randomized check of a matrix product does (Freivalds, 1977),
so every counterexample it returns is proven, at one trace column per
word.

Batched trace queries have one entry point, ObservationOracle.exec_runs: a
lazy stream of runs over words of any lengths, whose default makes one
exec_query per word. The learner's wide stacks of words of mixed lengths
are each one run, and the bounded check reads each length as a stream of
runs of one length. The white-box oracle steps a stream's words in blocks
of whole runs, one stacked trace (_trace_words) per block of up to
GATHER_FLOATS floats of states, and charges each run with one exec_query
of its stepped states; execute traces one word.
"""

import itertools
import numbers
import operator

import numpy as np

from .automaton import EventAlphabet, Word, language_equivalent
from .errors import AlphabetMismatch, DimensionMismatch, InvalidEvent, SingularBasis
from .linalg import LABEL_TOL, check_label_tol, identity, mat_approx_eq
# compute_output is looked up in this namespace by callers that wrap it
from .output_query import PROBE_SEED, _residual_ratios, compute_output  # noqa: F401
from .switched_system import SwitchedSystem, execute

# A white-box trace stream is stepped in blocks of as many whole runs as fit
# this many floats of states (128 kB), at least one run, each step gathering
# the label matrices of at most GATHER_FLOATS // d² words at a time.
GATHER_FLOATS = 1 << 14
# Words of one length traced and compared per run by the bounded oracle: when
# a word cannot be checked, the later words of its run may have been traced
# already.
CHECK_BATCH = 32


class QueryStats:
    """Monotone counters; a k-column trace query counts as k queries."""

    def __init__(self):
        self.io_queries = 0
        self.output_computations = 0
        self.equivalence_queries = 0

    def as_dict(self) -> dict[str, int]:
        return {"io_queries": self.io_queries,
                "output_computations": self.output_computations,
                "equivalence_queries": self.equivalence_queries}


class ObservationOracle:
    """Answers trace queries for a hidden system."""

    def __init__(self):
        self.stats = QueryStats()

    def dimension(self) -> int:
        raise NotImplementedError

    def alphabet(self) -> EventAlphabet:
        raise NotImplementedError

    def exec_query(self, x0: np.ndarray, word: Word) -> list[np.ndarray]:
        """The hidden system's trace of word from x0: x0 is one start (1-D,
        d entries) or a (d, k) matrix of k column starts, and word a
        sequence of event indices (ints) into alphabet(). Returns the
        |word| + 2 states, each shaped like x0, the first x0 itself. A
        refused query raises InvalidEvent (an event that is not one of
        alphabet()'s) or DimensionMismatch (x0 of another shape). Each query
        charges one io query per start column to stats.io_queries."""
        raise NotImplementedError

    def exec_runs(self, x0s: np.ndarray, words, size: int):
        """Trace queries of the n words of words, in order, word i from row
        i of the (n, d) array x0s, in runs of size words: a generator of
        each run's (states, error), lazily, so a caller that stops reading
        makes no more queries. states holds the (k, L + 2, d) states of the
        run's first k queries, L the length of the longest word, and error
        is the exception that query k + 1 raised (None when the whole run
        ran); the stream ends after the first run with an error.

        words is an (n, L) integer array, one word of length L per row, or
        a list of n words of any lengths; the states of a word after its
        own last one are unspecified. Starts that are not an (n, d) array, or
        not one per word, raise DimensionMismatch, a word array whose type is
        not an integer one InvalidEvent, and a size below 1 ValueError,
        before any query. This default makes the queries one
        exec_query at a time, word i as a tuple of ints from a (d, 1) column."""
        _check_runs(x0s, words, size)
        yield from _query_runs(self, x0s, words, size)


def _query_runs(obs: ObservationOracle, x0s: np.ndarray, words, size: int):
    """The default exec_runs once its arguments are checked: one
    obs.exec_query per word."""
    stacked = isinstance(words, np.ndarray)
    length = words.shape[1] if stacked else max(map(len, words), default=0)
    for begin in range(0, len(words), size):
        run, traces, error = words[begin:begin + size], [], None
        for x0, word in zip(x0s[begin:begin + size, :, None], run.tolist() if stacked else run):
            try:
                trace = obs.exec_query(x0, tuple(word))
            except Exception as exc:
                error = exc
                break
            traces.append([*trace] + [trace[-1]] * (length - len(word)))  # padded to L + 2
        yield np.array(traces).reshape(len(traces), length + 2, x0s.shape[1]), error
        if error is not None:
            return


def _check_runs(x0s: np.ndarray, words, size: int) -> None:
    """exec_runs' refusals: DimensionMismatch unless the starts are an (n, d)
    array with one start per word, InvalidEvent for a word array of a type
    that is not an integer one (a float or bool array included), ValueError
    for a run size below 1."""
    if not isinstance(x0s, np.ndarray) or x0s.ndim != 2 or len(x0s) != len(words):
        starts = (f"of shape {x0s.shape}" if isinstance(x0s, np.ndarray)
                  else f"of type {type(x0s).__name__}")
        raise DimensionMismatch(f"starts {starts} for {len(words)} words: "
                                "one start per word, in an (n, d) array")
    if isinstance(words, np.ndarray) and words.dtype.kind not in "iu":
        raise InvalidEvent(f"words of type {words.dtype}: events must be integers")
    if size < 1:
        raise ValueError(f"run size must be >= 1, got {size}")


class EquivalenceOracle:
    """Compares a hypothesis against the hidden system's behaviour."""

    def __init__(self):
        self.stats = QueryStats()

    def check(self, hypothesis: SwitchedSystem) -> Word | None:
        """None when equivalent, otherwise a counterexample word."""
        raise NotImplementedError


class WhiteBoxObservationOracle(ObservationOracle):
    def __init__(self, hidden: SwitchedSystem):
        super().__init__()
        self._hidden = hidden

    def dimension(self) -> int:
        return self._hidden.d

    def alphabet(self) -> EventAlphabet:
        return self._hidden.fa.alphabet

    def exec_query(self, x0: np.ndarray, word: Word,
                   trace: np.ndarray | None = None) -> list[np.ndarray]:
        """execute(hidden, x0, word), or trace when given: the (k, L + 2,
        d) states that exec_runs stepped already for the k columns of x0
        and the k words of the (k, L) array word, returned as they are. One
        io query is charged per column of x0 before execute checks x0 and
        word, so a refused query still counts."""
        shape = x0.shape if isinstance(x0, np.ndarray) else np.shape(x0)
        self.stats.io_queries += shape[1] if len(shape) == 2 else 1
        return execute(self._hidden, x0, word) if trace is None else trace

    def exec_runs(self, x0s: np.ndarray, words, size: int):
        """The default's runs, with its io and, up to each word's end, its
        states bit for bit, and its refusals. When the starts are (n, d) for
        the hidden d, every event is a hidden one and exec_query is this
        class's own (one overridden on a subclass or an instance must see
        every query), the words are stacked into one array, a list
        zero-padded, and stepped in blocks of whole runs: one _trace_words
        per block of as many runs as fit GATHER_FLOATS floats of states, at
        least one, made when its first run is read. Each run of k words is
        then one exec_query of its (d, k) starts, charged k io, that
        returns its rows of the block's states; the states of runs never
        read are dropped uncharged. Else the default makes the runs."""
        _check_runs(x0s, words, size)
        own = getattr(self.exec_query, "__func__", None) is WhiteBoxObservationOracle.exec_query
        d = self._hidden.d
        array = (_word_array(words, len(self._hidden.fa.alphabet))
                 if own and x0s.shape[1] == d else None)
        if array is None:
            yield from _query_runs(self, x0s, words, size)
            return
        n, length = array.shape
        block = max(1, GATHER_FLOATS // ((length + 2) * d * size)) * size
        for first in range(0, n, block):
            starts, stack = x0s[first:first + block], array[first:first + block]
            states = _trace_words(self._hidden, starts, stack)
            for begin in range(0, len(stack), size):
                run = slice(begin, begin + size)
                yield self.exec_query(starts[run].T, stack[run], states[run]), None


def _word_array(words, events: int) -> np.ndarray | None:
    """words as an (n, L) array when every event is one of events, else
    None. A list is stacked into an array of the least unsigned type that
    holds an event, each row padded with zeros to the longest word; one
    with an event past 255 is left to the default loop too."""
    if isinstance(words, np.ndarray):
        return words if not words.size or (words.min() >= 0 and words.max() < events) else None
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    try:  # bytes refuses an event that is not an integer, as tuple indexing does
        flat = np.frombuffer(bytes(itertools.chain.from_iterable(words)), np.uint8)
    except (TypeError, ValueError):  # ValueError: an event outside 0 to 255
        return None
    if flat.size and flat.max() >= events:
        return None
    array = np.zeros((len(words), lengths.max(initial=0)), dtype=np.min_scalar_type(events - 1))
    array[np.arange(array.shape[1]) < lengths[:, None]] = flat
    return array


def _trace_words(system: SwitchedSystem, starts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The (n, L + 2, d) states of the n words of the (n, L) array words on
    system, word i from row i of the (n, d) starts, bit for bit the states
    of execute on that start as a (d, 1) column. Checks neither starts nor
    events (exec_runs' _check_runs and _word_array do). The words walk the
    automaton together; each step is one stacked np.matmul per
    GATHER_FLOATS // d² words of their gathered label matrices, ignoring
    floating-point errors. The states are a view of step-major storage, so
    that a step, and a reader of one step's states, touch one block."""
    (n, length), d = words.shape, system.d
    matrices, gamma, delta = system._stacked
    block = max(1, GATHER_FLOATS // (d * d))
    states = np.empty((length + 2, n, d))
    states[0] = starts
    nodes = np.full(n, system.fa.initial, dtype=np.intp)
    with np.errstate(all="ignore"):
        for step in range(length + 1):
            if step:
                nodes = delta[nodes, words[:, step - 1]]
            labels = gamma[nodes]
            for begin in range(0, n, block):
                part = slice(begin, begin + block)
                np.matmul(matrices.take(labels[part], axis=0), states[step, part, :, None],
                          out=states[step + 1, part, :, None])
    return states.transpose(1, 0, 2)


class WhiteBoxEquivalenceOracle(EquivalenceOracle):
    """Exact equivalence via product search; returns shortest counterexamples.

    Labels of the two systems are compared as matrices under label_eq, which
    defaults to max-abs closeness at tol (positive and finite, ValueError
    otherwise).
    """

    def __init__(self, hidden: SwitchedSystem, label_eq=None, tol: float = LABEL_TOL):
        super().__init__()
        check_label_tol(tol)
        self._hidden = hidden
        self._label_eq = label_eq or (lambda a, b: mat_approx_eq(a, b, tol))

    def check(self, hypothesis: SwitchedSystem) -> Word | None:
        """None when hypothesis is equivalent, otherwise a shortest
        counterexample (see language_equivalent). label_eq is called at most
        once per distinct pair of a hidden and a hypothesis label in one
        check; an exception it raises propagates."""
        self.stats.equivalence_queries += 1
        hidden, verdicts = self._hidden, {}

        def same(i: int, j: int) -> bool:
            if (i, j) not in verdicts:
                verdicts[i, j] = self._label_eq(hidden.matrices[i], hypothesis.matrices[j])
            return verdicts[i, j]

        return language_equivalent(hidden.fa, hypothesis.fa, same)


def _inverses(matrices: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of the (k, d, d) stack matrices, NaN
    where LAPACK finds one singular."""
    inverses = np.full_like(matrices, np.nan)
    for k, matrix in enumerate(matrices):
        try:
            inverses[k] = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            pass
    return inverses


def _words(shorter: np.ndarray, events: int) -> np.ndarray:
    """The words one event longer than the rows of shorter, all the words
    of their length in lex order, over events events: each row of shorter
    repeated events times, then the events tiled as the last column, in
    shorter's type."""
    words = np.empty((len(shorter) * events, shorter.shape[1] + 1), dtype=shorter.dtype)
    words[:, :-1] = shorter.repeat(events, axis=0)
    words[:, -1] = np.tile(np.arange(events, dtype=shorter.dtype), len(shorter))
    return words


class BoundedTestingEquivalenceOracle(EquivalenceOracle):
    """Black-box equivalence testing by exhaustive word enumeration.

    Words over the hypothesis's events are tried by increasing length,
    lexicographic in event index, up to l_max (l_max 0 tests only the empty
    word). Each word v is checked on one trace column: with x and y its
    states before and after its last step, v is returned as a
    counterexample when ||y - C x||_inf > tol * ||x||_1 for the
    hypothesis's label C of v (output_query._residual_ratios, the label
    probe's one kernel, tests it). Every matrix within tol of C (max-abs
    entrywise) meets that bound, so the hidden output of a returned word
    differs from C by more than tol: a counterexample is proven, with no
    output recovered. Exhausting the search yields None, which is an
    unsound "equivalent" verdict if the shortest counterexample is longer
    than l_max, or if no checked column shows a difference: one barely
    above tol, or one along a direction that the word's products contract
    beyond what float64 can undo. tol must be positive and finite. A
    hypothesis whose dimension is not the hidden one, or whose events do
    not begin with the hidden events (obs.alphabet()) in order, is rejected
    before any query (DimensionMismatch, AlphabetMismatch).

    Each word v is traced on its own, from the column Ĥ⁻¹ r, where Ĥ is the
    product of the hypothesis's labels along the proper prefixes of v and r
    a random column, so x is about r when the hypothesis is right on those
    prefixes: the directions that the products contract stay visible
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12). A
    column that is not finite, as when a hypothesis label along the way is
    singular, is r itself. The r of a length's words come from one draw of
    a generator seeded afresh for each check, so repeated checks of one
    hypothesis make the same queries.

    Cost: one trace column per word, (|events|^(l_max+1) - 1) / (|events| -
    1) in all for a full search (l_max + 1 over one event). Words are
    traced and compared in runs of CHECK_BATCH of one length, each length
    read through one obs.exec_runs stream of its runs, which charges a run
    only when the check reads it, one output computation counted per
    compared word, through the counterexample. When a word cannot be
    checked, the words before it are compared first; then it is counted
    and its error
    (SingularBasis when its pair of states is not finite, or whatever its
    trace query raised) raised. Only up to CHECK_BATCH - 1 later words of
    the last run may have been traced without being compared or counted,
    so a check's io exceeds its output computations by at most that.
    Besides its trace queries, a check works per length and per run, not
    per word: a length's words (from the previous length's) and starts
    are formed at once, and a run's pairs are compared in one stacked
    product and tested for finiteness only when a word does not pass,
    since a passing word's states are finite. The check ignores
    floating-point errors (np.errstate), its trace queries included, so a
    state that overflows is not warned about but raised as SingularBasis.

    Memory: for the words of the current length, their hypothesis nodes,
    events, random columns and starts, and the d x d inverse prefix product
    that each |events| of them share; and the states of the block of runs
    being read, at most GATHER_FLOATS floats or one run's (CHECK_BATCH,
    length + 2, d) states, with, for the white-box oracle, each word's
    current node in the block's walk through the hidden automaton.
    """

    def __init__(self, obs: ObservationOracle, l_max: int, tol: float = LABEL_TOL):
        super().__init__()
        if isinstance(l_max, bool) or not isinstance(l_max, numbers.Integral) or l_max < 0:
            raise ValueError(f"l_max must be an integer >= 0, got {l_max!r}")
        self._obs = obs
        self._l_max = operator.index(l_max)  # a numpy integer as an int
        self._tol = check_label_tol(tol)

    def check(self, hypothesis: SwitchedSystem) -> Word | None:
        self.stats.equivalence_queries += 1
        fa, obs, l_max, tol = hypothesis.fa, self._obs, self._l_max, self._tol
        d, alphabet = obs.dimension(), obs.alphabet()
        if hypothesis.d != d:
            raise DimensionMismatch(f"hypothesis has dimension {hypothesis.d}, "
                                    f"hidden states have dimension {d}")
        if fa.alphabet.names[:len(alphabet)] != alphabet.names:
            raise AlphabetMismatch(f"alphabets differ: {alphabet.names} vs {fa.alphabet.names}")
        events, claims = len(fa.alphabet), np.stack(hypothesis.matrices)
        gamma, delta, inverses = np.array(fa.gamma), np.array(fa.delta), _inverses(claims)
        rng = np.random.default_rng(PROBE_SEED)
        # the words of the current length in lex order and their hypothesis
        # nodes; Ĥ⁻¹ of the word at position i is prefix[i // events], since
        # Ĥ does not depend on a word's last event
        words = np.zeros((1, 0), dtype=np.min_scalar_type(events - 1))
        nodes, prefix = np.array([fa.initial]), identity(d)[None]
        with np.errstate(all="ignore"):  # a non-finite state is raised as SingularBasis
            for length in range(l_max + 1):
                if length:
                    prefix = prefix[np.arange(len(nodes)) // events] @ inverses[gamma[nodes]]
                    nodes = delta[nodes].reshape(-1)
                    words = _words(words, events)
                labels, size = gamma[nodes], len(nodes)
                r = rng.standard_normal((size, d))
                # each prefix times the r of its |events| words, without repeating it
                starts = np.matmul(prefix[:, None], r.reshape(len(prefix), -1, d, 1))
                starts = starts.reshape(size, d)
                bad = ~np.isfinite(starts).all(axis=1)
                starts[bad] = r[bad]
                runs = obs.exec_runs(starts, words, CHECK_BATCH)
                for begin, (states, error) in zip(range(0, size, CHECK_BATCH), runs):
                    # each word's states before and after its last step; an
                    # error was raised by the word after the traced ones
                    xs, ys, end = states[:, length], states[:, length + 1], begin + len(states)
                    images = (claims[labels[begin:end]] @ xs[..., None])[..., 0]
                    ratios = _residual_ratios(images.T, xs.T, ys.T, tol)
                    # a run of passing words has nothing to raise or return
                    if not (ratios <= 1).all():
                        finite = np.isfinite(states[:, length:]).all(axis=(1, 2))
                        if not finite.all():
                            end = begin + int(finite.argmin())
                            word = tuple(words[end].tolist())
                            error = SingularBasis(f"trace state of word {word} before or "
                                                  "after its last step is not finite")
                        differs = ratios[:end - begin] > 1
                        if differs.any():
                            first = int(differs.argmax())
                            obs.stats.output_computations += first + 1
                            return tuple(words[begin + first].tolist())
                    obs.stats.output_computations += end - begin
                    if error is not None:
                        obs.stats.output_computations += 1
                        raise error
        return None
