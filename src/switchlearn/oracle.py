"""The two oracles a learner may query: trace generation and equivalence
checking, each with query accounting.

The white-box implementations wrap a known system and exist for testing and
benchmarking; the bounded-testing equivalence checker works purely through
trace queries and demonstrates the fully black-box mode (its "equivalent"
verdict is only as strong as the search depth). It recovers no output: it
checks the hypothesis's own label of each word on one trace column, as
Freivalds's randomized check of a matrix product does (Freivalds, 1977),
so every counterexample it returns is proven. A whole chain of words w,
w·0, w·0·0, ... is checked off one trace query with one column per word,
so a full search costs one trace column per word; the white-box oracle
traces the chains of a run of words in one stacked call (exec_queries).
"""

import numpy as np

from .automaton import EventAlphabet, Word, language_equivalent
from .errors import AlphabetMismatch, DimensionMismatch, SingularBasis
from .linalg import LABEL_TOL, check_label_tol, identity, mat_approx_eq
# compute_output is looked up in this namespace by callers that wrap it
from .output_query import PROBE_SEED, compute_output  # noqa: F401
from .switched_system import SwitchedSystem, execute

# Words of one length compared per run by the bounded oracle: when a word
# cannot be checked, the later words of its run may have been traced already.
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
        raise NotImplementedError

    def exec_queries(self, x0s: np.ndarray,
                     words: np.ndarray) -> tuple[np.ndarray, Exception | None]:
        """Trace queries of the n words of one length L in the (n, L) integer
        array words, in order, word i from the (d, m) start x0s[i]: the
        (k, L + 2, d, m) states of the first k queries, and the exception
        that query k + 1 raised (None when all n ran). This default makes
        them one exec_query at a time, word i as a tuple of ints, and no
        query after one that raises."""
        traces, error = [], None
        for x0, word in zip(x0s, words.tolist()):
            try:
                traces.append(self.exec_query(x0, tuple(word)))
            except Exception as exc:
                error = exc
                break
        return np.array(traces).reshape(len(traces), words.shape[1] + 2, *x0s.shape[1:]), error


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

    def exec_query(self, x0: np.ndarray, word: Word) -> list[np.ndarray]:
        """execute(hidden, x0, word), word also an (n, L) array of words (see
        execute); one io query is charged per column of x0 before execute
        checks x0 and word, so a refused query still counts."""
        shape = x0.shape if isinstance(x0, np.ndarray) else np.shape(x0)
        self.stats.io_queries += shape[1] if len(shape) == 2 else 1
        return execute(self._hidden, x0, word)

    def exec_queries(self, x0s: np.ndarray,
                     words: np.ndarray) -> tuple[np.ndarray, Exception | None]:
        """One exec_query of all n words from one (d, n·m) block of starts,
        charged n·m io, when n >= 2 and no query can raise (hidden dimension
        and events); else, or when exec_query is overridden on a subclass or
        an instance, which must then see every query, the default's loop."""
        (n, d, m), hidden = x0s.shape, self._hidden
        own = getattr(self.exec_query, "__func__", None) is WhiteBoxObservationOracle.exec_query
        if (n < 2 or d != hidden.d or not own
                or words.size and (words.min() < 0 or words.max() >= len(hidden.fa.alphabet))):
            return super().exec_queries(x0s, words)
        states = self.exec_query(x0s.transpose(1, 0, 2).reshape(d, n * m), words)
        return states.reshape(-1, d, n, m).transpose(2, 0, 1, 3), None


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


def _words(positions, length: int, events: int, zeros: int = 0) -> np.ndarray:
    """One row per position: the events of the word at that position in the
    lex order of length, followed by zeros 0s, in the least unsigned
    integer type that holds an event."""
    digits = np.zeros((len(positions), length + zeros), dtype=np.min_scalar_type(events - 1))
    rest = np.asarray(positions)
    for k in reversed(range(length)):
        rest, digits[:, k] = np.divmod(rest, events)
    return digits


def _word(position: int, length: int, events: int) -> Word:
    """The word at position in the lex order of length."""
    return tuple(_words([position], length, events)[0].tolist())


def _starts(rng, prefix: np.ndarray, parents: np.ndarray, nodes: np.ndarray,
            inverses: np.ndarray, gamma: np.ndarray, delta: np.ndarray, m: int) -> np.ndarray:
    """The (heads, d, m) starts of the chains of heads with inverse prefix
    products prefix[parents] and hypothesis nodes nodes: column j of a head
    w is Ĥ⁻¹ r_j for w·0^j, or r_j where that column is not finite, with r
    drawn from rng in one (heads, d, m) draw. The inverse products of w,
    w·0, ..., w·0^(m-1) are formed one from the other into one
    (m, heads, d, d) array, and all m columns of every head by one stacked
    product with r. Floating-point errors are left to the caller's
    np.errstate."""
    heads, d = len(parents), prefix.shape[-1]
    r = rng.standard_normal((heads, d, m)).transpose(2, 0, 1)
    products = np.empty((m, heads, d, d))
    # "clip" writes straight into out ("raise" buffers it); every parent is in range
    prefix.take(parents, axis=0, out=products[0], mode="clip")
    for j in range(1, m):
        np.matmul(products[j - 1], inverses[gamma[nodes]], out=products[j])
        nodes = delta[nodes, 0]
    starts = np.empty((heads, d, m))
    columns = starts.transpose(2, 0, 1)  # (m, heads, d)
    np.matmul(products, r[..., None], out=columns[..., None])
    bad = ~np.isfinite(columns).all(axis=2)
    columns[bad] = r[bad]
    return starts


class BoundedTestingEquivalenceOracle(EquivalenceOracle):
    """Black-box equivalence testing by exhaustive word enumeration.

    Words over the hypothesis's events are tried by increasing length,
    lexicographic in event index, up to l_max (l_max 0 tests only the empty
    word). Each word v is checked on one trace column: with x and y its
    states before and after its last step, v is returned as a
    counterexample when ||y - C x||_inf > tol * ||x||_1 for the
    hypothesis's label C of v. Every matrix within tol of C (max-abs
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

    The columns are read off chains w, w·0, w·0·0, ... A word w that no
    earlier chain left a tail for heads a chain: it traces w·0^(l_max-|w|)
    from a (d, m) start, m = l_max - |w| + 1, whose column j serves w·0^j.
    By the prefix property of traces (a trace of w·u starts with the trace
    of w), states |w|+j and |w|+j+1 of column j are the pair of w·0^j,
    equal to those of a trace of w·0^j alone from that column. Column j is
    Ĥ⁻¹ r_j (see _starts), where Ĥ is the product of the hypothesis's
    labels along the proper prefixes of w·0^j and r_j a random column, so x
    is about r_j when the hypothesis is right on those prefixes: the
    directions that the products contract stay visible (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 12). A column that is not
    finite, as when a hypothesis label along the way is singular, is
    replaced by r_j itself. When the trace query of a chain raises, w is
    traced alone from its first column; that leaves no tail, so w·0 heads
    its own chain. The columns are drawn from a generator seeded afresh for
    each check, so repeated checks of one hypothesis make the same queries.

    Cost: one trace query per chain, with one column per word of the
    chain, so a full search costs one trace column per word,
    (|events|^(l_max+1) - 1) / (|events| - 1) in all (l_max + 1 over one
    event); a run's chains are traced in one obs.exec_queries call. Words
    are compared in runs of CHECK_BATCH of one length, one output
    computation counted per compared word, through the counterexample.
    When a word cannot be checked, the words before it are compared first;
    then it is counted and its error (SingularBasis when its pair of states
    is not finite, or whatever the word's own trace query raised) raised.
    Up to CHECK_BATCH - 1 later words of the last run may have been traced
    without being compared or counted. Besides its trace queries, a check
    works per length and per run, not per word: a length's chain heads,
    their starts and their words are formed at once, and one search splits
    the heads among the runs. A chain's trace query gets its start and word
    as they are; only when it raises are they cut to w's own (the run's
    later chains then go in a new call). A run copies its chains' states
    into the pairs in one gather, tests them for finiteness once and
    compares its words in one stacked product. The check ignores
    floating-point errors (np.errstate), its trace queries included, so a
    state that overflows is not warned about but raised as SingularBasis.

    Memory: the pairs of the words of the current length and of the later
    words of their chains, one (|events|^|w|, l_max - |w| + 1, 2, d) array
    (two at the step to the next length); the hypothesis node and d x d
    inverse prefix product of every word of the current length; and, for
    the chains that words of that length head, their words, their starts
    and the (m, heads, d, d) inverse products that _starts forms them from;
    and the (chains, l_max + 2, d, m) states of one run's chains.
    """

    def __init__(self, obs: ObservationOracle, l_max: int, tol: float = LABEL_TOL):
        super().__init__()
        if not isinstance(l_max, int) or isinstance(l_max, bool):
            raise ValueError(f"l_max must be an integer, got {l_max!r}")
        if l_max < 0:
            raise ValueError(f"l_max must be >= 0, got {l_max}")
        self._obs = obs
        self._l_max = l_max
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
        # hypothesis nodes of the words of the current length, in lex order;
        # Ĥ⁻¹ of the word at position i is prefix[i // events], since Ĥ does
        # not depend on a word's last event
        nodes, prefix = np.array([fa.initial]), identity(d)[None]
        # pairs[i, j] is the (x, y) pair of word i·0^j, known for j <
        # served[i]; word i·0 is at position i * events of the next length
        pairs, served, size = np.empty((1, l_max + 1, 2, d)), np.zeros(1, dtype=int), 1
        with np.errstate(all="ignore"):  # a non-finite state is raised as SingularBasis
            for length in range(l_max + 1):
                m = l_max - length + 1
                if length:
                    prefix = prefix[np.arange(size) // events] @ inverses[gamma[nodes]]
                    nodes = delta[nodes].reshape(-1)
                    tails, left, size = pairs[:, 1:], served - 1, len(nodes)
                    pairs, served = np.empty((size, m, 2, d)), np.zeros(size, dtype=int)
                    pairs[::events], served[::events] = tails, left
                heads, labels = np.flatnonzero(served == 0), gamma[nodes]
                served[heads] = m  # 1 for a head whose chain's trace query raises
                starts = _starts(rng, prefix, heads // events, nodes[heads], inverses,
                                 gamma, delta, m)
                chains, positions = _words(heads, length, events, m - 1), heads.tolist()
                # heads[cuts[k]:cuts[k + 1]] are the heads among the words of run k
                cuts = heads.searchsorted(np.arange(0, size + CHECK_BATCH, CHECK_BATCH)).tolist()
                j = np.arange(m)[:, None]  # pair j of a chain: states j, j + 1 of column j
                steps = length + j + np.arange(2)
                for begin, lo, hi in zip(range(0, size, CHECK_BATCH), cuts, cuts[1:]):
                    end, error = min(begin + CHECK_BATCH, size), None
                    while lo < hi:  # the chains headed here, resumed after a refused one
                        states, error = obs.exec_queries(starts[lo:hi], chains[lo:hi])
                        # indexing puts the (m, 2) pair axes ahead of the chains'
                        traced = states[:, steps, :, j].transpose(2, 0, 1, 3)
                        pairs[heads[lo:lo + len(traced)]] = traced
                        lo += len(traced)
                        if error is None:
                            break
                        i = positions[lo]  # raised once the words before it are compared
                        if m > 1:  # w alone from column 0
                            states, error = obs.exec_queries(starts[lo:lo + 1, :, :1],
                                                             chains[lo:lo + 1, :length])
                        if error is not None:
                            end = i
                            break
                        pairs[i, 0], served[i], lo = states[0, length:, :, 0], 1, lo + 1
                    block = pairs[begin:end, 0]
                    if not np.isfinite(block).all():
                        end = begin + int(np.isfinite(block).all(axis=(1, 2)).argmin())
                        error = SingularBasis(f"trace state of word {_word(end, length, events)}"
                                              " before or after its last step is not finite")
                        block = block[:end - begin]
                    xs = block[:, 0]
                    residual = block[:, 1] - (claims[labels[begin:end]] @ xs[..., None])[..., 0]
                    bound = tol * np.abs(xs).sum(axis=1)
                    differs = np.abs(residual, out=residual).max(axis=1) > bound
                    if differs.any():
                        first = int(differs.argmax())
                        obs.stats.output_computations += first + 1
                        return _word(begin + first, length, events)
                    obs.stats.output_computations += end - begin
                    if error is not None:
                        obs.stats.output_computations += 1
                        raise error
        return None
