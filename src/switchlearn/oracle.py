"""The two oracles a learner may query: trace generation and equivalence
checking, each with query accounting.

The white-box implementations wrap a known system and exist for testing and
benchmarking; the bounded-testing equivalence checker works purely through
trace queries and demonstrates the fully black-box mode (its "equivalent"
verdict is only as strong as the search depth). It reads the outputs of a
whole chain of words w, w·0, w·0·0, ... off one trace query and recovers
them in stacks, so a full search to depth L over |events| events costs
|events|^L trace queries instead of one per word; verdicts, counterexamples
and output computations are those of computing each word's output in turn.
"""

import itertools

import numpy as np

from .automaton import Word, language_equivalent
from .errors import DimensionMismatch, SingularBasis
from .linalg import (LABEL_TOL, check_finite, check_label_tol, identity, mat_approx_eq,
                     recover_transforms)
# compute_output is looked up in this namespace by callers that wrap it
from .output_query import compute_output  # noqa: F401
from .switched_system import SwitchedSystem, execute

# Words recovered per stacked pivot test and solve by the bounded oracle. The
# stacked test costs about twice a single one on a stack of one and much less
# per word on a full stack; larger stacks raise peak memory for little gain.
RECOVERY_BATCH = 32


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

    def exec_query(self, x0: np.ndarray, word: Word) -> list[np.ndarray]:
        raise NotImplementedError


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

    def exec_query(self, x0: np.ndarray, word: Word) -> list[np.ndarray]:
        # charged before execute checks x0, so a refused query still counts
        shape = np.shape(x0)
        self.stats.io_queries += shape[1] if len(shape) == 2 else 1
        return execute(self._hidden, x0, word)


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
        self.stats.equivalence_queries += 1
        hidden = self._hidden
        return language_equivalent(
            hidden.fa, hypothesis.fa,
            lambda i, j: self._label_eq(hidden.matrices[i], hypothesis.matrices[j]))


def _recover_outputs(words: list[Word], bases: np.ndarray, images: np.ndarray,
                    known: set[bytes]) -> tuple[np.ndarray, SingularBasis | None]:
    """Output matrices of the leading words, recovered as compute_output
    recovers them but never refined, from the (basis, image) pair of each
    word in the first len(words) rows of the stacks bases and images, and
    the SingularBasis raised on the next word (None when every word is
    recovered).

    As in compute_output, the empty word's output is its image, refused when
    not finite; it is never solved against its identity basis, where an
    infinite image entry would spread NaN over its row. Every other word is
    recovered by recover_transforms with known.
    """
    k = len(words)
    empty = words.index(()) if () in words else k
    matrices, error = recover_transforms(bases[:empty], images[:empty], known=known)
    if empty < k and error is None:
        try:
            check_finite(images[empty])
        except SingularBasis as exc:
            return matrices, exc
        rest, error = recover_transforms(bases[empty + 1:k], images[empty + 1:k], known=known)
        matrices = np.concatenate((matrices, images[empty:empty + 1], rest))
    return matrices, error


class _ChainedTraces:
    """Output matrices of words taken in length-lex order up to l_max, read
    off one trace query per chain w, w·0, w·0·0, ... of length l_max.

    A word w whose output is not at hand traces w·0^(l_max-|w|) from the
    identity. By the prefix property of traces, states |w|+j and |w|+j+1 of
    that trace are the basis and image of w·0^j, bit-identical to a trace of
    w·0^j alone. Only the unconsumed tail of a trace is kept, keyed by the
    next word of its chain, and it is dropped once that word is reached.
    When the trace query of a chain raises, w is traced alone, so it fails
    only when its own trace does, as in compute_output; w·0 then traces its
    own chain. A search to depth L over |events| events holds up to about
    |events|^(L-1) pending states (the word-by-word search held one).

    The bases that passed the pivot test are kept, by their bytes, for as
    long as the object lives (one check), so each distinct basis is
    pivot-tested once, at d*d*8 bytes each.
    """

    def __init__(self, obs: ObservationOracle, l_max: int):
        self._obs = obs
        self._l_max = l_max
        d = obs.dimension()
        self._eye = identity(d)
        self._bases = np.empty((RECOVERY_BATCH, d, d))
        self._images = np.empty((RECOVERY_BATCH, d, d))
        self._tails: dict[Word, list[np.ndarray]] = {}
        self._known: set[bytes] = set()

    def _trace(self, word: Word) -> list[np.ndarray]:
        """The trace of word's chain, or of word alone when the chain's
        trace query raises."""
        chain = word + (0,) * (self._l_max - len(word))
        if chain != word:
            try:
                return self._obs.exec_query(self._eye, chain)
            except Exception:
                pass
        return self._obs.exec_query(self._eye, word)

    def outputs(self, words: list[Word]) -> tuple[np.ndarray, Exception | None]:
        """Output matrices of the leading words (up to RECOVERY_BATCH, all of
        one length) whose outputs can be computed, and the error computing
        the next one raises: any exception of a trace query, or the
        SingularBasis of recover_transform for a singular basis or a
        non-finite output (None when every output was computed)."""
        length, error = len(words[0]), None
        for i, word in enumerate(words):
            states = self._tails.pop(word, None)
            if states is None:
                try:
                    states = self._trace(word)[length:]
                except Exception as exc:  # raised once the words before it are compared
                    words, error = words[:i], exc
                    break
            if len(states) > 2:
                self._tails[word + (0,)] = states[1:]
            self._bases[i], self._images[i] = states[0], states[1]
        matrices, singular = _recover_outputs(words, self._bases, self._images, self._known)
        return matrices, error if singular is None else singular


class BoundedTestingEquivalenceOracle(EquivalenceOracle):
    """Black-box equivalence testing by exhaustive word enumeration.

    Words are tried by increasing length, lexicographic in event index, up
    to l_max (l_max 0 tests only the empty word); the first word whose
    recovered output matrix differs from the hypothesis's by more than tol
    (max-abs entrywise, NaN never agreeing; tol must be positive and
    finite) is returned. Exhausting the
    search yields None, which is an unsound "equivalent" verdict if the
    shortest counterexample is longer than l_max.

    Outputs are computed in bulk, with the verdict, counterexample, errors
    and output computations of recovering each word in turn from one
    identity-seeded trace, as compute_output does but without its
    refinement. So a word whose basis is ill-conditioned can come back
    further from its true output than tol, and be returned as a
    counterexample that the learner's refined label refutes:
    - one trace query per chain w, w·0, w·0·0, ... (_ChainedTraces), so a
      full search makes |events|^l_max d-column trace queries instead of one
      per word, (|events|^(l_max+1) - 1) / (|events| - 1): half as many for
      two events. This relies on the trace oracle's prefix property (a trace
      of w·u starts with the trace of w);
    - one recover_transforms call and one comparison per run of up to
      RECOVERY_BATCH words of one length, pivot-testing only the bases not
      seen earlier in the same check.
    One output computation is counted per compared word, through the
    counterexample. When an output cannot be computed, the words before it
    are compared first; then it is counted and its error (SingularBasis for
    a singular basis, or whatever the word's own trace query raised)
    raised. Up to RECOVERY_BATCH - 1 later words of the last run may have
    been traced and recovered without being compared or counted. The pending chain states
    take up to about |events|^(l_max-1) d x d states of memory. A hypothesis
    whose dimension is not the hidden one is rejected with
    DimensionMismatch before any query.
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
        fa, stats = hypothesis.fa, self._obs.stats
        d = self._obs.dimension()
        if hypothesis.d != d:
            raise DimensionMismatch(f"hypothesis has dimension {hypothesis.d}, "
                                    f"hidden states have dimension {d}")
        claims = np.stack(hypothesis.matrices)
        delta, gamma = np.array(fa.delta), np.array(fa.gamma)
        traces = _ChainedTraces(self._obs, self._l_max)
        # hypothesis nodes reached by the words of one length, in lex order
        nodes = np.array([fa.initial])
        for length in range(self._l_max + 1):
            if length:
                nodes = delta[nodes].reshape(-1)
            words = itertools.product(range(len(fa.alphabet)), repeat=length)
            for start in range(0, len(nodes), RECOVERY_BATCH):
                batch = list(itertools.islice(words, RECOVERY_BATCH))
                observed, error = traces.outputs(batch)
                claimed = claims[gamma[nodes[start:start + len(observed)]]]
                # initial: observed is empty when the first word fails
                distance = np.abs(observed - claimed).max(axis=(1, 2), initial=0.0)
                agree = distance <= self._tol
                if not agree.all():
                    first = int(agree.argmin())
                    stats.output_computations += first + 1
                    return batch[first]
                stats.output_computations += len(observed)
                if error is not None:
                    stats.output_computations += 1
                    raise error
        return None
