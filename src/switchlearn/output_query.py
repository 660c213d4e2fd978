"""Recovering the matrix that acted last on a trace, and turning recovered
matrices into discrete label ids.

The last-applied matrix of a non-empty word is obtained from one trace query
started at the identity: its second-to-last states are the final states of
the word minus its last event and form a basis (all subsystem matrices are
full-rank), and its last states are their image under the wanted matrix.
A trace query of a prefix computes the same products in the same order, so
the basis is bit-identical to the final states of a separate query of the
word minus its last event.

cached_outputs recovers many words at once: one trace query per word as
above, then one stacked pivot test and LAPACK solve per RECOVERY_BATCH
words, with the same matrices, labels, counts and errors as cached_output
on each word in turn.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .automaton import Word
from .errors import AmbiguousLabel
from .linalg import LABEL_TOL, PIVOT_TOL, identity, recover_transform, recover_transforms

# Words recovered per stacked pivot test and solve. The stacked test costs
# about twice a single one on a stack of one and much less per word on a
# full stack; larger stacks raise peak memory for little further gain.
RECOVERY_BATCH = 32


def compute_output(obs, word: Word, tol: float = PIVOT_TOL) -> np.ndarray:
    """Matrix labelling the node reached by word, from trace queries alone.

    Costs one d-column trace query. Raises SingularBasis if the
    intermediate states do not span the space, which means some subsystem
    matrix is rank-deficient or their product is numerically singular.
    """
    obs.stats.output_computations += 1
    states = obs.exec_query(identity(obs.dimension()), word)
    if len(word) == 0:
        return states[-1]
    return recover_transform(states[-2], states[-1], tol)


@dataclass
class LabelRegistry:
    """Interns recovered matrices into dense label ids.

    Two matrices within tol (max-abs entrywise) of each other get the same
    id; tol must be positive and finite. Canonical matrices must stay
    pairwise separated by more than 2*tol, otherwise classification becomes
    ambiguous and AmbiguousLabel is raised.
    """

    tol: float = LABEL_TOL
    canonical: list[np.ndarray] = field(default_factory=list)
    # canonical stacked into one (k, d, d) array, rebuilt when k changes
    _stack: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"label tolerance must be positive and finite, "
                             f"got {self.tol!r}")

    def classify(self, matrix: np.ndarray) -> int:
        matrix = np.asarray(matrix, dtype=float)
        hits = []
        if self.canonical:
            if self._stack is None or len(self._stack) != len(self.canonical):
                self._stack = np.stack(self.canonical)
            distance = np.max(np.abs(self._stack - matrix), axis=(1, 2))
            hits = np.flatnonzero(distance <= self.tol).tolist()
        if len(hits) > 1:
            raise AmbiguousLabel(
                f"matrix matches labels {hits} at tolerance {self.tol:g}; "
                "label tolerance is too coarse for this system")
        if hits:
            return hits[0]
        self.canonical.append(matrix.copy())
        return len(self.canonical) - 1

    def __len__(self) -> int:
        return len(self.canonical)


OutputCache = dict[Word, int]


def cached_output(obs, registry: LabelRegistry, cache: OutputCache, word: Word) -> int:
    """Label id of word's output matrix, memoized by exact word."""
    word = tuple(word)
    if word not in cache:
        cache[word] = registry.classify(compute_output(obs, word))
    return cache[word]


def cached_outputs(obs, registry: LabelRegistry, cache: OutputCache, words,
                   limit: int | None = None) -> None:
    """cached_output for each word in turn, recovered in stacks.

    The uncached words, in order and without duplicates, are computed and
    cached; only the first limit of them when limit is given. Labels are
    assigned in word order, so the registry ends as after cached_output on
    each word. Each word costs one trace query, taken a stack at a time: if
    a basis is singular, the words before it are classified and then the
    SingularBasis cached_output would raise is raised, after the trace
    queries of the rest of its stack (at most RECOVERY_BATCH - 1) were made.
    """
    uncached = (w for w in map(tuple, words) if w not in cache)
    pending = list(dict.fromkeys(uncached))[:limit]
    if not pending:
        return
    d = obs.dimension()
    eye = identity(d)
    bases = np.empty((RECOVERY_BATCH, d, d))
    images = np.empty((RECOVERY_BATCH, d, d))
    for start in range(0, len(pending), RECOVERY_BATCH):
        chunk = pending[start:start + RECOVERY_BATCH]
        for i, word in enumerate(chunk):
            states = obs.exec_query(eye, word)
            bases[i], images[i] = states[-2], states[-1]
        k = len(chunk)
        matrices, error = recover_transforms(bases[:k], images[:k])
        for i, matrix in enumerate(matrices):
            obs.stats.output_computations += 1
            # as in compute_output, the empty word's output is its last state
            cache[chunk[i]] = registry.classify(matrix if chunk[i] else images[i])
        if error is not None:
            obs.stats.output_computations += 1
            raise error
