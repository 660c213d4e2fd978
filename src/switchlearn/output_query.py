"""Recovering the matrix that acted last on a trace, and turning recovered
matrices into discrete label ids.

The last-applied matrix of a non-empty word is obtained from one trace query
started at the identity: its second-to-last states are the final states of
the word minus its last event and form a basis (all subsystem matrices are
full-rank), and its last states are their image under the wanted matrix.
A trace query of a prefix computes the same products in the same order, so
the basis is bit-identical to the final states of a separate query of the
word minus its last event.

cached_outputs recovers many words at once, with the same matrices, labels,
output computations and errors as compute_output and LabelRegistry.classify
on each word in turn. By the same prefix property, a word that is a proper
prefix of another word of the batch is read off that word's trace, so there
is one trace query per maximal word. Each RECOVERY_BATCH words take one
stacked pivot test of the bases not seen before, one LAPACK solve and one
LabelRegistry.classify_stack pass. cached_output computes a single miss the
same way, so every label the learner uses comes from this one path;
compute_output is the per-word reference and the CLI's `output`.
"""

import numpy as np

from .automaton import Word
from .errors import AmbiguousLabel, SingularBasis
from .linalg import (LABEL_TOL, check_finite, check_label_tol, identity, recover_transform,
                     recover_transforms)

# Words recovered per stacked pivot test and solve. The stacked test costs
# about twice a single one on a stack of one and much less per word on a
# full stack; larger stacks raise peak memory for little further gain.
RECOVERY_BATCH = 32

# Up to this many compared entries (labels x rows x d*d), classification
# compares every (row, label) pair in one broadcast call, which costs less
# than the fixed numpy calls of screening on entry [0, 0] first (the two
# break even between about 1,500 and 3,000 entries; at d=20 with 10 labels
# and 32 rows the screen is 5 to 25 times cheaper).
SCREEN_MIN_ENTRIES = 2048


def compute_output(obs, word: Word) -> np.ndarray:
    """Matrix labelling the node reached by word, from trace queries alone.

    Costs one d-column trace query. Raises SingularBasis if the
    intermediate states do not span the space, which means some subsystem
    matrix is rank-deficient or their product is numerically singular, or
    if the output has a non-finite entry (the empty word's output, the
    image of the identity, included).
    """
    obs.stats.output_computations += 1
    states = obs.exec_query(identity(obs.dimension()), word)
    if len(word) == 0:
        return check_finite(states[-1])
    return recover_transform(states[-2], states[-1])


class LabelRegistry:
    """Interns recovered matrices into dense label ids.

    Two matrices within tol (max-abs entrywise, NaN never agreeing) of each
    other get the same id; tol must be positive and finite. Canonical
    matrices must stay pairwise separated by more than 2*tol, otherwise
    classification becomes ambiguous and AmbiguousLabel is raised. The
    labels are held as one (labels, d, d) stack; canonical lists them.
    """

    def __init__(self, tol: float = LABEL_TOL, canonical=()):
        self.tol = check_label_tol(tol)
        self._labels = np.array(canonical, dtype=float)  # shape (0,) until d is known

    @property
    def canonical(self) -> list[np.ndarray]:
        return list(self._labels)

    def classify(self, matrix: np.ndarray) -> int:
        """Id of the one label matrix agrees with, or of a new label for it
        when it agrees with none; AmbiguousLabel when it agrees with more."""
        ids, error = self.classify_stack(np.asarray(matrix, dtype=float)[None])
        if error is not None:
            raise error
        return ids[0]

    def classify_stack(self, matrices: np.ndarray) -> tuple[list[int], AmbiguousLabel | None]:
        """classify over a (k, d, d) stack, row by row in order.

        Returns the ids of the leading rows that classify, with the labels
        that classify would have added on the way, and the AmbiguousLabel
        it raises on the first ambiguous row (None when every row
        classifies). Entry [0, 0] of every row is screened against every
        known label in one numpy call, and only the surviving (row, label)
        pairs get the full max-abs comparison, in one gathered call; up to
        SCREEN_MIN_ENTRIES compared entries, every pair is compared in one
        broadcast call instead. A label added by a row is compared with the
        whole stack in one call.
        """
        stack = np.asarray(matrices, dtype=float)
        if not len(self._labels):
            self._labels = np.empty((0,) + stack.shape[1:])
        # (labels, rows) mask of the pairs within tol
        if self._labels.size * len(stack) <= SCREEN_MIN_ENTRIES:
            agree = np.abs(stack - self._labels[:, None]).max(axis=(2, 3)) <= self.tol
        else:
            # |m00 - c00| is one term of the max-abs distance, so a pair it
            # puts above tol (or NaN) cannot agree
            agree = np.abs(stack[:, 0, 0] - self._labels[:, 0, 0, None]) <= self.tol
            label, row = agree.nonzero()
            if len(label):
                agree[label, row] = (np.abs(stack[row] - self._labels[label]).max(axis=(1, 2))
                                     <= self.tol)
        ids: list[int] = []
        hits = first = None
        for r in range(len(stack)):
            if hits is None:  # per row: labels agreeing, and the first of them
                hits = agree.sum(axis=0).tolist()
                # with no label yet, every row has 0 hits and first is unread
                first = agree.argmax(axis=0).tolist() if len(agree) else hits
            if hits[r] > 1:
                labels = np.flatnonzero(agree[:, r]).tolist()
                return ids, AmbiguousLabel(
                    f"matrix matches labels {labels} at tolerance {self.tol:g}; "
                    "label tolerance is too coarse for this system")
            if hits[r] == 1:
                ids.append(first[r])
                continue
            self._labels = np.concatenate((self._labels, stack[r:r + 1]))
            agree = np.vstack((agree, np.abs(stack - stack[r]).max(axis=(1, 2)) <= self.tol))
            hits = None
            ids.append(len(self._labels) - 1)
        return ids, None

    def __len__(self) -> int:
        return len(self._labels)


OutputCache = dict[Word, int]


def cached_output(obs, registry: LabelRegistry, cache: OutputCache, word: Word,
                  known: set[bytes] | None = None) -> int:
    """Label id of word's output matrix, memoized by exact word. A miss is
    computed by cached_outputs on that one word, with the set known of bases
    that passed the pivot test (see cached_outputs)."""
    word = tuple(word)
    if word not in cache:
        cached_outputs(obs, registry, cache, (word,), known=known)
    return cache[word]


def recover_outputs(words: list[Word], bases: np.ndarray, images: np.ndarray,
                    known: set[bytes]) -> tuple[np.ndarray, SingularBasis | None]:
    """Output matrices of the leading words that compute_output recovers,
    from the (basis, image) pair of each word in the first len(words) rows of
    the stacks bases and images, and the SingularBasis compute_output raises
    on the next word (None when every word is recovered).

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


def _covers(words: list[Word]) -> list[int]:
    """For each of the distinct words, the index of the word whose trace it
    is read off: the first word after it in lexicographic order that is not
    a proper prefix of another. In that order the words extending a word
    directly follow it, so each word takes the cover of its successor when
    that successor extends it."""
    order = sorted(range(len(words)), key=words.__getitem__)
    covers = list(range(len(words)))
    for i, j in zip(reversed(order[:-1]), reversed(order[1:])):
        if words[j][:len(words[i])] == words[i]:
            covers[i] = covers[j]
    return covers


def cached_outputs(obs, registry: LabelRegistry, cache: OutputCache, words,
                   limit: int | None = None, known: set[bytes] | None = None) -> None:
    """Compute, classify and cache the outputs of words, in stacks.

    The uncached words, in order and without duplicates, are computed and
    cached; only the first limit of them when limit is given (ValueError
    when it is negative). Labels are assigned in word order, so the
    registry ends as after computing and classifying each word's output in
    turn, and so do the output computations.

    Only the maximal words, those no other of these words extends, are
    traced: one trace query each, made when the first word read off it is
    reached. A word w read off the trace of a longer word takes states |w|
    and |w|+1 of it as basis and image, bit-identical to a trace of w alone
    because the trace oracle has the prefix property (a trace of w·u starts
    with the trace of w). Only the (basis, image) pairs of words still to
    come are kept, never whole traces. The words read off one trace are
    prefixes of each other; when that trace query raises for a word other
    than the traced one, they are read off the trace of the longest of them
    other than the traced word instead, so a word fails only when its own
    trace query would.

    Each stack of RECOVERY_BATCH words is recovered by recover_outputs
    with the set known of bases that passed the pivot test, so each distinct
    basis is pivot-tested once for as long as the caller keeps the set
    (learn keeps one per call; without it, one per call of this function).
    Matrices are bit-identical either way, and the set holds d*d*8 bytes
    per distinct basis.

    If a basis is singular, an output not finite, a label ambiguous or a
    trace query raises, the words before it are classified and cached, it
    is counted, and its error is raised (the first in word order); the rest
    of its stack (at most RECOVERY_BATCH - 1 words) may have been traced,
    so a failure can cost extra trace queries.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    known = set() if known is None else known
    uncached = (w for w in map(tuple, words) if w not in cache)
    pending = list(dict.fromkeys(uncached))[:limit]
    if not pending:
        return
    covers = _covers(pending)
    readers: dict[int, list[int]] = {}  # cover -> the words read off its trace
    for i, cover in enumerate(covers):
        readers.setdefault(cover, []).append(i)
    d = obs.dimension()
    eye = identity(d)
    bases = np.empty((RECOVERY_BATCH, d, d))
    images = np.empty((RECOVERY_BATCH, d, d))
    kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def trace(i: int) -> None:
        """Keep the pairs of the words read off the trace of word i's cover;
        i is the first of them, so it is reached first."""
        while True:
            cover = covers[i]
            try:
                states = obs.exec_query(eye, pending[cover])
                break
            except Exception:
                if cover == i:
                    raise
            chain = [j for j in readers.pop(cover) if j != cover]
            longest = max(chain, key=lambda j: len(pending[j]))
            readers[cover], readers[longest] = [cover], chain
            for j in chain:
                covers[j] = longest
        for j in readers[cover]:
            n = len(pending[j])
            kept[j] = states[n], states[n + 1]

    for start in range(0, len(pending), RECOVERY_BATCH):
        chunk = pending[start:start + RECOVERY_BATCH]
        untraced = None
        for k in range(len(chunk)):
            if start + k not in kept:
                try:
                    trace(start + k)
                except Exception as exc:  # raised once the words before it are cached
                    chunk, untraced = chunk[:k], exc
                    break
            bases[k], images[k] = kept.pop(start + k)
        matrices, singular = recover_outputs(chunk, bases, images, known)
        ids, ambiguous = registry.classify_stack(matrices)
        for word, label in zip(chunk, ids):
            cache[word] = label
        obs.stats.output_computations += len(ids)
        # in word order: classification stops before the first word not
        # recovered, and recovery before the first word not traced
        for error in (ambiguous, singular, untraced):
            if error is not None:
                obs.stats.output_computations += 1
                raise error
