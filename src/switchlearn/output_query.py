"""Output labels of words, read through trace queries.

compute_output recovers the matrix that acted last on a word from one trace
query started at the identity (d columns): its second-to-last states are
the final states of the word minus its last event and form a basis (all
subsystem matrices are full-rank), and its last states are their image
under the wanted matrix. A trace query of a prefix computes the same
products in the same order, so the basis is bit-identical to the final
states of a separate query of the word minus its last event. When that
recovery's error bound is not well inside the label tolerance, the word is
traced again from the inverse of its basis and recovered from that trace
(iterative refinement, see _derive).

cached_outputs, the learner's one label path, mostly checks labels instead
of recovering them, as Freivalds's randomized check of a matrix product
does (Freivalds, 1977). A word traced from one random column has states x
and y before and after its last step, and y = C x for its output C. Label
C_j passes when the residual ||y - C_j x||_inf is at most tol * ||x||_1,
the least bound that every matrix within tol of C_j (max-abs entrywise)
meets. A word that exactly one label passes gets that label, with no
inversion and no conditioning of a basis involved. Only a word that no
label or several labels pass is recovered on d columns as compute_output
does (a fallback), and the recovered matrix must pass the same check on the
word's probe column before it is classified, or SingularBasis is raised.

The one-column traces are made per stack of PROBE_BATCH words: the maximal
words (those no other word of the call extends) that the stack's words are
read off are traced from their own columns, together. With at least
STACK_MIN of them the stack is traced as one run of
ObservationOracle.exec_runs, which the white-box oracle answers with one
stacked trace; the oracle is asked the same queries, in the same order,
either way.

A passing label is only as sure as the spread of x and the gap between
labels: a new label passes as a known one when every product along a word
contracts the direction in which they differ, or when they differ by
little more than tol. So the LabelRegistry, the one owner of a learn's
labels and of its output cache, keeps the (x, y) pair of every word
accepted on it, in any call, and when a new label is interned it rescreens
them all against it in one call; a word that passes the new label too is
re-derived on d columns (rederive), and its cached label is replaced when
that derivation disagrees. An accepted word's label is thus always the one
interned label its pair passes: the true one whenever a label within tol of
its output is interned. Re-derivations cost trace queries but no output
computations.
"""

import numpy as np

from .automaton import Word
from .errors import AmbiguousLabel, DimensionMismatch, SingularBasis
from .linalg import LABEL_TOL, check_finite, check_label_tol, identity, recover_transform

# Words classified per stacked probe check: the residuals of a stack are one
# (labels, d, words) array, about 400 kB at d=20 with 10 labels.
PROBE_BATCH = 256

# The maximal words of a stack (its covers) are traced as one run of
# obs.exec_runs when there are at least this many, else one exec_query at a
# time: a stacked call costs a few microseconds per step whatever its width,
# so it pays on wide stacks only. At 16, suite-small's stacks of 16 to 63
# covers made its learns about 3% slower; at 2, about 26% slower.
STACK_MIN = 64

# A recovery whose error bound, REFINE_FACTOR * d * EPS * cond(basis) * |M|
# with cond(basis) bounded by |basis| |basis^-1|, may exceed half the label
# tolerance is refined (see _derive).
EPS = np.finfo(float).eps
REFINE_FACTOR = 10

# Seed of the probe columns: a fixed seed keeps runs on the same inputs identical.
PROBE_SEED = 20260811


def compute_output(obs, word: Word) -> np.ndarray:
    """Matrix labelling the node reached by word, from trace queries alone,
    refined when its recovery may be off by more than LABEL_TOL/2 (see
    _derive).

    Costs one d-column trace query, and one more when the recovery is
    refined. Raises SingularBasis if the intermediate states do not span
    the space, which means some subsystem matrix is rank-deficient or their
    product is numerically singular, if the basis is too ill-conditioned to
    refine, or if the output has a non-finite entry (the empty word's
    output, the image of the identity, included).
    """
    obs.stats.output_computations += 1
    return _derive(obs, word, LABEL_TOL)


class LabelRegistry:
    """Interns recovered matrices into dense label ids, and keeps the
    evidence behind the labels that cached_outputs gives on one column.

    Two matrices within tol (max-abs entrywise, NaN never agreeing) of each
    other get the same id; tol must be positive and finite. Canonical
    matrices must stay pairwise separated by more than 2*tol, otherwise
    classification becomes ambiguous and AmbiguousLabel is raised. The
    labels are held as one (labels, d, d) stack; canonical lists them.

    The one-column label check keeps here, across every call on the
    registry: the generator of the probe columns (seeded, so runs on the
    same inputs are identical), the (x, y) rows of the words it accepted,
    16*d bytes each, to rescreen when a label is interned, and its health
    counters, and the output cache, which maps each word labelled through
    it to its label id and which its rescreens rewrite. fallbacks counts
    the words recovered on d columns, fallbacks and re-derivations alike;
    margin_min is the smallest residual of a label that did not pass a
    word, as a multiple of that word's threshold (None until one is seen);
    relabels counts the cached labels that a re-derivation changed or
    dropped.
    """

    def __init__(self, tol: float = LABEL_TOL, canonical=()):
        self.tol = check_label_tol(tol)
        self._labels = np.array(canonical, dtype=float)  # shape (0,) until d is known
        self.rng = np.random.default_rng(PROBE_SEED)
        self.fallbacks = self.relabels = 0
        self.margin_min: float | None = None
        # (words, pairs): words accepted, and their (x, y) pairs as a
        # (words, 2, d) array
        self._kept: list[tuple[list[Word], np.ndarray]] = []
        self.cache: dict[Word, int] = {}

    @property
    def canonical(self) -> list[np.ndarray]:
        return list(self._labels)

    def classify(self, matrix: np.ndarray) -> int:
        """Id of the one label matrix agrees with, or of a new label for it
        when it agrees with none; AmbiguousLabel when it agrees with more,
        DimensionMismatch when its shape is not that of the labels."""
        matrix = np.asarray(matrix, dtype=float)
        if not len(self._labels):
            self._labels = np.empty((0,) + matrix.shape)
        if matrix.shape != self._labels.shape[1:]:
            raise DimensionMismatch(f"cannot classify a matrix of shape {matrix.shape} "
                                    f"among labels of shape {self._labels.shape[1:]}")
        hits = np.flatnonzero(np.abs(self._labels - matrix).max(axis=(1, 2)) <= self.tol)
        if len(hits) > 1:
            raise AmbiguousLabel(f"matrix matches labels {hits.tolist()} at tolerance "
                                 f"{self.tol:g}; label tolerance is too coarse for this system")
        if len(hits):
            return int(hits[0])
        self._labels = np.concatenate((self._labels, matrix[None]))
        return len(self._labels) - 1

    def __len__(self) -> int:
        return len(self._labels)

    def _keep(self, words: list[Word], pairs: np.ndarray) -> None:
        if words:
            self._kept.append((words, pairs))

    def _note(self, ratios: np.ndarray) -> None:
        """Lower margin_min to the smallest of ratios that does not pass."""
        margin = float(ratios.min(initial=np.inf, where=ratios > 1))
        if margin < (np.inf if self.margin_min is None else self.margin_min):
            self.margin_min = margin


def _ratios(matrices: np.ndarray, xs: np.ndarray, ys: np.ndarray, tol: float) -> np.ndarray:
    """The probe check in one call: the residual ||y - C x||_inf over the
    threshold tol * ||x||_1, for each matrix C of the (m, d, d) stack
    matrices (rows) and each pair (x, y) of rows of the (k, d) arrays xs and
    ys (columns). C passes when its ratio is at most 1; it is NaN or inf,
    and never passes, where a state is not finite or x is zero.

    One stacked matrix product C xs^T makes the (m, d, k) residuals, which
    are differenced and made absolute in place and reduced over d."""
    with np.errstate(all="ignore"):
        residuals = matrices @ xs.T
        residuals -= ys.T
        np.abs(residuals, out=residuals)
        return residuals.max(axis=1) / (tol * np.abs(xs).sum(axis=1))


def _check(matrix: np.ndarray, pair: np.ndarray, tol: float) -> None:
    """SingularBasis unless matrix passes the probe check on pair, (x, y)."""
    ratio = _ratios(matrix[None], pair[:1], pair[1:], tol)[0, 0]
    if not ratio <= 1:
        raise SingularBasis(f"recovered matrix fails the probe check: its residual is "
                            f"{ratio:.3g} times tol * |x|_1")


def _derive(obs, word: Word, tol: float, pair=None) -> np.ndarray:
    """word's output recovered on d columns, refined when that recovery may
    be off by more than tol/2, then checked on the probe pair when given
    (SingularBasis when the check fails). compute_output, the learner's
    fallbacks and its re-derivations all recover through here, without
    counting an output computation.

    Recovery solves M P = Y for the traced basis P, so its error is at most
    about d * eps * cond(P) * |M| (LU with partial pivoting; a factor 10
    allows for pivot growth), with cond(P) bounded by |P| |P^-1| (Frobenius
    norms). When that bound exceeds tol/2, as on long words whose products
    are ill-conditioned, the word is recovered again by _refine. This
    bound, not the scale of P, decides whether a recovery is accepted.
    """
    states = obs.exec_query(identity(obs.dimension()), word)
    if not word:  # the empty word's output is its image of the identity, exact
        matrix = check_finite(states[-1])
    else:
        basis, matrix = states[-2], recover_transform(states[-2], states[-1])
        try:
            inverse = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            raise SingularBasis("LAPACK cannot invert the basis") from None
        with np.errstate(all="ignore"):
            bound = (REFINE_FACTOR * len(basis) * EPS * np.linalg.norm(basis)
                     * np.linalg.norm(inverse) * np.linalg.norm(matrix))
        if not bound <= tol / 2:
            matrix = _refine(obs, word, inverse, bound)
    if pair is not None:
        _check(matrix, pair, tol)
    return matrix


def _refine(obs, word: Word, inverse: np.ndarray, bound: float) -> np.ndarray:
    """word's output recovered from a trace started at the columns of its
    basis's inverse (d more columns), whose own basis P P^-1 is close to
    the identity: iterative refinement (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12). SingularBasis when that basis is more
    than 1/2 from the identity (max row sum), which means P is too
    ill-conditioned for float64."""
    if not np.isfinite(inverse).all():
        raise SingularBasis("inverse of the basis is not finite")
    states = obs.exec_query(inverse, word)
    with np.errstate(all="ignore"):
        drift = np.abs(states[-2] - identity(len(inverse))).sum(axis=1).max()
    if not drift <= 0.5:
        raise SingularBasis(f"basis too ill-conditioned to recover from (error bound "
                            f"{bound:.3g}): traced from its inverse, it is {drift:.3g} "
                            f"from the identity")
    return recover_transform(states[-2], states[-1])


def _intern(obs, registry: LabelRegistry, matrix: np.ndarray) -> int:
    """registry.classify(matrix), then, when that added a label, the
    rescreen of every accepted pair against it."""
    known = len(registry)
    label = registry.classify(matrix)
    if len(registry) > known and registry._kept:
        pairs = np.concatenate([kept for _, kept in registry._kept])
        again = _ratios(matrix[None], pairs[:, 0], pairs[:, 1], registry.tol)[0] <= 1
        if again.any():
            words = [w for kept, _ in registry._kept for w in kept]
            registry._kept = []
            registry._keep([w for w, a in zip(words, again) if not a], pairs[~again])
            rederive(obs, registry, [w for w, a in zip(words, again) if a], pairs[again])
    return label


def rederive(obs, registry: LabelRegistry, words, pairs: np.ndarray | None = None) -> None:
    """Re-derive the labels of words on d columns (see _derive), each
    checked on its (x, y) pair in pairs when given, and cache them in
    registry.cache; registry.relabels counts the cached labels this
    changes. For words whose probe label is in doubt: it costs trace
    queries and no output computation. When one fails, it and the words
    after it are dropped from the cache (relabels too) before the error is
    raised, so no label in doubt stays cached."""
    cache = registry.cache
    words = list(map(tuple, words))
    done = 0
    try:
        for i, word in enumerate(words):
            registry.fallbacks += 1
            matrix = _derive(obs, word, registry.tol, None if pairs is None else pairs[i])
            label = _intern(obs, registry, matrix)
            if cache.get(word) != label:
                cache[word] = label
                registry.relabels += 1
            done += 1
    finally:
        for word in words[done:]:
            registry.relabels += cache.pop(word, None) is not None


def cached_output(obs, registry: LabelRegistry, cache: dict, word: Word) -> int:
    """Label id of word's output matrix, memoized by exact word in cache,
    which must be registry.cache (ValueError otherwise, before any query).
    A miss is computed by cached_outputs on that one word. The cache
    argument only repeats registry.cache: it stays as long as perfbench's
    tracer reads it, and goes with the other shims that tracer wraps."""
    if cache is not registry.cache:
        raise ValueError("this LabelRegistry serves another output cache")
    word = tuple(word)
    if word not in cache:
        cached_outputs(obs, registry, (word,))
    return cache[word]


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


def _identify(obs, registry: LabelRegistry, words: list[Word], pairs: np.ndarray) -> None:
    """Label the stack words, in order, from their probe pairs (the (words,
    2, d) array pairs), into registry.cache: the one label a word passes,
    or else a fallback.
    Every label is screened against the words still to come in one call, at
    the start and again after each fallback that adds a label; a fallback
    that adds none leaves the screen standing. The words up to the next
    fallback are accepted together, and their pairs go to the registry."""
    cache, n = registry.cache, len(words)
    # per word from base on: how many labels it passes, and the first of them
    hits, first, base, known, i = [0] * n, [0] * n, 0, 0, 0
    while i < n:
        if len(registry) != known:
            known, base = len(registry), i
            ratios = _ratios(registry._labels, pairs[i:, 0], pairs[i:, 1], registry.tol)
            registry._note(ratios)
            passed = ratios <= 1
            hits, first = passed.sum(axis=0).tolist(), passed.argmax(axis=0).tolist()
        stop = i  # the next fallback, or n
        while stop < n and hits[stop - base] == 1:
            stop += 1
        cache.update(zip(words[i:stop], first[i - base:stop - base]))
        obs.stats.output_computations += stop - i
        # kept, to be rescreened if a later fallback adds a label
        registry._keep(words[i:stop], pairs[i:stop].copy())
        if stop == n:
            break
        obs.stats.output_computations += 1
        registry.fallbacks += 1
        matrix = _derive(obs, words[stop], registry.tol, pairs[stop])
        cache[words[stop]] = _intern(obs, registry, matrix)
        i = stop + 1


def cached_outputs(obs, registry: LabelRegistry, words, limit: int | None = None) -> None:
    """Compute, classify and cache in registry.cache the outputs of words,
    in stacks, with the one-column label check (see the module docstring).

    The uncached words, in order and without duplicates, are computed and
    cached; only the first limit of them when limit is given (ValueError
    when it is negative). Labels are assigned in word order, one output
    computation per word. The registry draws the probe columns and keeps
    the accepted pairs, so a label any later call on it interns rescreens
    the words this call accepted.

    Only the maximal words, those no other of these words extends, are
    traced, each from its own random column, as the cover of the words
    read off its trace. A word w takes states |w| and |w|+1 of its cover's
    trace as its pair (x, y), equal to those of a trace of w alone from the
    same column because the trace oracle has the prefix property (a trace
    of w·u starts with the trace of w). The covers that the words of a
    stack of PROBE_BATCH need are traced in the order of the first word
    read off each: as one run of obs.exec_runs, one trace query per cover,
    when there are at least STACK_MIN of them, and one exec_query at a
    time otherwise (see _trace).
    The words read off one trace are prefixes of each other; when that
    trace query raises for a word other than the traced one, they are read
    off the trace of the longest of them other than the traced word
    instead, which is traced first, followed by the covers after it, so a
    word fails only when its own trace query would, and an oracle that
    answers one query at a time is asked what a trace of one cover at a
    time would ask.

    The words of each stack of PROBE_BATCH are checked against every label
    in one call, and the words after a fallback that adds a label against
    every label again in one more (see _identify). A fallback, a word that
    no label or several labels pass, costs one more trace query of d
    columns, and another when it is refined.

    If a fallback's recovery is refused (see _derive), its output not finite
    or not passing the probe check, its label ambiguous, or a trace query
    raises, the words before it are classified and cached, it is counted,
    and its error is raised (the first in word order); the rest of its stack
    may have been traced, so a failure can cost extra trace queries. An
    accepted word whose re-derivation raised is dropped (see rederive).
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    pending = [w for w in dict.fromkeys(map(tuple, words)) if w not in registry.cache][:limit]
    if not pending:
        return
    covers = _covers(pending)
    readers: dict[int, list[int]] = {}  # cover -> the words read off its trace
    for i, cover in enumerate(covers):
        readers.setdefault(cover, []).append(i)
    # the column a trace of pending[i] starts from, drawn for every word so
    # that a word traced after its cover's trace failed has one too
    columns = registry.rng.standard_normal((len(pending), obs.dimension()))
    pairs = np.empty((len(pending), 2, obs.dimension()))  # (x, y) of each word
    traced = [False] * len(pending)  # per cover: its trace is read
    for start in range(0, len(pending), PROBE_BATCH):
        stop, error = min(start + PROBE_BATCH, len(pending)), None
        while True:
            # the covers still to trace, each where its first reader is
            todo = [c for c in dict.fromkeys(covers[start:stop]) if not traced[c]]
            if not todo:
                break
            done, error = _trace(obs, pending, todo, readers, columns, pairs)
            for c in todo[:done]:
                traced[c] = True
            if error is None:
                break
            cover = todo[done]
            if readers[cover][0] == cover:  # its own trace failed: raised once
                stop = cover                # the words before it are cached
                break
            chain = [j for j in readers.pop(cover) if j != cover]
            longest = max(chain, key=lambda j: len(pending[j]))
            readers[cover], readers[longest] = [cover], chain
            for j in chain:
                covers[j] = longest
        if stop > start:
            _identify(obs, registry, pending[start:stop], pairs[start:stop])
        if error is not None:
            obs.stats.output_computations += 1
            raise error


def _trace(obs, words: list[Word], covers: list[int], readers: dict[int, list[int]],
           columns: np.ndarray, pairs: np.ndarray) -> tuple[int, Exception | None]:
    """Trace the covers (indices of words), in order, each from its row of
    columns, and write into pairs the (x, y) pair of each word read off it
    (its readers): the number of covers traced, and the exception that the
    next one's trace query raised (None when all ran). At least STACK_MIN
    covers are traced as the one run of an obs.exec_runs stream, whose
    default loop passes each column as (d, 1), and their pairs read with
    one index; fewer, one exec_query of a 1-D column and one row write at
    a time."""
    if len(covers) < STACK_MIN:
        xs, ys = pairs[:, 0], pairs[:, 1]
        for k, cover in enumerate(covers):
            try:
                states = obs.exec_query(columns[cover], words[cover])
            except Exception as exc:
                return k, exc
            for j in readers[cover]:
                n = len(words[j])
                xs[j], ys[j] = states[n], states[n + 1]
        return len(covers), None
    states, error = next(obs.exec_runs(columns[covers], [words[c] for c in covers], len(covers)))
    done = covers[:len(states)]
    read = [j for c in done for j in readers[c]]
    if read:  # states |w| and |w|+1 of each reader, off its cover's trace
        at = [k for k, c in enumerate(done) for _ in readers[c]]
        steps = [len(words[j]) for j in read]
        pairs[read] = states[np.array(at)[:, None], np.add.outer(steps, (0, 1))]
    return len(states), error
