"""Active learning loop for event-driven switched linear systems.

The learner keeps one observation table per learn, as in L*: access words,
each believed to reach a distinct node of the hidden automaton, and test
words. A word's row is the tuple of output labels of the word followed by
each test word; two words are told apart exactly when their rows differ.
The table is also the learn's one membership path: every output label the
learner uses is read through it (see output_query.cached_outputs), within
the learn's output budget. It stores the row of every access word and every
one-event extension it has read, and extends a row by one cell per test
word added since, so each cell is read into the table once per learn. Its
index maps each access row to the first access word having it, rebuilt from
the stored rows when a test word is added. The loop closes the access set
under one-event extensions (an extension whose row is not in the index
becomes a new access word), builds a hypothesis whose transitions are index
lookups, asks the equivalence oracle, and on a counterexample locates (by
binary search over output labels along the hypothesis run) one new access
word and one new test word. Access words only ever grow, and their number
is bounded by the hidden node count, so the loop terminates with a
language-equivalent system.
"""

import math
import time
from dataclasses import dataclass

from .automaton import EPSILON, EventAlphabet, Fa, Word, run
from .errors import BudgetExceeded, NotACounterexample, NotClosed
from .linalg import LABEL_TOL
from .oracle import EquivalenceOracle, ObservationOracle, QueryStats
from .output_query import LabelRegistry, cached_output, cached_outputs, rederive
from .switched_system import SwitchedSystem


class ObservationStore:
    """The observation table of one learn: insertion-ordered access and test
    words (the empty word leads both), the row of every word read so far,
    and the outputs behind them.

    Both word lists are public and append-only. A stored row is extended by
    the cells it lacks when it is next read, so appending to either list
    needs no further step, and each (word, test word) cell is read once.

    Labels are read from obs through label (one word) and fetch (many), into
    one output cache and one LabelRegistry at label_tol (positive and finite,
    ValueError otherwise), which owns the labels and the evidence behind
    them (see cached_outputs).
    max_outputs, when given, caps the output computations on obs from the
    store's creation on (spent): label refuses an uncached word once they
    are spent, before computing it. rederive re-derives words on d columns
    outside the budget. When a re-derivation changes a cached label, the
    stored rows and the index are rebuilt from the cache.
    """

    def __init__(self, obs: ObservationOracle, *, access_words: list[Word] | None = None,
                 test_words: list[Word] | None = None, label_tol: float = LABEL_TOL,
                 max_outputs: int | None = None):
        self.access_words = [EPSILON] if access_words is None else access_words
        self.test_words = [EPSILON] if test_words is None else test_words
        if self.access_words[:1] != [EPSILON] or self.test_words[:1] != [EPSILON]:
            raise ValueError("access and test words must both start with the empty word")
        self.registry = LabelRegistry(tol=label_tol)
        self.max_outputs = max_outputs
        self._obs = obs
        self._outputs0 = obs.stats.output_computations
        self._cache: dict[Word, int] = {}
        self._relabels = 0  # registry.relabels when the rows were last rebuilt
        self._rows: dict[Word, tuple[int, ...]] = {}
        # the first access index of each row of the leading _indexed access
        # words, under the first _width test words
        self._index: dict[tuple[int, ...], int] = {}
        self._indexed = self._width = 0

    @property
    def spent(self) -> int:
        """Output computations on obs since the store was made."""
        return self._obs.stats.output_computations - self._outputs0

    def label(self, word: Word) -> int:
        """Label id of word's output (word: any sequence of event indices),
        computed when not cached; an uncached word is refused with
        BudgetExceeded once the budget is spent."""
        word = tuple(word)
        if (self.max_outputs is not None and word not in self._cache
                and self.spent >= self.max_outputs):
            raise BudgetExceeded(f"more than {self.max_outputs} output computations")
        label = cached_output(self._obs, self.registry, self._cache, word)
        self._refresh()
        return label

    def fetch(self, words) -> None:
        """Compute the labels of an iterable of words together, in order, so
        that label finds them cached. Capped at the budget, so label refuses
        the same word as without the fetch."""
        limit = None if self.max_outputs is None else max(0, self.max_outputs - self.spent)
        cached_outputs(self._obs, self.registry, self._cache, words, limit)
        self._refresh()

    def rederive(self, words) -> None:
        """Re-derive the labels of words on d columns (see
        output_query.rederive): trace queries, but no output computations."""
        rederive(self._obs, self.registry, self._cache, words)
        self._refresh()

    def _refresh(self) -> None:
        """Drop the stored rows and the index, to be read again from the
        cache, when a re-derivation changed a cached label since."""
        if self.registry.relabels != self._relabels:
            self._rows.clear()
            self._index, self._indexed = {}, 0
            self._relabels = self.registry.relabels

    def drop_shared_rows(self) -> None:
        """Keep only the first access word of each row. Access rows become
        equal only when a re-derivation changes a cached label."""
        index = self.index()
        if len(index) < len(self.access_words):
            self.access_words[:] = [self.access_words[i] for i in sorted(index.values())]
            self._index, self._indexed = {}, 0

    def missing_cells(self, words):
        """The cells the rows of words lack, word by word, each as the word
        followed by the test word."""
        rows, tests = self._rows, self.test_words
        return (w + t for w in words for t in tests[len(rows.get(w, ())):])

    def row(self, word: Word) -> tuple[int, ...]:
        """word's row: its stored cells, extended by the cells it lacks. A
        cached cell is read straight from the output cache; only a missing
        one goes through label, which may refuse it or change cached labels."""
        cells = self._rows.get(word, ())
        if len(cells) < len(self.test_words):
            relabels = self._relabels
            cells += self._cells(word, self.test_words[len(cells):])
            if self._relabels != relabels:  # a cached label changed meanwhile
                cells = self._cells(word, self.test_words)
            self._rows[word] = cells
        return cells

    def _cells(self, word: Word, tests: list[Word]) -> tuple[int, ...]:
        cache = self._cache
        return tuple(cache[cell] if cell in cache else self.label(cell)
                     for cell in (word + t for t in tests))

    def index(self) -> dict[tuple[int, ...], int]:
        """Map from each access word's row to the first access word having
        it: extended by the access words added since the last call, and
        rebuilt from the stored rows when a test word was added."""
        if self._width != len(self.test_words):
            self._index, self._indexed, self._width = {}, 0, len(self.test_words)
        while self._indexed < len(self.access_words):
            relabels = self._relabels
            row = self.row(self.access_words[self._indexed])
            if self._relabels == relabels:  # else the index was dropped meanwhile
                self._index.setdefault(row, self._indexed)
                self._indexed += 1
        return self._index


@dataclass
class LearnResult:
    system: SwitchedSystem
    stats: QueryStats
    rounds: int
    wall_ms: float
    access_words: list[Word]
    test_words: list[Word]
    # (counterexample length, output computations spent processing it)
    counterexample_costs: list[tuple[int, int]]
    # words recovered on d columns, and the smallest residual of a label a
    # probed word did not pass over its threshold (None: no such label)
    label_fallbacks: int = 0
    label_margin_min: float | None = None

    def stats_dict(self) -> dict:
        return {**self.stats.as_dict(), "rounds": self.rounds, "wall_ms": self.wall_ms,
                "label_fallbacks": self.label_fallbacks,
                "label_margin_min": self.label_margin_min}


def find_representative(store: ObservationStore, word: Word) -> int | None:
    """Index of the first access word whose row equals word's row."""
    return store.index().get(store.row(word))


def close_store(store: ObservationStore, alphabet: EventAlphabet) -> None:
    """Add one-event extensions to the access words until every extension
    has a representative. Each added extension has a row unlike every access
    word when it is added. The test words stay fixed, so an addition never
    takes a representative away from an earlier extension, and one pass over
    the growing access list suffices unless a cached label changes: a
    re-derivation (see ObservationStore) can show two access rows equal
    after the fact. So each pass first keeps only the first access word of
    each row, and a pass that changed a label is made again; the table is
    left closed and separable.

    The cells the table lacks that a pass will certainly read are fetched
    together, in the order it reads them: those of the access rows, then, on
    reaching the first access word not yet covered, those of the extensions
    of it and every later access word. Access words are only appended within
    a pass, so it computes the same words in the same order as reading each
    cell on its own when first needed, and labels and counts are the same.
    """
    while True:
        relabels = store.registry.relabels
        store.fetch(store.missing_cells(store.access_words))
        # store the access rows, so that the extension fetch below does not
        # hand over again the cells of access words that are extensions too
        store.drop_shared_rows()
        fetched = 0  # access words whose extension cells were fetched
        for i, word in enumerate(store.access_words):  # also visits words appended below
            if i == fetched:
                fetched = len(store.access_words)
                store.fetch(store.missing_cells(w + (e,) for w in store.access_words[i:]
                                                for e in range(len(alphabet))))
            for e in range(len(alphabet)):
                extension = word + (e,)
                if find_representative(store, extension) is None:
                    store.access_words.append(extension)
        if store.registry.relabels == relabels:
            return


def build_hypothesis(store: ObservationStore, alphabet: EventAlphabet) -> SwitchedSystem:
    """Hypothesis system over the current words: one node per access word
    (empty word initial), transitions to the representative of each
    one-event extension, looked up in one index() by the extension's stored
    row, node labels taken from the word's own output, the first cell of its
    row."""
    index = store.index()
    delta = []
    for word in store.access_words:
        targets = tuple(index.get(store.row(word + (e,))) for e in range(len(alphabet)))
        if None in targets:
            raise NotClosed(f"extension of {word!r} by event {targets.index(None)} has "
                            "no representative; close the store first")
        delta.append(targets)
    gamma = tuple(store.row(word)[0] for word in store.access_words)
    fa = Fa(num_nodes=len(store.access_words), initial=0, alphabet=alphabet,
            delta=tuple(delta), gamma=gamma)
    canonical = store.registry.canonical
    return SwitchedSystem(fa=fa, matrices=tuple(canonical), d=canonical[0].shape[0])


def process_counterexample(word: Word, hypothesis: SwitchedSystem,
                           store: ObservationStore) -> tuple[Word, Word]:
    """Extract one new access word and one new test word from a counterexample.

    Along the hypothesis run of the counterexample, splice each visited
    node's access word with the remaining suffix and query its output label.
    The first and last labels differ, so a flip between adjacent positions
    exists; binary search on the range endpoints finds one with at most
    ceil(log2(n)) queries beyond the two endpoints. When the probe gives the
    endpoints equal labels, both are re-derived on d columns (the probe may
    have taken a new label for a known one), without output computations,
    and NotACounterexample is raised only if they still agree. The flip
    position yields an access word not yet in the store and a suffix
    distinguishing it from its current representative.
    """
    n = len(word)
    nodes = run(hypothesis.fa, word)

    def spliced(i: int) -> int:
        return store.label(store.access_words[nodes[i]] + word[i:])

    if spliced(0) == spliced(n):
        # a probe can take a new label for a known one: derive both on d columns
        store.rederive([word, store.access_words[nodes[n]]])
    if spliced(0) == spliced(n):
        raise NotACounterexample(
            f"word {word!r} produces the hypothesis's own output label")
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spliced(mid) != spliced(lo):
            hi = mid
        else:
            lo = mid
    new_access = store.access_words[nodes[lo]] + (word[lo],)
    new_test = word[lo + 1:]
    return new_access, new_test


def learn(obs: ObservationOracle, eq: EquivalenceOracle, alphabet: EventAlphabet,
          *, label_tol: float = LABEL_TOL, max_rounds: int | None = None,
          max_outputs: int | None = None) -> LearnResult:
    """Learn a system language-equivalent to the one behind the oracles.

    Each learn reads every output through one ObservationStore on obs.
    label_tol must be positive and finite (ValueError otherwise).
    max_rounds, when given, caps hypothesis/equivalence iterations; without
    it rounds are uncapped, since each counterexample adds one access word
    and their number is bounded by the hidden node count. max_outputs caps
    total output computations on obs, including those of an equivalence
    oracle that shares obs. Exceeding either raises BudgetExceeded. The
    learner's own output computations are refused before they run; an
    equivalence check is not interrupted, and BudgetExceeded is raised as
    soon as it returns past the cap.
    """
    t0 = time.perf_counter()
    io0 = obs.stats.io_queries
    eq0 = eq.stats.equivalence_queries
    store = ObservationStore(obs, label_tol=label_tol, max_outputs=max_outputs)
    rounds = 0
    counterexample_costs: list[tuple[int, int]] = []
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            raise BudgetExceeded(f"no equivalent hypothesis after {rounds} rounds")
        close_store(store, alphabet)
        hypothesis = build_hypothesis(store, alphabet)
        rounds += 1
        counterexample = eq.check(hypothesis)
        if max_outputs is not None and store.spent > max_outputs:
            raise BudgetExceeded(f"more than {max_outputs} output computations "
                                 f"({store.spent} after an equivalence check)")
        if counterexample is None:
            break
        before = store.spent
        new_access, new_test = process_counterexample(counterexample, hypothesis, store)
        counterexample_costs.append((len(counterexample), store.spent - before))
        # one mutation step: the new access word is only separable from its
        # current representative once the new test word is present too
        store.access_words.append(new_access)
        if new_test not in store.test_words:
            store.test_words.append(new_test)

    stats = QueryStats()
    stats.io_queries = obs.stats.io_queries - io0
    stats.output_computations = store.spent
    stats.equivalence_queries = eq.stats.equivalence_queries - eq0
    return LearnResult(system=hypothesis, stats=stats, rounds=rounds,
                       wall_ms=(time.perf_counter() - t0) * 1000.0,
                       access_words=list(store.access_words),
                       test_words=list(store.test_words),
                       counterexample_costs=counterexample_costs,
                       label_fallbacks=store.registry.fallbacks,
                       label_margin_min=store.registry.margin_min)


def max_outputs_for_counterexample(length: int) -> int:
    """Worst-case output computations to process a counterexample of the
    given length: the two endpoints plus one per halving."""
    return 2 + math.ceil(math.log2(length)) if length > 1 else 2
