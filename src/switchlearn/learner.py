"""Active learning loop for event-driven switched linear systems.

The learner keeps one observation table per learn, as in L*: access words,
each believed to reach a distinct node of the hidden automaton, and test
words. A word's row is the tuple of output labels of the word followed by
each test word; two words are told apart exactly when their rows differ.
The table is also the learn's one membership path: every output label the
learner uses is read through it (see output_query.cached_outputs), within
the learn's output budget. Its one read path, ObservationStore.rows,
fetches the cells that a list of words lacks in one call, in the order
they are read, and extends each word's stored row from the output cache,
so each cell is read into the table once per learn. The loop closes the
access set under one-event extensions in waves, one rows call each (an
extension whose row no access word has becomes a new access word), builds
a hypothesis whose transitions are the representatives that closure
found, asks the equivalence oracle, and on a counterexample
locates (by binary search over output labels along the hypothesis run)
one new access word and one new test word. Access words only ever grow,
and their number is bounded by the hidden node count, so the loop
terminates with a language-equivalent system.
"""

import math
import time
from dataclasses import dataclass

from .automaton import EPSILON, EventAlphabet, Fa, Word, run
from .errors import BudgetExceeded, NotACounterexample
from .linalg import LABEL_TOL
from .oracle import EquivalenceOracle, ObservationOracle, QueryStats
from .output_query import LabelRegistry, cached_output, cached_outputs, rederive
from .switched_system import SwitchedSystem


class ObservationStore:
    """The observation table of one learn: insertion-ordered access and test
    words (the empty word leads both), the row of every word read so far,
    and the outputs behind them.

    Both word lists are public and append-only. Rows are read through rows,
    which extends a stored row by the cells it lacks, so appending to either
    list needs no further step, and each (word, test word) cell is read once.

    Labels are read from obs through label (one word) and fetch (many), into
    one LabelRegistry at label_tol (positive and finite, ValueError
    otherwise), which owns the labels, the output cache and the evidence
    behind them (see cached_outputs).
    max_outputs, when given, caps the output computations on obs from the
    store's creation on (spent): label refuses an uncached word once they
    are spent, before computing it. rederive re-derives words on d columns
    outside the budget. When a re-derivation changes a cached label, the
    stored rows are read again from the cache.
    """

    def __init__(self, obs: ObservationOracle, *, label_tol: float = LABEL_TOL,
                 max_outputs: int | None = None):
        self.access_words: list[Word] = [EPSILON]
        self.test_words: list[Word] = [EPSILON]
        self.registry = LabelRegistry(tol=label_tol)
        self.max_outputs = max_outputs
        self._obs = obs
        self._outputs0 = obs.stats.output_computations
        self._relabels = 0  # registry.relabels when the rows were last rebuilt
        self._rows: dict[Word, tuple[int, ...]] = {}

    @property
    def spent(self) -> int:
        """Output computations on obs since the store was made."""
        return self._obs.stats.output_computations - self._outputs0

    def label(self, word: Word) -> int:
        """Label id of word's output (word: any sequence of event indices),
        computed when not cached; an uncached word is refused with
        BudgetExceeded once the budget is spent."""
        word, cache = tuple(word), self.registry.cache
        if (self.max_outputs is not None and word not in cache
                and self.spent >= self.max_outputs):
            raise BudgetExceeded(f"more than {self.max_outputs} output computations")
        return cached_output(self._obs, self.registry, cache, word)

    def fetch(self, words) -> None:
        """Compute the labels of an iterable of words together, in order, so
        that label finds them cached. Capped at the budget, so label refuses
        the same word as without the fetch."""
        limit = None if self.max_outputs is None else max(0, self.max_outputs - self.spent)
        cached_outputs(self._obs, self.registry, words, limit)

    def rederive(self, words) -> None:
        """Re-derive the labels of words on d columns (see
        output_query.rederive): trace queries, but no output computations."""
        rederive(self._obs, self.registry, words)

    def _refresh(self) -> None:
        """Drop the stored rows, to be read again from the cache, when a
        re-derivation changed a cached label since. Only rows reads them: it
        calls this on entry, for a change by any call since (a failed one
        too), and after its fetch."""
        if self.registry.relabels != self._relabels:
            self._rows.clear()
            self._relabels = self.registry.relabels

    def rows(self, words: list[Word]) -> list[tuple[int, ...]]:
        """The rows of words, in order, each stored (see _refresh). The cells
        they lack are fetched together, in the order they are read, and each
        row is then extended from the output cache. A cell the budget left
        uncomputed goes through label, which refuses it with BudgetExceeded;
        the rows of the words before it are stored by then."""
        self._refresh()
        stored, tests, cache = self._rows, self.test_words, self.registry.cache
        self.fetch([w + t for w in words for t in tests[len(stored.get(w, ())):]])
        self._refresh()
        rows = []
        for w in words:
            cells = stored.get(w, ())
            if len(cells) < len(tests):
                try:
                    cells += tuple([cache[w + t] for t in tests[len(cells):]])
                except KeyError as missing:  # past the budget: label refuses it
                    self.label(missing.args[0])
                    raise
                stored[w] = cells
            rows.append(cells)
        return rows

    def row(self, word: Word) -> tuple[int, ...]:
        """word's row (see rows)."""
        return self.rows([word])[0]

    def index(self) -> dict[tuple[int, ...], int]:
        """Map from each access word's row to the first access word having it."""
        index: dict[tuple[int, ...], int] = {}
        for i, row in enumerate(self.rows(self.access_words)):
            index.setdefault(row, i)
        return index


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
    """Index of the first access word whose row equals word's row, or None."""
    return store.index().get(store.row(word))


def close_store(store: ObservationStore, alphabet: EventAlphabet) -> list[int]:
    """Add one-event extensions to the access words until every extension
    has a representative, an access word with its row; return the
    representatives of the extensions of each access word, in order.

    A pass indexes the access rows, keeping the first access word of each
    (access rows become equal only when a re-derivation changes a cached
    label). It then reads the extension rows in waves of one rows call: the
    extensions of every access word, then those of the access words the
    last wave added. An extension whose row is not in the index becomes an
    access word. The test words stay fixed, so an addition never takes a
    representative away from an earlier extension, and one pass suffices
    unless a cached label changes: once one has changed, the index is
    rebuilt after each wave, and the pass is made again. The table is left
    closed and separable, and the last pass's representatives are returned.

    A wave fetches its missing cells in read order, and access words are
    only appended within a pass, so a pass computes the same words in the
    same order as reading each cell on its own when first needed.
    """
    events, words = range(len(alphabet)), store.access_words
    while True:
        relabels = store.registry.relabels
        index = store.index()
        if len(index) < len(words):
            words[:] = [words[i] for i in index.values()]
            index = store.index()
        targets, start = [], 0
        while start < len(words):
            wave, start = [w + (e,) for w in words[start:] for e in events], len(words)
            rows = store.rows(wave)
            if store.registry.relabels != relabels:
                index = store.index()
            for extension, row in zip(wave, rows):
                targets.append(index.setdefault(row, len(words)))
                if targets[-1] == len(words):
                    words.append(extension)
        if store.registry.relabels == relabels:
            return targets


def build_hypothesis(store: ObservationStore, alphabet: EventAlphabet) -> SwitchedSystem:
    """Close the table (close_store) and return the hypothesis system over
    its words: one node per access word (empty word initial), transitions
    to the representative of each one-event extension, node labels taken
    from the word's own output, the first cell of its row."""
    targets, words, events = close_store(store, alphabet), store.access_words, len(alphabet)
    delta = tuple(tuple(targets[i:i + events]) for i in range(0, len(targets), events))
    cache = store.registry.cache  # holds the label of every access word read
    gamma = tuple(cache[word] for word in words)
    fa = Fa(num_nodes=len(words), initial=0, alphabet=alphabet, delta=delta, gamma=gamma)
    canonical = store.registry.canonical
    return SwitchedSystem(fa=fa, matrices=tuple(canonical), d=canonical[0].shape[0])


def process_counterexample(word: Word, hypothesis: SwitchedSystem,
                           store: ObservationStore) -> tuple[Word, Word]:
    """Extract one new access word and one new test word from a
    counterexample, any sequence of event indices.

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
    word = tuple(word)
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
