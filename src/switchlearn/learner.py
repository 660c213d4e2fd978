"""Active learning loop for event-driven switched linear systems.

The learner keeps one observation table per learn, as in L*: access words,
each believed to reach a distinct node of the hidden automaton, and test
words. A word's row is the tuple of output labels of the word followed by
each test word; two words are told apart exactly when their rows differ.
The table stores the row of every access word and every one-event extension
it has read, and extends a row by one cell per test word added since, so
each cell is read into the table once per learn. Its index maps each access
row to the first access word having it, rebuilt from the stored rows when a
test word is added. The loop closes the access set under one-event
extensions (an extension whose row is not in the index becomes a new access
word), builds a hypothesis whose transitions are index lookups, asks the
equivalence oracle, and on a counterexample locates (by binary search over
output labels along the hypothesis run) one new access word and one new test
word. Access words only ever grow, and their number is bounded by the hidden
node count, so the loop terminates with a language-equivalent system.
"""

import math
import time
from dataclasses import dataclass, field

from .automaton import EPSILON, EventAlphabet, Fa, Word, run
from .errors import BudgetExceeded, NotACounterexample, NotClosed
from .linalg import LABEL_TOL
from .oracle import EquivalenceOracle, ObservationOracle, QueryStats
from .output_query import LabelRegistry, cached_output, cached_outputs
from .switched_system import SwitchedSystem


@dataclass
class ObservationStore:
    """The observation table: insertion-ordered access and test words (the
    empty word leads both), and the row of every word read so far.

    Both word lists are public and append-only. A stored row is extended by
    the cells it lacks when it is next read, so appending to either list
    needs no further step, and each (word, test word) cell is read once.
    Rows are those of one query function; reading with another starts the
    table over.
    """

    access_words: list[Word] = field(default_factory=lambda: [EPSILON])
    test_words: list[Word] = field(default_factory=lambda: [EPSILON])
    _query: object = field(default=None, init=False, repr=False, compare=False)
    _rows: dict[Word, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # the first access index of each row of the leading _indexed access
    # words, under the first _width test words
    _index: dict[tuple[int, ...], int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _width: int = field(default=0, init=False, repr=False, compare=False)

    def _read_with(self, query) -> None:
        if query is not self._query:
            self._query, self._rows, self._width = query, {}, -1

    def missing_cells(self, words, query):
        """The cells the rows of words lack, word by word, each as the word
        followed by the test word."""
        self._read_with(query)
        rows, tests = self._rows, self.test_words
        return (w + t for w in words for t in tests[len(rows.get(w, ())):])

    def row(self, word: Word, query) -> tuple[int, ...]:
        """word's row: its stored cells, extended by the cells it lacks."""
        self._read_with(query)
        cells = self._rows.get(word, ())
        if len(cells) < len(self.test_words):
            cells += row(word, self.test_words[len(cells):], query)
            self._rows[word] = cells
        return cells

    def index(self, query) -> dict[tuple[int, ...], int]:
        """Map from each access word's row to the first access word having
        it: extended by the access words added since the last call, and
        rebuilt from the stored rows when a test word was added."""
        self._read_with(query)
        if self._width != len(self.test_words):
            self._index, self._indexed, self._width = {}, 0, len(self.test_words)
        while self._indexed < len(self.access_words):
            self._index.setdefault(self.row(self.access_words[self._indexed], query),
                                   self._indexed)
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

    def stats_dict(self) -> dict:
        return {**self.stats.as_dict(), "rounds": self.rounds, "wall_ms": self.wall_ms}


def row(word: Word, test_words: list[Word], query) -> tuple[int, ...]:
    """Output labels of word followed by each test word, in test-word order.
    Two words are equivalent under the current tests iff their rows are equal."""
    return tuple(query(word + t) for t in test_words)


def is_separable(store: ObservationStore, query) -> bool:
    """True iff no two distinct access words have the same row."""
    return len(store.index(query)) == len(store.access_words)


def find_representative(store: ObservationStore, word: Word, query) -> int | None:
    """Index of the first access word whose row equals word's row."""
    return store.index(query).get(store.row(word, query))


def close_store(store: ObservationStore, alphabet: EventAlphabet, query,
                on_mutation=None, prefetch=None) -> None:
    """Add one-event extensions to the access words until every extension
    has a representative. Each added extension has a row unlike every access
    word, so separability is preserved. The test words stay fixed, so an
    addition never takes a representative away from an earlier extension,
    and one pass over the growing access list suffices.

    prefetch(words), when given, computes the labels of an iterable of
    words together, in order, so that query finds them cached. It is called
    with the cells the table lacks that the pass will certainly query, in
    the order it queries them: those of the access rows, then, on reaching
    the first access word not yet covered, those of the extensions of it
    and every later access word. Access words are only appended, so the
    pass queries the same words in the same order with or without prefetch,
    and labels and counts are the same, unless on_mutation queries words
    outside the table.
    """
    if prefetch is not None:
        prefetch(store.missing_cells(store.access_words, query))
    # store the access rows, so that the extension prefetch below does not
    # hand over again the cells of access words that are extensions too
    store.index(query)
    fetched = 0  # access words whose extension cells were prefetched
    for i, word in enumerate(store.access_words):  # also visits words appended below
        if prefetch is not None and i == fetched:
            fetched = len(store.access_words)
            prefetch(store.missing_cells((w + (e,) for w in store.access_words[i:]
                                          for e in range(len(alphabet))), query))
        for e in range(len(alphabet)):
            extension = word + (e,)
            if find_representative(store, extension, query) is None:
                store.access_words.append(extension)
                if on_mutation is not None:
                    on_mutation(store, query)


def build_hypothesis(store: ObservationStore, registry: LabelRegistry,
                     alphabet: EventAlphabet, query) -> SwitchedSystem:
    """Hypothesis system over the current words: one node per access word
    (empty word initial), transitions to the representative of each
    one-event extension, node labels taken from the word's own output."""
    delta = []
    for word in store.access_words:
        targets = []
        for e in range(len(alphabet)):
            target = find_representative(store, word + (e,), query)
            if target is None:
                raise NotClosed(f"extension of {word!r} by event {e} has "
                                "no representative; close the store first")
            targets.append(target)
        delta.append(tuple(targets))
    gamma = tuple(query(word) for word in store.access_words)
    fa = Fa(num_nodes=len(store.access_words), initial=0, alphabet=alphabet,
            delta=tuple(delta), gamma=gamma)
    d = registry.canonical[0].shape[0]
    return SwitchedSystem(fa=fa, matrices=tuple(registry.canonical), d=d)


def process_counterexample(word: Word, hypothesis: SwitchedSystem,
                           store: ObservationStore, query) -> tuple[Word, Word]:
    """Extract one new access word and one new test word from a counterexample.

    Along the hypothesis run of the counterexample, splice each visited
    node's access word with the remaining suffix and query its output label.
    The first and last labels differ, so a flip between adjacent positions
    exists; binary search on the range endpoints finds one with at most
    ceil(log2(n)) queries beyond the two endpoints. The flip position yields
    an access word not yet in the store and a suffix distinguishing it from
    its current representative.
    """
    n = len(word)
    nodes = run(hypothesis.fa, word)
    labels: dict[int, int] = {}

    def spliced(i: int) -> int:
        if i not in labels:
            labels[i] = query(store.access_words[nodes[i]] + word[i:])
        return labels[i]

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
          max_outputs: int | None = None, on_mutation=None) -> LearnResult:
    """Learn a system language-equivalent to the one behind the oracles.

    label_tol must be positive and finite (ValueError otherwise).
    max_rounds caps hypothesis/equivalence iterations (default
    10 * |alphabet| * (|access words| + 1), re-evaluated each round);
    max_outputs caps total output computations on obs, including those of an
    equivalence oracle that shares obs. Exceeding either raises
    BudgetExceeded. The learner's own output computations are refused before
    they run; an equivalence check is not interrupted, and BudgetExceeded is
    raised as soon as it returns past the cap. on_mutation(store, query),
    when given, is invoked after every change to the word lists.
    """
    t0 = time.perf_counter()
    io0 = obs.stats.io_queries
    out0 = obs.stats.output_computations
    eq0 = eq.stats.equivalence_queries

    registry = LabelRegistry(tol=label_tol)
    cache: dict[Word, int] = {}
    known: set[bytes] = set()  # bases that passed the pivot test in this call

    def spent() -> int:
        return obs.stats.output_computations - out0

    def query(word: Word) -> int:
        if max_outputs is not None and word not in cache and spent() >= max_outputs:
            raise BudgetExceeded(f"more than {max_outputs} output computations")
        return cached_output(obs, registry, cache, word, known=known)

    def prefetch(words) -> None:
        # capped at the budget, so query refuses the same word as without it
        limit = None if max_outputs is None else max(0, max_outputs - spent())
        cached_outputs(obs, registry, cache, words, limit, known)

    store = ObservationStore()
    rounds = 0
    counterexample_costs: list[tuple[int, int]] = []
    while True:
        cap = (max_rounds if max_rounds is not None
               else 10 * len(alphabet) * (len(store.access_words) + 1))
        if rounds >= cap:
            raise BudgetExceeded(f"no equivalent hypothesis after {rounds} rounds")
        close_store(store, alphabet, query, on_mutation=on_mutation, prefetch=prefetch)
        hypothesis = build_hypothesis(store, registry, alphabet, query)
        rounds += 1
        counterexample = eq.check(hypothesis)
        if max_outputs is not None and spent() > max_outputs:
            raise BudgetExceeded(f"more than {max_outputs} output computations "
                                 f"({spent()} after an equivalence check)")
        if counterexample is None:
            break
        before = spent()
        new_access, new_test = process_counterexample(
            counterexample, hypothesis, store, query)
        counterexample_costs.append((len(counterexample), spent() - before))
        # one mutation step: the new access word is only separable from its
        # current representative once the new test word is present too
        store.access_words.append(new_access)
        if new_test not in store.test_words:
            store.test_words.append(new_test)
        if on_mutation is not None:
            on_mutation(store, query)

    stats = QueryStats()
    stats.io_queries = obs.stats.io_queries - io0
    stats.output_computations = spent()
    stats.equivalence_queries = eq.stats.equivalence_queries - eq0
    return LearnResult(system=hypothesis, stats=stats, rounds=rounds,
                       wall_ms=(time.perf_counter() - t0) * 1000.0,
                       access_words=list(store.access_words),
                       test_words=list(store.test_words),
                       counterexample_costs=counterexample_costs)


def max_outputs_for_counterexample(length: int) -> int:
    """Worst-case output computations to process a counterexample of the
    given length: the two endpoints plus one per halving."""
    return 2 + math.ceil(math.log2(length)) if length > 1 else 2
