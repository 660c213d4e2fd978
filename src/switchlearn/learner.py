"""Active learning loop for event-driven switched linear systems.

The learner keeps one observation table per learn, as in L*: access words,
each believed to reach a distinct node of the hidden automaton, and test
words. A word's row is the tuple of output labels of the word followed by
each test word; two words are told apart exactly when their rows differ.
The table is also the learn's one membership path: every output label the
learner uses is recovered, classified and cached through it, within the
learn's output budget. It stores the row of every access word and every
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
from .output_query import LabelRegistry, cached_output, cached_outputs
from .switched_system import SwitchedSystem


class ObservationStore:
    """The observation table of one learn: insertion-ordered access and test
    words (the empty word leads both), the row of every word read so far,
    and the outputs behind them.

    Both word lists are public and append-only. A stored row is extended by
    the cells it lacks when it is next read, so appending to either list
    needs no further step, and each (word, test word) cell is read once.

    Labels are read from obs through label (one word) and fetch (many), into
    one LabelRegistry at label_tol (positive and finite, ValueError
    otherwise), one output cache, and one set of the bases that passed the
    pivot test (see cached_outputs). max_outputs, when given, caps the
    output computations on obs from the store's creation on (spent): label
    refuses an uncached word once they are spent, before computing it.
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
        self._known: set[bytes] = set()
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
        return cached_output(self._obs, self.registry, self._cache, word, known=self._known)

    def fetch(self, words) -> None:
        """Compute the labels of an iterable of words together, in order, so
        that label finds them cached. Capped at the budget, so label refuses
        the same word as without the fetch."""
        limit = None if self.max_outputs is None else max(0, self.max_outputs - self.spent)
        cached_outputs(self._obs, self.registry, self._cache, words, limit, self._known)

    def missing_cells(self, words):
        """The cells the rows of words lack, word by word, each as the word
        followed by the test word."""
        rows, tests = self._rows, self.test_words
        return (w + t for w in words for t in tests[len(rows.get(w, ())):])

    def row(self, word: Word) -> tuple[int, ...]:
        """word's row: its stored cells, extended by the cells it lacks."""
        cells = self._rows.get(word, ())
        if len(cells) < len(self.test_words):
            cells += tuple(self.label(word + t) for t in self.test_words[len(cells):])
            self._rows[word] = cells
        return cells

    def index(self) -> dict[tuple[int, ...], int]:
        """Map from each access word's row to the first access word having
        it: extended by the access words added since the last call, and
        rebuilt from the stored rows when a test word was added."""
        if self._width != len(self.test_words):
            self._index, self._indexed, self._width = {}, 0, len(self.test_words)
        while self._indexed < len(self.access_words):
            self._index.setdefault(self.row(self.access_words[self._indexed]), self._indexed)
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


def is_separable(store: ObservationStore) -> bool:
    """True iff no two distinct access words have the same row."""
    return len(store.index()) == len(store.access_words)


def find_representative(store: ObservationStore, word: Word) -> int | None:
    """Index of the first access word whose row equals word's row."""
    return store.index().get(store.row(word))


def close_store(store: ObservationStore, alphabet: EventAlphabet, on_mutation=None) -> None:
    """Add one-event extensions to the access words until every extension
    has a representative. Each added extension has a row unlike every access
    word, so separability is preserved. The test words stay fixed, so an
    addition never takes a representative away from an earlier extension,
    and one pass over the growing access list suffices.

    The cells the table lacks that the pass will certainly read are fetched
    together, in the order it reads them: those of the access rows, then, on
    reaching the first access word not yet covered, those of the extensions
    of it and every later access word. Access words are only appended, so
    the pass computes the same words in the same order as reading each cell
    on its own when first needed, and labels and counts are the same, unless
    on_mutation(store) reads words outside the table.
    """
    store.fetch(store.missing_cells(store.access_words))
    # store the access rows, so that the extension fetch below does not
    # hand over again the cells of access words that are extensions too
    store.index()
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
                if on_mutation is not None:
                    on_mutation(store)


def build_hypothesis(store: ObservationStore, alphabet: EventAlphabet) -> SwitchedSystem:
    """Hypothesis system over the current words: one node per access word
    (empty word initial), transitions to the representative of each
    one-event extension, node labels taken from the word's own output."""
    delta = []
    for word in store.access_words:
        targets = []
        for e in range(len(alphabet)):
            target = find_representative(store, word + (e,))
            if target is None:
                raise NotClosed(f"extension of {word!r} by event {e} has "
                                "no representative; close the store first")
            targets.append(target)
        delta.append(tuple(targets))
    gamma = tuple(store.label(word) for word in store.access_words)
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
    ceil(log2(n)) queries beyond the two endpoints. The flip position yields
    an access word not yet in the store and a suffix distinguishing it from
    its current representative.
    """
    n = len(word)
    nodes = run(hypothesis.fa, word)

    def spliced(i: int) -> int:
        return store.label(store.access_words[nodes[i]] + word[i:])

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

    Each learn reads every output through one ObservationStore on obs.
    label_tol must be positive and finite (ValueError otherwise).
    max_rounds caps hypothesis/equivalence iterations (default
    10 * |alphabet| * (|access words| + 1), re-evaluated each round);
    max_outputs caps total output computations on obs, including those of an
    equivalence oracle that shares obs. Exceeding either raises
    BudgetExceeded. The learner's own output computations are refused before
    they run; an equivalence check is not interrupted, and BudgetExceeded is
    raised as soon as it returns past the cap. on_mutation(store), when
    given, is invoked after every change to the word lists.
    """
    t0 = time.perf_counter()
    io0 = obs.stats.io_queries
    eq0 = eq.stats.equivalence_queries
    store = ObservationStore(obs, label_tol=label_tol, max_outputs=max_outputs)
    rounds = 0
    counterexample_costs: list[tuple[int, int]] = []
    while True:
        cap = (max_rounds if max_rounds is not None
               else 10 * len(alphabet) * (len(store.access_words) + 1))
        if rounds >= cap:
            raise BudgetExceeded(f"no equivalent hypothesis after {rounds} rounds")
        close_store(store, alphabet, on_mutation=on_mutation)
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
        if on_mutation is not None:
            on_mutation(store)

    stats = QueryStats()
    stats.io_queries = obs.stats.io_queries - io0
    stats.output_computations = store.spent
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
