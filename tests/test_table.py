"""The observation table against the row-index closure it replaced.

reference_close_store and reference_build_hypothesis rebuild every row from
labels on every pass, as the learner did before it kept one table per
learn. The learner must ask the same queries in the same order, and learn
the same models, with either.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlearn import (BoundedTestingEquivalenceOracle, Fa, GenConfig, NotClosed,
                         ObservationStore, SwitchedSystem, SwitchLearnError,
                         WhiteBoxEquivalenceOracle, WhiteBoxObservationOracle, learn, learner,
                         random_system, save_json)

from conftest import make_demo2d_system, row


def reference_row_index(store):
    """Map from each access word's row to the first access word having it."""
    index = {}
    for i, word in enumerate(store.access_words):
        index.setdefault(row(word, store.test_words, store.label), i)
    return index


def reference_close_store(store, alphabet):
    """One pass over the growing access words, indexing them by row first;
    each fetch gets every access and extension cell, cached or not."""
    store.fetch(w + t for w in store.access_words for t in store.test_words)
    index = reference_row_index(store)
    fetched = 0
    for i, word in enumerate(store.access_words):
        if i == fetched:
            fetched = len(store.access_words)
            store.fetch(w + (e,) + t for w in store.access_words[i:]
                        for e in range(len(alphabet)) for t in store.test_words)
        for e in range(len(alphabet)):
            extension = word + (e,)
            extension_row = row(extension, store.test_words, store.label)
            if extension_row not in index:
                index[extension_row] = len(store.access_words)
                store.access_words.append(extension)


def reference_build_hypothesis(store, alphabet):
    index = reference_row_index(store)
    delta = []
    for word in store.access_words:
        targets = []
        for e in range(len(alphabet)):
            target = index.get(row(word + (e,), store.test_words, store.label))
            if target is None:
                raise NotClosed(f"extension of {word!r} by event {e} has no representative")
            targets.append(target)
        delta.append(tuple(targets))
    gamma = tuple(store.label(word) for word in store.access_words)
    fa = Fa(num_nodes=len(store.access_words), initial=0, alphabet=alphabet,
            delta=tuple(delta), gamma=gamma)
    canonical = store.registry.canonical
    return SwitchedSystem(fa=fa, matrices=tuple(canonical), d=canonical[0].shape[0])


class RecordingObservationOracle(WhiteBoxObservationOracle):
    """A white-box trace oracle that records each queried word in order."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.words = []

    def exec_query(self, x0, word):
        self.words.append(tuple(word))
        return super().exec_query(x0, word)


@contextmanager
def table(reference):
    """learn with the row-index reference closure and hypothesis when
    reference is set, with the learner's own otherwise."""
    if not reference:
        yield
        return
    with mock.patch.object(learner, "close_store", reference_close_store), \
            mock.patch.object(learner, "build_hypothesis", reference_build_hypothesis):
        yield


def learn_outcome(hidden, l_max, reference):
    """Everything one learn shows: the words sent to exec_query in order,
    and the model, label bytes, word lists, counterexample costs and
    counts, or the error raised."""
    obs = RecordingObservationOracle(hidden)
    eq = (WhiteBoxEquivalenceOracle(hidden) if l_max is None
          else BoundedTestingEquivalenceOracle(obs, l_max))
    try:
        with table(reference):
            result = learn(obs, eq, hidden.fa.alphabet)
    except SwitchLearnError as exc:
        return obs.words, (type(exc), str(exc), obs.stats.as_dict())
    counts = {k: v for k, v in result.stats_dict().items() if k != "wall_ms"}
    labels = np.stack(result.system.matrices).tobytes()
    return obs.words, (save_json(result.system), labels, result.access_words,
                       result.test_words, result.counterexample_costs, counts)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), num_nodes=st.integers(1, 12),
       num_events=st.integers(2, 4), num_labels=st.integers(1, 6), dim=st.integers(1, 5),
       l_max=st.one_of(st.none(), st.integers(0, 4)))
def test_table_asks_the_reference_queries_in_order(seed, num_nodes, num_events,
                                                   num_labels, dim, l_max):
    # l_max None: exact equivalence; otherwise bounded testing to l_max
    hidden = random_system(GenConfig(num_nodes, num_events, num_labels, dim, seed))
    words, outcome = learn_outcome(hidden, l_max, reference=False)
    reference_words, reference_outcome = learn_outcome(hidden, l_max, reference=True)
    assert words == reference_words
    assert outcome == reference_outcome


def handed_words(hidden, reference):
    """The words learn's closure prefetches hand to cached_outputs, those of
    them not cached at the time, and the learn's result."""
    handed, uncached = [], []
    original = learner.cached_outputs

    def recording(obs, registry, words, *args):
        words = list(words)
        handed.extend(words)
        uncached.extend(w for w in dict.fromkeys(words) if w not in registry.cache)
        return original(obs, registry, words, *args)

    with mock.patch.object(learner, "cached_outputs", recording), table(reference):
        result = learn(WhiteBoxObservationOracle(hidden),
                       WhiteBoxEquivalenceOracle(hidden), hidden.fa.alphabet)
    return handed, uncached, result


def test_prefetches_hand_over_each_table_cell_once():
    # the north-star instance: each (row word, test word) cell of the final
    # table, the access words and their one-event extensions under every
    # test word, is handed over exactly once; the row-index closure handed
    # over every cell of every row on every pass
    hidden = random_system(GenConfig(num_nodes=100, num_events=5, num_labels=10,
                                     dim=20, seed=2026))
    handed, uncached, result = handed_words(hidden, reference=False)
    events = range(len(hidden.fa.alphabet))
    rows = dict.fromkeys(result.access_words + [w + (e,) for w in result.access_words
                                                for e in events])
    cells = [w + t for w in rows for t in result.test_words]
    assert sorted(handed) == sorted(cells)
    assert len(handed) == 2505
    reference_handed, reference_uncached, reference_result = handed_words(hidden,
                                                                          reference=True)
    assert len(reference_handed) == 7697
    # the words not cached when handed over are the same, in the same order
    assert uncached == reference_uncached
    assert len(uncached) == 2101
    assert result.stats.as_dict() == reference_result.stats.as_dict()


@contextmanager
def rows_read():
    """Within the block, the number of calls to ObservationStore.row and
    ObservationStore._cells, by name."""
    counts = Counter()

    def counted(name):
        method = getattr(ObservationStore, name)

        def counting(self, *args):
            counts[name] += 1
            return method(self, *args)
        return counting

    with mock.patch.object(ObservationStore, "row", counted("row")), \
            mock.patch.object(ObservationStore, "_cells", counted("_cells")):
        yield counts


def hypothesis_or_refusal(build, store, alphabet):
    """The saved hypothesis build makes of store, or NotClosed."""
    try:
        return save_json(build(store, alphabet))
    except NotClosed:
        return NotClosed


def test_hypothesis_of_a_closed_store_reads_no_row():
    # every round of a learn: the transitions close_store found are taken
    # as they are, and they are those of the row-index reference
    hidden = random_system(GenConfig(num_nodes=12, num_events=3, num_labels=4, dim=3, seed=7))
    alphabet = hidden.fa.alphabet
    store = ObservationStore(WhiteBoxObservationOracle(hidden))
    eq = WhiteBoxEquivalenceOracle(hidden)
    for rounds in range(1, 20):
        learner.close_store(store, alphabet)
        with rows_read() as counts:
            hypothesis = learner.build_hypothesis(store, alphabet)
        assert counts == {}
        assert save_json(hypothesis) == save_json(reference_build_hypothesis(store, alphabet))
        counterexample = eq.check(hypothesis)
        if counterexample is None:
            break
        new_access, new_test = learner.process_counterexample(counterexample, hypothesis, store)
        store.access_words.append(new_access)
        if new_test not in store.test_words:
            store.test_words.append(new_test)
    assert counterexample is None and rounds > 2


def changed_store(change):
    """The demo model's store after its first closure and hypothesis, then
    changed: the counterexample's test word or access word appended, or a
    label cached wrongly before the closure re-derived (a relabel) and the
    shared rows dropped; and that first hypothesis, saved."""
    hidden = make_demo2d_system()
    alphabet = hidden.fa.alphabet
    store = ObservationStore(WhiteBoxObservationOracle(hidden))
    if change == "relabel":
        # (e1,) taken for the empty word's label, as a probe may take a
        # new label for a known one: its row then equals the empty word's
        store.fetch([(), (0,)])
        store.registry.cache[(0,)] = store.registry.cache[()]
    learner.close_store(store, alphabet)
    before = learner.build_hypothesis(store, alphabet)
    counterexample = WhiteBoxEquivalenceOracle(hidden).check(before)
    new_access, new_test = learner.process_counterexample(counterexample, before, store)
    if change == "test word":
        store.test_words.append(new_test)
    elif change == "access word":
        store.access_words.append(new_access)
    else:
        store.rederive([(0,)])
        assert store.registry.relabels == 1
        store.drop_shared_rows()
    return store, alphabet, save_json(before)


@pytest.mark.parametrize("change", ["test word", "access word", "relabel"])
def test_hypothesis_after_a_change_is_read_from_the_rows(change):
    # a test word or a relabel drops the transitions close_store found, with
    # the index; an access word adds rows to the index and remaps none. The
    # hypothesis is the reference's, or both refuse it
    store, alphabet, before = changed_store(change)
    hypothesis = hypothesis_or_refusal(learner.build_hypothesis, store, alphabet)
    assert hypothesis == hypothesis_or_refusal(reference_build_hypothesis, store, alphabet)
    assert hypothesis != before
