import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchlearn import (AmbiguousLabel, DimensionMismatch, EventAlphabet, Fa, GenConfig,
                         InvalidEvent, LabelRegistry, SingularBasis, SwitchedSystem,
                         SwitchLearnError, WhiteBoxObservationOracle,
                         cached_output, cached_outputs, compute_output,
                         identity, mat_approx_eq, output_of, random_system,
                         recover_transform, run)
from switchlearn import oracle, output_query, switched_system
from switchlearn.output_query import PROBE_BATCH, STACK_MIN, rederive

from conftest import (DEMO2D_MATRICES, OSErrorObservationOracle, count_maximal,
                      make_contracting_system)

E1, E2 = 0, 1


def test_two_event_output_recovery(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    recovered = compute_output(obs, (E1, E2))
    assert np.max(np.abs(recovered - DEMO2D_MATRICES[1])) <= 1e-9


def test_empty_word_output_is_initial_label(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    recovered = compute_output(obs, ())
    assert np.max(np.abs(recovered - DEMO2D_MATRICES[0])) <= 1e-12


def test_query_cost_is_constant(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    compute_output(obs, ())
    assert obs.stats.io_queries == 2  # d columns for the empty word
    assert obs.stats.output_computations == 1
    compute_output(obs, (E1, E2, E2))
    assert obs.stats.io_queries == 4  # d columns for any non-empty word too
    assert obs.stats.output_computations == 2


def two_trace_output(obs, word):
    """Output recovery from separate trace queries of word minus its last
    event and of word."""
    d = obs.dimension()
    basis = obs.exec_query(identity(d), word[:-1])[-1]
    return recover_transform(basis, obs.exec_query(identity(d), word)[-1])


def test_one_trace_recovery_equals_two_trace_recovery(demo2d_system):
    rng = np.random.default_rng(5)
    for system in (demo2d_system, conditioned_system(6, 3, 4, 5, seed=11)):
        obs = WhiteBoxObservationOracle(system)
        for length in range(1, 13):
            word = tuple(int(e) for e in rng.integers(
                0, len(system.fa.alphabet), length))
            assert np.array_equal(compute_output(obs, word),
                                  two_trace_output(obs, word))


def conditioned_system(num_nodes, num_events, num_labels, dim, seed):
    """Random system whose matrices have singular values in [0.5, 1.5], so
    state bases stay provably invertible over the word lengths tested here
    (uniform-entry matrices can drive long products numerically singular)."""
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(num_labels):
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        matrices.append((u * rng.uniform(0.5, 1.5, dim)) @ v)
    fa = Fa(num_nodes=num_nodes, initial=0,
            alphabet=EventAlphabet(tuple(f"e{i+1}" for i in range(num_events))),
            delta=tuple(tuple(int(t) for t in rng.integers(0, num_nodes, num_events))
                        for _ in range(num_nodes)),
            gamma=tuple(int(g) for g in rng.integers(0, num_labels, num_nodes)))
    return SwitchedSystem(fa=fa, matrices=tuple(matrices), d=dim)


def test_recovery_matches_hidden_labels_on_random_systems():
    rng = np.random.default_rng(42)
    for trial in range(25):
        system = conditioned_system(num_nodes=int(rng.integers(1, 9)),
                                    num_events=int(rng.integers(1, 4)),
                                    num_labels=int(rng.integers(1, 5)),
                                    dim=int(rng.integers(1, 7)),
                                    seed=trial)
        obs = WhiteBoxObservationOracle(system)
        for _ in range(8):
            word = tuple(int(e) for e in rng.integers(
                0, len(system.fa.alphabet), rng.integers(0, 11)))
            recovered = compute_output(obs, word)
            true_label = system.fa.gamma[run(system.fa, word)[-1]]
            assert mat_approx_eq(recovered, system.matrices[true_label], 1e-8)


def test_recovery_classifies_correctly_on_uniform_systems():
    # uniform-entry matrices as the benchmark generator draws them; short
    # words keep the basis conditioning well inside the label tolerance
    rng = np.random.default_rng(7)
    for trial in range(15):
        config = GenConfig(num_nodes=int(rng.integers(1, 9)),
                           num_events=int(rng.integers(1, 4)),
                           num_labels=int(rng.integers(1, 5)),
                           dim=int(rng.integers(1, 7)),
                           seed=trial, full_rank_threshold=0.1)
        system = random_system(config)
        obs = WhiteBoxObservationOracle(system)
        for _ in range(8):
            word = tuple(int(e) for e in rng.integers(
                0, len(system.fa.alphabet), rng.integers(0, 6)))
            recovered = compute_output(obs, word)
            true_label = system.fa.gamma[run(system.fa, word)[-1]]
            assert mat_approx_eq(recovered, system.matrices[true_label], 1e-6)


def test_singular_label_propagates():
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("e1",)),
            delta=((0,),), gamma=(0,))
    degenerate = SwitchedSystem(fa=fa, matrices=(np.array([[1.0, 0.0],
                                                           [0.0, 0.0]]),), d=2)
    obs = WhiteBoxObservationOracle(degenerate)
    with pytest.raises(SingularBasis):
        compute_output(obs, (0,))


@pytest.mark.parametrize("d", [2, 3, 5, 20])
def test_word_past_a_repeated_column_label_is_refused(d):
    # node 1's label repeats a column, so the basis of every word that
    # passes it is rank-deficient: its recovery is refused, never returned
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    repeated = rng.uniform(-1.0, 1.0, (d, d))
    repeated[:, -1] = repeated[:, 0]
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("e1",)), delta=((1,), (0,)),
            gamma=(0, 1))
    obs = WhiteBoxObservationOracle(SwitchedSystem(fa=fa, matrices=(q, repeated), d=d))
    assert mat_approx_eq(compute_output(obs, (0,)), repeated, 1e-9)
    for n in range(2, 13):
        with pytest.raises(SingularBasis):
            compute_output(obs, (0,) * n)


@pytest.mark.parametrize("n", [20, 40])
def test_contracting_system_recovers_long_words(n):
    # the basis of 0^n is 10^-n times an orthonormal matrix: every pivot is
    # tiny, and the recovery is still exact
    system = make_contracting_system()
    obs = WhiteBoxObservationOracle(system)
    assert mat_approx_eq(compute_output(obs, (0,) * n), system.matrices[0], 1e-9)
    assert obs.stats.io_queries == 3  # no refinement


def test_registry_assigns_and_reuses_ids():
    registry = LabelRegistry(tol=1e-6)
    assert registry.classify(DEMO2D_MATRICES[0]) == 0
    assert registry.classify(DEMO2D_MATRICES[1]) == 1
    assert registry.classify(DEMO2D_MATRICES[1] + 0.5e-6) == 1
    assert registry.classify(DEMO2D_MATRICES[2]) == 2
    assert len(registry) == 3


def test_registry_ambiguity_detected():
    registry = LabelRegistry(tol=1.0)
    registry.classify(np.zeros((2, 2)))
    registry.classify(np.full((2, 2), 1.5))
    with pytest.raises(AmbiguousLabel):
        registry.classify(np.full((2, 2), 0.75))


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_registry_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="label tolerance"):
        LabelRegistry(tol=tol)


@pytest.mark.parametrize("first, other", [
    (np.eye(2), np.eye(3)),
    (np.eye(3), np.eye(2)),
    (np.eye(2), np.ones(2)),
    (np.eye(2), np.ones((2, 3))),
    (np.eye(2), np.ones((1, 2, 2))),
])
@pytest.mark.parametrize("canonical", [True, False])
def test_registry_refuses_a_matrix_of_another_shape(first, other, canonical):
    registry = LabelRegistry(canonical=[first]) if canonical else LabelRegistry()
    if not canonical:
        assert registry.classify(first) == 0
    with pytest.raises(DimensionMismatch, match=re.escape(f"{other.shape}") + ".*"
                       + re.escape(f"{first.shape}")):
        registry.classify(other)
    assert len(registry) == 1 and registry.classify(first) == 0


def classify_by_loop(canonical, matrix, tol):
    """Reference interning: one max-abs comparison per canonical matrix."""
    hits = [i for i, known in enumerate(canonical)
            if np.max(np.abs(known - matrix)) <= tol]
    if len(hits) > 1:
        return "ambiguous"
    return hits[0] if hits else len(canonical)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 4), tol=st.sampled_from([1e-6, 0.25]),
       offsets=st.lists(st.integers(-4, 4), max_size=6),
       probes=st.lists(st.tuples(st.integers(-4, 4),
                                 st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9])),
                       min_size=1, max_size=6),
       seed=st.integers(0, 1000), where=st.sampled_from(["corner", "elsewhere", "both"]))
def test_registry_classify_matches_per_matrix_loop(d, tol, offsets, probes, seed, where):
    # canonical matrices and the probes sit at multiples of tol/2 from one
    # centre, so probes land just inside, on, or just outside tol of one or
    # two labels, and a label added by one probe may take later ones. The
    # offset is at entry [0, 0], elsewhere (all labels share [0, 0]), or at
    # both, with half the step at [0, 0]
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-2, 2, (d, d))
    direction = np.zeros((d, d))
    if where != "corner" and d > 1:
        i, j = rng.integers(d), rng.integers(1, d)
        direction[(i, j) if rng.random() < 0.5 else (j, i)] = 1.0
    direction[0, 0] = {"corner": 1.0, "elsewhere": 0.0, "both": 0.5}[where] if d > 1 else 1.0
    canonical = [centre + k * tol / 2 * direction for k in offsets]
    labels = list(canonical)
    registry = LabelRegistry(tol=tol, canonical=list(canonical))
    for k, nudge in probes:
        matrix = centre + k * nudge * tol / 2 * direction
        label = classify_by_loop(labels, matrix, tol)
        if label == "ambiguous":
            with pytest.raises(AmbiguousLabel):
                registry.classify(matrix)
            break
        if label == len(labels):
            labels.append(matrix)
        assert registry.classify(matrix) == label
    assert len(registry) == len(labels)
    for a, b in zip(registry.canonical, labels):
        assert np.array_equal(a, b)


def non_finite_at(entry, value):
    matrix = np.zeros((2, 2))
    matrix[entry] = value
    return matrix


def test_registry_nan_never_agrees():
    registry = LabelRegistry(tol=1e-6, canonical=[np.zeros((2, 2))])
    nan = np.array([[0.0, np.nan], [0.0, 0.0]])
    assert [registry.classify(m) for m in (nan, nan, np.zeros((2, 2)))] == [1, 2, 0]
    # inf - inf is NaN, so an inf label takes no later inf either
    for value in (np.nan, np.inf, -np.inf):
        probes = [non_finite_at(entry, value) for entry in ((0, 0), (0, 0), (1, 0), (1, 0))]
        canonical = [np.zeros((2, 2)), non_finite_at((0, 0), value),
                     non_finite_at((1, 0), value)]
        registry = LabelRegistry(tol=1e-6, canonical=canonical)
        with np.errstate(invalid="ignore"):
            ids = [registry.classify(m) for m in probes + [non_finite_at((0, 0), 0.5e-6)]]
        assert ids == [3, 4, 5, 6, 0] and len(registry) == 7


def reference_output(obs, registry, cache, word):
    """Per-word reference for cached_output and cached_outputs: the label
    of compute_output's matrix, memoized by word."""
    if word not in cache:
        cache[word] = registry.classify(compute_output(obs, word))
    return cache[word]


def test_cached_output_no_extra_queries(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    registry = LabelRegistry()
    cache = registry.cache
    first = cached_output(obs, registry, cache, (E1, E2))
    spent = obs.stats.io_queries
    second = cached_output(obs, registry, cache, (E1, E2))
    assert first == second
    assert obs.stats.io_queries == spent


def test_cache_clear_reproduces_ids(demo2d_system):
    obs = WhiteBoxObservationOracle(demo2d_system)
    registry = LabelRegistry()
    words = [(), (E1,), (E2,), (E1, E1), (E1, E2), (E2, E1), (E2, E2)]
    cache = registry.cache
    ids = [cached_output(obs, registry, cache, w) for w in words]
    cache.clear()
    again = [cached_output(obs, registry, cache, w) for w in words]
    assert ids == again == [0, 1, 2, 0, 2, 2, 0]
    assert len(registry) == 3  # the demo model uses exactly three labels


def test_registry_never_exceeds_hidden_label_count():
    for seed in range(10):
        config = GenConfig(num_nodes=6, num_events=2, num_labels=4, dim=3,
                           seed=seed)
        system = random_system(config)
        obs = WhiteBoxObservationOracle(system)
        registry = LabelRegistry()
        cache = registry.cache
        rng = np.random.default_rng(seed)
        for _ in range(40):
            word = tuple(int(e) for e in rng.integers(0, 2, rng.integers(0, 9)))
            lid = cached_output(obs, registry, cache, word)
            true_label = output_of(system.fa, word)
            assert mat_approx_eq(registry.canonical[lid],
                                 system.matrices[true_label], 1e-6)
        assert len(registry) <= len(system.matrices)


def test_cached_outputs_matches_cached_output_word_by_word():
    # more words than one stack, with duplicates, the empty word and words
    # cached beforehand
    for seed in range(5):
        system = random_system(GenConfig(num_nodes=8, num_events=3, num_labels=4,
                                         dim=5, seed=seed))
        rng = np.random.default_rng(seed)
        words = [tuple(int(e) for e in rng.integers(0, 3, rng.integers(0, 6)))
                 for _ in range(3 * PROBE_BATCH)]
        one, many = WhiteBoxObservationOracle(system), WhiteBoxObservationOracle(system)
        one_registry, many_registry = LabelRegistry(), LabelRegistry()
        one_cache, many_cache = one_registry.cache, many_registry.cache
        for w in words[:5]:
            cached_output(many, many_registry, many_cache, w)
        pending = [w for w in words if w not in many_cache]
        io, fallbacks = many.stats.io_queries, many_registry.fallbacks
        cached_outputs(many, many_registry, words)
        ids = [reference_output(one, one_registry, one_cache, w) for w in words]
        assert [many_cache[w] for w in words] == ids
        # one column per maximal word, and d per word no label or several pass
        io += count_maximal(pending) + 5 * (many_registry.fallbacks - fallbacks)
        assert many.stats.as_dict() == {**one.stats.as_dict(), "io_queries": io}
        # a fallback interns each label, and no known label is recovered again
        assert many_registry.fallbacks == len(many_registry)
        assert len(one_registry) == len(many_registry)
        for a, b in zip(one_registry.canonical, many_registry.canonical):
            assert np.array_equal(a, b)


def test_cached_outputs_reads_prefixes_off_one_trace(demo2d_system):
    # every label is known, so the three words cost one trace of one column
    obs = WhiteBoxObservationOracle(demo2d_system)
    registry = LabelRegistry(canonical=DEMO2D_MATRICES)
    cached_outputs(obs, registry, [(), (E1,), (E1, E2)])
    assert obs.stats.io_queries == 1
    assert obs.stats.output_computations == 3
    assert registry.cache == {(): 0, (E1,): 2, (E1, E2): 1}
    # with no label known, each word is a fallback: d = 2 more columns each
    obs, registry = WhiteBoxObservationOracle(demo2d_system), LabelRegistry()
    cached_outputs(obs, registry, [(), (E1,), (E1, E2)])
    assert obs.stats.io_queries == 1 + 3 * 2
    assert registry.cache == {(): 0, (E1,): 1, (E1, E2): 2}


def one_node_system(matrix):
    fa = Fa(num_nodes=1, initial=0, alphabet=EventAlphabet(("a",)), delta=((0,),), gamma=(0,))
    return SwitchedSystem(fa=fa, matrices=(np.array(matrix, dtype=float),), d=len(matrix))


def test_cached_outputs_empty_word_output_is_its_image():
    # as in compute_output, not a solve against the identity basis
    system = one_node_system([[1.0, 0.3], [0.7, 1.2]])
    registry = LabelRegistry()
    cached_outputs(WhiteBoxObservationOracle(system), registry, [(), (0,)])
    image = compute_output(WhiteBoxObservationOracle(system), ())
    assert np.array_equal(registry.canonical[0], image)
    # a non-finite image is refused like any non-finite output: nothing is
    # interned, and the refused word is counted
    system = one_node_system([[np.inf, 1.0], [1.0, 1.0]])
    obs = WhiteBoxObservationOracle(system)
    registry = LabelRegistry()
    with np.errstate(invalid="ignore"), pytest.raises(
            SingularBasis, match=r"not finite: entry \(0, 0\) is inf"):
        cached_outputs(obs, registry, [(), (0,)])
    assert len(registry) == 0 and registry.cache == {}
    assert obs.stats.output_computations == 1


def test_compute_output_refuses_non_finite_empty_word_output():
    obs = WhiteBoxObservationOracle(one_node_system([[1.0, 1.0], [np.nan, 1.0]]))
    with pytest.raises(SingularBasis, match=r"not finite: entry \(1, 0\) is nan"):
        compute_output(obs, ())
    assert obs.stats.output_computations == 1


@st.composite
def word_lists(draw):
    """Words over events 0..2, with prefixes of earlier or later words, the
    empty word and duplicates inserted among them."""
    words = draw(st.lists(st.lists(st.integers(0, 2), max_size=6).map(tuple),
                          max_size=45))
    for source, cut, at in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 6),
                                                   st.integers(0, 99)), max_size=30)):
        if words:
            words.insert(at % (len(words) + 1), words[source % len(words)][:cut])
    return words


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 5), events=st.integers(1, 3), labels=st.integers(1, 4),
       seed=st.integers(0, 10_000), degenerate=st.booleans(), untraceable=st.booleans(),
       tol=st.sampled_from([1e-6, 0.4, 1.0]), words=word_lists(),
       cached=st.lists(st.integers(0, 99), max_size=5),
       limit=st.none() | st.integers(0, 60))
# a fallback interns the true label of an earlier accepted word, whose
# re-derivation is then refused and drops it from the cache
@example(d=5, events=3, labels=2, seed=853, degenerate=True, untraceable=False, tol=0.4,
         words=[(), (0, 0), (0, 1), (0,)], cached=[], limit=None)
@example(d=4, events=1, labels=2, seed=853, degenerate=True, untraceable=False, tol=0.4,
         words=[(), (0, 0), (0,)], cached=[], limit=None)
@example(d=4, events=2, labels=3, seed=1855, degenerate=True, untraceable=False, tol=1.0,
         words=[(0, 1), (), (0,), (1,), (0, 0), (1, 0), (0, 1, 0), (0, 0, 0, 0)], cached=[],
         limit=None)
def test_cached_outputs_matches_cached_output_property(d, events, labels, seed, degenerate,
                                                       untraceable, tol, words, cached, limit):
    system = conditioned_system(6, events, labels, d, seed)
    if degenerate:  # the last label loses rank: words through it have singular bases
        matrices = list(system.matrices)
        matrices[-1] = matrices[-1] * np.r_[np.ones(d - 1), 0.0]
        system = SwitchedSystem(fa=system.fa, matrices=tuple(matrices), d=d)
    words = [tuple(e % events for e in w) for w in words]
    # with untraceable, every trace of a word holding event 1 fails, so a
    # word read off a longer word's trace may outlive that trace
    oracle = OSErrorObservationOracle if untraceable else WhiteBoxObservationOracle
    sides = []
    for _ in range(2):
        obs, registry = oracle(system), LabelRegistry(tol)
        cache = registry.cache
        for i in cached:
            if words:
                try:
                    reference_output(obs, registry, cache, words[i % len(words)])
                except (SwitchLearnError, OSError):
                    pass
        sides.append((obs, registry, cache))
    (one, one_registry, one_cache), (many, many_registry, many_cache) = sides
    pending = list(dict.fromkeys(w for w in words if w not in one_cache))[:limit]
    expected = None
    for w in pending:
        try:
            reference_output(one, one_registry, one_cache, w)
        except (SwitchLearnError, OSError) as exc:
            expected = exc
            break
    io, outputs = many.stats.io_queries, many.stats.output_computations
    with mock.patch.object(output_query, "_refine", wraps=output_query._refine) as refine, \
            mock.patch.object(output_query, "rederive", wraps=output_query.rederive) as redo:
        try:
            cached_outputs(many, many_registry, words, limit)
            error = None
        except (SwitchLearnError, OSError) as exc:
            error = exc
    done = [w for w in pending if w in many_cache]
    counted = many.stats.output_computations - outputs
    if error is None:
        assert done == pending[:len(done)] and counted == len(done)
    else:
        # the k words before the failing one are counted and cached, less
        # the accepted words whose re-derivation was refused: a raising
        # rederive leaves its words uncached, and only a raising one does
        k = counted - 1
        dropped = {w for call in redo.call_args_list for w in call.args[2]
                   if w not in many_cache}
        assert done == [w for w in pending[:k] if w not in dropped]
    # one column per maximal word, and d per word no label or several pass
    traced = many.stats.io_queries - io
    if error is None:
        assert traced == count_maximal(pending) + d * many_registry.fallbacks
    else:
        # later words of the failing stack may have been traced, and a
        # rank-deficient basis that LAPACK does not find singular is refused
        # only after its refinement's trace (d more columns)
        assert refine.call_count <= isinstance(error, SingularBasis)
        assert traced <= count_maximal(pending) + d * (many_registry.fallbacks
                                                        + refine.call_count)

    def truth(w):
        return system.matrices[output_of(system.fa, w)]

    def labelled_within_tol(w):
        return mat_approx_eq(many_registry.canonical[many_cache[w]], truth(w), tol + 1e-9)

    # an accepted word's label is the one interned label its pair passes, so
    # it is true whenever a label within tol of its output is interned
    for w in done:
        if any(mat_approx_eq(c, truth(w), tol) for c in many_registry.canonical):
            assert labelled_within_tol(w)
    if tol == 1e-6:
        # labels are far apart at this tolerance: the probe labels every word
        # the reference labels with its id and label matrix, and fails where
        # it fails with its error, unless it labels that word too (a word the
        # reference refuses for a singular basis may pass a known label)
        labelled = [w for w in pending if w in one_cache]
        assert done[:len(labelled)] == labelled
        assert [many_cache[w] for w in labelled] == [one_cache[w] for w in labelled]
        for a, b in zip(one_registry.canonical, many_registry.canonical):
            assert np.array_equal(a, b)
        if expected is None:
            assert error is None and many_cache == one_cache
            assert len(many_registry) == len(one_registry)
        elif len(done) == len(labelled):
            assert type(error) is type(expected) and str(error) == str(expected)
        else:
            assert isinstance(expected, SingularBasis)
    # a second read: one word of each output re-derived on d columns, as the
    # learner re-derives a counterexample's endpoints; every label it interns
    # rescreens the accepted words, and then every word of an output so
    # interned carries a label within tol of it
    interned = set()
    for w in done:
        label = output_of(system.fa, w)
        if label in interned or w not in many_cache:
            continue
        io, fallbacks = many.stats.io_queries, many_registry.fallbacks
        try:
            rederive(many, many_registry, [w])
        except (SwitchLearnError, OSError):
            continue
        interned.add(label)
        assert many.stats.io_queries - io == d * (many_registry.fallbacks - fallbacks)
    for w in done:
        if w in many_cache and output_of(system.fa, w) in interned:
            assert labelled_within_tol(w)


def lapack_singular_word():
    """A generator system and a length-80 word whose basis LAPACK's LU
    factorization finds exactly singular."""
    system = random_system(GenConfig(10, 3, 4, 5, 1))
    draws = np.random.default_rng(0).integers(0, 3, (10, 80))
    return system, tuple(int(e) for e in draws[7])


def test_lapack_singular_basis_raises_singular_basis():
    system, word = lapack_singular_word()
    with pytest.raises(SingularBasis, match="LAPACK"):
        compute_output(WhiteBoxObservationOracle(system), word)


def test_lapack_singular_basis_mid_stack():
    system, bad = lapack_singular_word()
    rng = np.random.default_rng(3)
    good = [tuple(int(e) for e in rng.integers(0, 3, 6)) for _ in range(4)]
    words = good[:2] + [bad] + good[2:]
    one, many = WhiteBoxObservationOracle(system), WhiteBoxObservationOracle(system)
    one_registry, many_registry = LabelRegistry(), LabelRegistry()
    one_cache, many_cache = one_registry.cache, many_registry.cache
    with pytest.raises(SingularBasis, match="LAPACK"):
        cached_outputs(many, many_registry, words)
    with pytest.raises(SingularBasis, match="LAPACK"):
        for w in words:
            reference_output(one, one_registry, one_cache, w)
    assert many_cache == one_cache and len(many_cache) == 2
    assert many.stats.output_computations == one.stats.output_computations == 3


def test_cached_outputs_limit_counts_uncached_words(demo2d_system):
    obs, registry = WhiteBoxObservationOracle(demo2d_system), LabelRegistry()
    cache = registry.cache
    cached_output(obs, registry, cache, (E1,))
    words = [(E1,), (E2,), (E2,), (E1, E2), (E2, E1)]
    cached_outputs(obs, registry, words, limit=2)
    assert list(cache) == [(E1,), (E2,), (E1, E2)]
    assert obs.stats.output_computations == 3
    cached_outputs(obs, registry, words, limit=0)
    assert obs.stats.output_computations == 3
    # a negative limit would slice from the end of the uncached words
    with pytest.raises(ValueError, match="limit"):
        cached_outputs(obs, registry, words, limit=-1)
    assert list(cache) == [(E1,), (E2,), (E1, E2)]
    # one column per word; d = 2 more for (E1,) and (E2,), whose labels
    # the registry lacks when they are read, not for (E1, E2), labelled as
    # (E2,)
    assert obs.stats.as_dict() == {"io_queries": 3 + 2 * 2, "output_computations": 3,
                                   "equivalence_queries": 0}


def ambiguous_then_singular():
    """A 1-D system where (b,) recovers label 0, (a,) recovers 0.75,
    ambiguous between labels 0 and 1.5 at tol 1, and (b, a) has the zero
    state as its basis."""
    fa = Fa(num_nodes=2, initial=0, alphabet=EventAlphabet(("a", "b")),
            delta=((0, 1), (1, 1)), gamma=(0, 1))
    system = SwitchedSystem(fa=fa, matrices=(np.array([[0.75]]), np.array([[0.0]])), d=1)
    registry = LabelRegistry(tol=1.0, canonical=[np.zeros((1, 1)), np.full((1, 1), 1.5)])
    return WhiteBoxObservationOracle(system), registry


@pytest.mark.parametrize("words, error", [
    ([(1,), (0,), (1, 0)], AmbiguousLabel),
    ([(1,), (1, 0), (0,)], SingularBasis),
])
def test_cached_outputs_raises_the_first_error_in_word_order(words, error):
    # the whole stack is recovered before any word is classified; the error
    # of the earlier word still wins, after the same output computations
    obs, registry = ambiguous_then_singular()
    with pytest.raises(error):
        cached_outputs(obs, registry, words)
    one, one_registry = ambiguous_then_singular()
    with pytest.raises(error):
        for w in words:
            reference_output(one, one_registry, {}, w)
    assert obs.stats.output_computations == one.stats.output_computations == 2
    assert len(registry) == len(one_registry) == 2


def test_cached_outputs_caches_the_words_before_a_failing_trace():
    # the hidden system has events 0 and 1, so the trace query of (2,) raises
    system = random_system(GenConfig(3, 2, 2, 2, 0))
    words = [(0,), (1,), (2,)]
    many, many_registry = WhiteBoxObservationOracle(system), LabelRegistry()
    many_cache = many_registry.cache
    with pytest.raises(InvalidEvent) as stacked:
        cached_outputs(many, many_registry, words)
    one, one_registry = WhiteBoxObservationOracle(system), LabelRegistry()
    one_cache = one_registry.cache
    with pytest.raises(InvalidEvent) as single:
        for w in words:
            reference_output(one, one_registry, one_cache, w)
    assert str(stacked.value) == str(single.value)
    assert many_cache == one_cache and list(many_cache) == [(0,), (1,)]
    assert many.stats.output_computations == one.stats.output_computations == 3
    # the refused trace of (2,) is charged too
    assert many.stats.io_queries == 3 + system.d * many_registry.fallbacks


def test_cached_outputs_reads_the_prefixes_of_an_untraceable_word_off_another_trace(
        demo2d_system):
    # every word is read off the trace of (E1, E1, E2), which fails; the
    # others are read off the trace of (E1, E1), and only (E1, E1, E2) fails
    obs = OSErrorObservationOracle(demo2d_system)
    registry = LabelRegistry(canonical=DEMO2D_MATRICES)
    with pytest.raises(OSError, match="trace lost"):
        cached_outputs(obs, registry, [(), (E1,), (E1, E1), (E1, E1, E2)])
    assert list(registry.cache) == [(), (E1,), (E1, E1)]
    assert obs.stats.output_computations == 4
    assert obs.stats.io_queries == 1  # one trace of (E1, E1), one column


class LoopingObservationOracle(WhiteBoxObservationOracle):
    """A white-box oracle whose exec_query is its own: exec_runs makes its
    queries one at a time, as for any oracle that overrides it. It records
    the word of each one-column query."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.words = []

    def exec_query(self, x0, word):
        if np.size(x0) == self.dimension():
            self.words.append(tuple(word))
        return super().exec_query(x0, word)


def first_reader_order(words):
    """The maximal words among words, each in the place of the first word
    it is the least maximal extension of: the one-column traces that
    cached_outputs makes for words, in order, when none is cached."""
    words = list(dict.fromkeys(words))
    maximal = sorted(w for w in words
                     if not any(len(v) > len(w) and v[:len(w)] == w for v in words))
    covers = [next(m for m in maximal if m[:len(w)] == w) for w in words]
    return list(dict.fromkeys(covers))


def test_cached_outputs_traces_each_stack_in_one_stacked_call():
    # three stacks of mostly maximal words: the white-box oracle traces the
    # covers of each in one call of a word array, the looping oracle one
    # word at a time, in the same order as a trace of one cover at a time;
    # labels, health and counts agree
    system = conditioned_system(12, 4, 4, 4, 7)
    rng = np.random.default_rng(7)
    words = [tuple(int(e) for e in rng.integers(0, 4, rng.integers(4, 10)))
             for _ in range(3 * PROBE_BATCH)]
    # prefixes, read off the traces of longer words, mixed into each stack
    for at in range(10, 3 * PROBE_BATCH, 25):
        words.insert(at, words[at + 1][:2])
    outcomes = []
    for make in (WhiteBoxObservationOracle, LoopingObservationOracle):
        obs, registry, calls = make(system), LabelRegistry(), []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "execute",
                          lambda *args: calls.append(args) or switched_system.execute(*args))
            cached_outputs(obs, registry, words)
        outcomes.append((obs, registry, calls))
    (stacked, stacked_registry, stacked_calls), (looped, looped_registry, looped_calls) = outcomes
    assert stacked_registry.cache == looped_registry.cache
    assert len(stacked_registry.cache) == len(set(words))
    assert (np.stack(stacked_registry.canonical).tobytes()
            == np.stack(looped_registry.canonical).tobytes())
    assert stacked_registry.margin_min == looped_registry.margin_min
    assert stacked_registry.fallbacks == looped_registry.fallbacks
    assert stacked.stats.as_dict() == looped.stats.as_dict()
    # one word array per stack, whose rows are the words the looping oracle
    # traced on one column, in order, zero-padded to the stack's longest;
    # every other call is a recovery on d
    arrays = [args[2] for args in stacked_calls if np.ndim(args[2]) == 2]
    assert len(arrays) == 3 and all(len(array) >= STACK_MIN for array in arrays)
    assert looped.words == first_reader_order(words)
    rows, padded = [], []
    for array in arrays:
        stack = looped.words[len(rows):len(rows) + len(array)]
        padded += [w + (0,) * (max(map(len, stack)) - len(w)) for w in stack]
        rows += map(tuple, array.tolist())
    assert rows == padded and len(rows) == len(looped.words)
    assert all(np.shape(args[1]) == (4, 4) for args in stacked_calls if np.ndim(args[2]) == 1)
    assert len(looped_calls) == len(looped.words) + len(stacked_calls) - 3


class RefusingLoopingOracle(OSErrorObservationOracle):
    """OSErrorObservationOracle (traces of words holding event 1 fail) that
    records the word of each query, refused ones included, and the number
    of words of each exec_runs call."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.words, self.calls = [], []

    def exec_query(self, x0, word):
        self.words.append(tuple(word))
        return super().exec_query(x0, word)

    def exec_runs(self, x0s, words, size):
        self.calls.append(len(words))
        return super().exec_runs(x0s, words, size)


def test_a_wide_stack_re_routes_refused_traces_as_a_narrow_one_does(monkeypatch):
    # every cover w·1 is refused: its first reader w is read off a trace of
    # w alone, in a new call with the covers after it, until a cover that
    # is its own first reader is refused and raised; traced one cover at a
    # time (STACK_MIN out of reach), the queries, labels and counts are
    # the same
    system = conditioned_system(12, 3, 3, 3, 5)
    rng = np.random.default_rng(5)
    words = [tuple(int(e) for e in 2 * rng.integers(0, 2, rng.integers(6, 11)))
             for _ in range(150)]
    words += [w + (1,) for w in words[:60:6]]  # refused covers, after their readers
    outcomes, calls = [], []
    for stack_min in (STACK_MIN, 10**9):
        monkeypatch.setattr(output_query, "STACK_MIN", stack_min)
        obs, registry = RefusingLoopingOracle(system), LabelRegistry()
        with pytest.raises(OSError, match="trace lost"):
            cached_outputs(obs, registry, words)
        outcomes.append((obs.words, registry.cache, obs.stats.as_dict()))
        calls.append(obs.calls)
    assert outcomes[0] == outcomes[1]
    # the wide stack's covers went in one call, and those left in one more
    # after each refusal; traced one at a time, no call was made
    wide, narrow = calls
    assert len(wide) > 2 and min(wide) >= STACK_MIN and narrow == []
    queried, cache, _ = outcomes[0]
    *rerouted, raised = [w for w in queried if 1 in w]
    assert rerouted and raised == words[150]
    assert all(w[:-1] in cache for w in rerouted)
    assert list(cache) == list(dict.fromkeys(words[:150]))
