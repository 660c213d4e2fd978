"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from switchlearn import (GenConfig, LabelRegistry, WhiteBoxEquivalenceOracle,
                         WhiteBoxObservationOracle, cached_output,
                         compute_output, execute, identity, learn,
                         mat_approx_eq, output_of, random_system)
from switchlearn.learner import max_outputs_for_counterexample

from conftest import (NotSeparable, make_demo2d_system, make_fault_system,
                      separability_checked)

E1, E2 = 0, 1
F, G = 0, 1


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"FAIL {tag}")
        raise
    print(f"PASS {tag}")


@pytest.fixture(scope="module")
def random_suite():
    """200 seeded reachable systems (nodes <= 12, events in 2..4,
    labels <= 6, dim <= 5) with per-word classification checks, full
    learning runs, and the table checked separable at each hypothesis."""
    rng = np.random.default_rng(20260811)
    record = {"classification_failures": 0, "equivalence_failures": 0,
              "node_bound_failures": 0, "separability_violations": 0,
              "counterexample_costs": [], "systems": 0}
    t0 = time.perf_counter()
    for idx in range(200):
        config = GenConfig(num_nodes=int(rng.integers(1, 13)),
                           num_events=int(rng.integers(2, 5)),
                           num_labels=int(rng.integers(1, 7)),
                           dim=int(rng.integers(1, 6)),
                           seed=3000 + idx, full_rank_threshold=0.3)
        hidden = random_system(config)
        obs = WhiteBoxObservationOracle(hidden)
        registry = LabelRegistry()
        cache = registry.cache
        for _ in range(50):
            word = tuple(int(e) for e in rng.integers(
                0, len(hidden.fa.alphabet), rng.integers(0, 11)))
            label_id = cached_output(obs, registry, cache, word)
            true = output_of(hidden.fa, word)
            if not mat_approx_eq(registry.canonical[label_id],
                                 hidden.matrices[true], 1e-6):
                record["classification_failures"] += 1

        try:
            with separability_checked():
                result = learn(obs, WhiteBoxEquivalenceOracle(hidden),
                               hidden.fa.alphabet)
        except NotSeparable:
            record["separability_violations"] += 1
            continue
        if WhiteBoxEquivalenceOracle(hidden).check(result.system) is not None:
            record["equivalence_failures"] += 1
        if result.system.fa.num_nodes > hidden.fa.num_nodes:
            record["node_bound_failures"] += 1
        record["counterexample_costs"].extend(result.counterexample_costs)
        record["systems"] += 1
    record["elapsed_s"] = time.perf_counter() - t0
    return record


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_two_step_output_recovery():
    with criterion("ACCEPT-01 two-step output recovery"):
        system = make_demo2d_system()
        obs = WhiteBoxObservationOracle(system)
        basis = obs.exec_query(identity(2), (E1,))[-1]
        image = obs.exec_query(identity(2), (E1, E2))[-1]
        assert np.max(np.abs(basis - [[1.69, 1.2], [1.67, 0.6]])) <= 1e-9
        assert np.max(np.abs(image - [[2.012, 0.96], [-0.181, -0.48]])) <= 1e-9
        recovered = compute_output(obs, (E1, E2))
        assert np.max(np.abs(recovered - [[0.4, 0.8], [-0.7, 0.6]])) <= 1e-9
        compute_output(obs, (E1, E2))  # warm up before timing
        best = min(_timed(lambda: compute_output(obs, (E1, E2)))
                   for _ in range(5))
        assert best < 1e-3, f"compute_output took {best * 1e3:.3f} ms"


def test_five_event_trace_reproduction():
    with criterion("ACCEPT-02 five-event trace reproduction"):
        expected = [(0.5, 0.5), (0.65, 0.95), (1.445, 1.135),
                    (1.486, -0.3305), (0.33, -1.2385), (-0.04155, -1.2552),
                    (-1.02078, -0.724035)]
        states = execute(make_demo2d_system(), np.array([0.5, 0.5]),
                         (E1, E2, E1, E2, E2))
        assert len(states) == 7
        for state, want in zip(states, expected):
            assert np.max(np.abs(state - np.array(want))) <= 1e-9


def test_learning_trace_demo_model():
    with criterion("ACCEPT-03 demo-model learning trace"):
        system = make_demo2d_system()
        result = learn(WhiteBoxObservationOracle(system),
                       WhiteBoxEquivalenceOracle(system), system.fa.alphabet)
        assert result.system.fa.num_nodes == 4
        assert result.stats.equivalence_queries == 2
        assert len(result.test_words) == 2
        assert set(result.test_words) == {(), (E2,)}
        assert WhiteBoxEquivalenceOracle(system).check(result.system) is None


def test_learning_trace_fault_mode_model():
    with criterion("ACCEPT-04 fault-mode learning trace"):
        system = make_fault_system()
        result = learn(WhiteBoxObservationOracle(system),
                       WhiteBoxEquivalenceOracle(system), system.fa.alphabet)
        assert result.system.fa.num_nodes == 4
        assert result.stats.equivalence_queries == 2
        assert result.access_words == [(), (G,), (G, G), (G, G, G)]
        assert result.test_words == [(), (G,)]


def test_random_suite_oracle_and_learning(random_suite):
    with criterion("ACCEPT-05 random-suite recovery and learning"):
        assert random_suite["systems"] == 200
        assert random_suite["classification_failures"] == 0
        assert random_suite["equivalence_failures"] == 0
        assert random_suite["node_bound_failures"] == 0
        assert random_suite["elapsed_s"] < 60.0, \
            f"suite took {random_suite['elapsed_s']:.1f} s"


def test_counterexample_query_bound(random_suite):
    with criterion("ACCEPT-06 counterexample query bound"):
        costs = random_suite["counterexample_costs"]
        assert costs, "suite processed no counterexamples"
        for length, outputs in costs:
            assert outputs <= max_outputs_for_counterexample(length), \
                f"length {length} used {outputs} output computations"


def test_scaled_benchmark():
    with criterion("ACCEPT-07 scaled benchmark"):
        config = GenConfig(num_nodes=100, num_events=5, num_labels=10,
                           dim=20, seed=2026, full_rank_threshold=0.3)
        start = time.perf_counter()
        hidden = random_system(config)
        result = learn(WhiteBoxObservationOracle(hidden),
                       WhiteBoxEquivalenceOracle(hidden), hidden.fa.alphabet)
        elapsed = time.perf_counter() - start
        assert WhiteBoxEquivalenceOracle(hidden).check(result.system) is None
        assert elapsed < 300.0, f"benchmark took {elapsed:.1f} s"
        stats = result.stats_dict()
        assert (stats["io_queries"], stats["output_computations"],
                stats["equivalence_queries"], stats["rounds"]) == (1987, 2105, 5, 5)
        # the numerical health the README quotes: one fallback per label,
        # and every label that did not pass a word missed by far
        assert stats["label_fallbacks"] == 10
        assert stats["label_margin_min"] >= 1e5


def test_separability_invariant(random_suite):
    with criterion("ACCEPT-08 separability loop invariant"):
        assert random_suite["separability_violations"] == 0
