import numpy as np
import pytest

from switchlearn import (GenConfig, GenerationFailed, is_full_rank,
                         random_system, save_json, validate)


def reachable_count(fa):
    seen = {fa.initial}
    frontier = [fa.initial]
    while frontier:
        node = frontier.pop()
        for e in range(len(fa.alphabet)):
            target = fa.delta[node][e]
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return len(seen)


def test_generated_system_shape():
    system = random_system(GenConfig(num_nodes=4, num_events=2, num_labels=3,
                                     dim=2, seed=7))
    assert system.fa.num_nodes == 4
    assert len(system.fa.alphabet) == 2
    assert system.d == 2
    assert len(system.matrices) <= 3
    assert validate(system) == []


def test_generation_is_deterministic():
    config = GenConfig(num_nodes=6, num_events=3, num_labels=4, dim=3, seed=123)
    assert save_json(random_system(config)) == save_json(random_system(config))


def test_different_seeds_differ():
    base = GenConfig(num_nodes=6, num_events=3, num_labels=4, dim=3, seed=1)
    other = GenConfig(num_nodes=6, num_events=3, num_labels=4, dim=3, seed=2)
    assert save_json(random_system(base)) != save_json(random_system(other))


def test_single_node_system_self_loops():
    system = random_system(GenConfig(num_nodes=1, num_events=3, num_labels=2,
                                     dim=2, seed=0))
    assert system.fa.delta == ((0, 0, 0),)


def test_generated_systems_validate_and_reach_all_nodes():
    for seed in range(20):
        system = random_system(GenConfig(num_nodes=8, num_events=2,
                                         num_labels=3, dim=3, seed=seed))
        assert validate(system) == []
        assert reachable_count(system.fa) == system.fa.num_nodes


def test_labels_are_dense_and_bounded():
    for seed in range(10):
        system = random_system(GenConfig(num_nodes=10, num_events=2,
                                         num_labels=6, dim=2, seed=seed))
        used = set(system.fa.gamma)
        assert used == set(range(len(system.matrices)))
        assert len(system.matrices) <= 6


def test_matrices_are_full_rank_at_threshold():
    config = GenConfig(num_nodes=5, num_events=2, num_labels=4, dim=4,
                       seed=11, full_rank_threshold=1e-6)
    system = random_system(config)
    for matrix in system.matrices:
        assert is_full_rank(matrix, 1e-6)
        assert np.all(np.abs(matrix) <= 1.0)


def test_large_benchmark_shape():
    system = random_system(GenConfig(num_nodes=1000, num_events=19,
                                     num_labels=19, dim=100, seed=3))
    assert system.fa.num_nodes == 1000
    assert len(system.fa.alphabet) == 19
    assert system.d == 100
    assert validate(system) == []


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        GenConfig(num_nodes=0, num_events=1, num_labels=1, dim=1, seed=0)
    with pytest.raises(ValueError):
        GenConfig(num_nodes=1, num_events=1, num_labels=1, dim=0, seed=0)


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, -float("inf")])
def test_config_rejects_a_threshold_every_matrix_passes(threshold):
    # is_full_rank calls even the zero matrix full-rank at such a threshold
    with pytest.raises(ValueError, match="full_rank_threshold must be >= 0"):
        GenConfig(num_nodes=1, num_events=1, num_labels=1, dim=1, seed=0,
                  full_rank_threshold=threshold)


def test_impossible_threshold_fails():
    config = GenConfig(num_nodes=1, num_events=1, num_labels=1, dim=1,
                       seed=0, full_rank_threshold=1e6)
    with pytest.raises(GenerationFailed):
        random_system(config)
