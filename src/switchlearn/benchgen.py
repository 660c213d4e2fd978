"""Seeded random switched-system generation for benchmarks and tests.

Transitions and node labels are drawn uniformly; subsystem matrices have
entries uniform in [-1, 1] and are rejection-sampled until full-rank. The
PCG64 generator behind numpy's default_rng keeps draws reproducible across
platforms for a given seed.
"""

from dataclasses import dataclass

import numpy as np

from .automaton import EventAlphabet, Fa, reachable_nodes, reachable_part
from .errors import GenerationFailed
from .linalg import is_full_rank
from .switched_system import SwitchedSystem

_DELTA_RETRIES = 200
_MATRIX_RETRIES = 100


@dataclass(frozen=True)
class GenConfig:
    num_nodes: int
    num_events: int
    num_labels: int
    dim: int
    seed: int
    full_rank_threshold: float = 1e-6
    require_reachable: bool = True

    def __post_init__(self):
        for name in ("num_nodes", "num_events", "num_labels", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # inf is allowed: no matrix passes, so generation fails with GenerationFailed
        if not self.full_rank_threshold >= 0:
            raise ValueError("full_rank_threshold must be >= 0, "
                             f"got {self.full_rank_threshold}")


def random_system(config: GenConfig) -> SwitchedSystem:
    """Deterministic-in-seed random system matching config.

    Node 0 is the initial node. When require_reachable is set, transition
    tables are re-drawn a bounded number of times; if none is fully
    reachable the reachable restriction is used (fewer nodes than asked).
    Labels not hit by the draw are dropped, so the matrix count can be
    below num_labels.
    """
    rng = np.random.default_rng(config.seed)
    alphabet = EventAlphabet(f"e{i + 1}" for i in range(config.num_events))

    delta = rng.integers(0, config.num_nodes,
                         size=(config.num_nodes, config.num_events))
    if config.require_reachable:
        for _ in range(_DELTA_RETRIES):
            if len(reachable_nodes(delta, 0)) == config.num_nodes:
                break
            delta = rng.integers(0, config.num_nodes,
                                 size=(config.num_nodes, config.num_events))
    gamma = rng.integers(0, config.num_labels, size=config.num_nodes)

    fa = Fa(num_nodes=config.num_nodes, initial=0, alphabet=alphabet,
            delta=tuple(tuple(int(t) for t in row) for row in delta),
            gamma=tuple(int(g) for g in gamma))
    if config.require_reachable and len(reachable_nodes(delta, 0)) < config.num_nodes:
        fa = reachable_part(fa)

    used = sorted(set(fa.gamma))
    remap = {old: new for new, old in enumerate(used)}
    fa = Fa(num_nodes=fa.num_nodes, initial=fa.initial, alphabet=alphabet,
            delta=fa.delta, gamma=tuple(remap[g] for g in fa.gamma))

    matrices = []
    for _ in used:
        for _ in range(_MATRIX_RETRIES):
            candidate = rng.uniform(-1.0, 1.0, size=(config.dim, config.dim))
            if is_full_rank(candidate, config.full_rank_threshold):
                matrices.append(candidate)
                break
        else:
            raise GenerationFailed(
                f"no full-rank {config.dim}x{config.dim} matrix found in "
                f"{_MATRIX_RETRIES} draws at threshold "
                f"{config.full_rank_threshold:g}")
    return SwitchedSystem(fa=fa, matrices=tuple(matrices), d=config.dim)
