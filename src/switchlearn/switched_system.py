"""Switched linear systems: an automaton whose node labels resolve to
full-rank square matrices, with trace semantics and JSON (de)serialization.

Reading a word walks the automaton; each visited node applies its matrix to
the current state, including the last node reached. A word of length n
therefore produces n + 2 states. execute traces one word; stacked traces of
many words at once belong to the white-box oracle's exec_runs.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automaton import EventAlphabet, Fa, Word, check_word
from .errors import DimensionMismatch, InvalidEvent, ParseError, ValidationError
from .linalg import is_full_rank


@dataclass(frozen=True)
class Violation:
    kind: str  # "missing_matrix" | "bad_dimension" | "rank_deficient_label"
    label: int

    def __str__(self):
        return f"{self.kind}(label={self.label})"


@dataclass(frozen=True, eq=False)
class SwitchedSystem:
    """An automaton whose label ids index d x d matrices. Construction checks
    that structure and raises ValidationError naming a d below 1 alone, else
    each missing_matrix label (increasing), then each bad_dimension label.
    Rank is left to validate: hidden systems may be degenerate on purpose."""

    fa: Fa
    matrices: tuple[np.ndarray, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError([f"dimension d={self.d} is not positive"])
        count, shape = len(self.matrices), (self.d, self.d)
        violations = [Violation("missing_matrix", label)
                      for label in sorted(set(self.fa.gamma)) if label >= count]
        violations += [Violation("bad_dimension", label)
                       for label, matrix in enumerate(self.matrices) if matrix.shape != shape]
        if violations:
            raise ValidationError(violations)
        # each node's matrix, so that a step of execute indexes once
        object.__setattr__(self, "_node_matrices",
                           tuple(self.matrices[label] for label in self.fa.gamma))

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label matrices, node labels and transitions as arrays for the
        white-box oracle's stacked traces, built at the first one: most
        systems made are never traced that way. The node labels are of the
        least unsigned type that holds a label."""
        labels = np.array(self.fa.gamma, dtype=np.min_scalar_type(len(self.matrices) - 1))
        return np.stack(self.matrices), labels, np.array(self.fa.delta)


def execute(system: SwitchedSystem, x0: np.ndarray, word: Word) -> list[np.ndarray]:
    """State sequence from x0 under word; length |word| + 2.

    x0 may be a single state (1-D, d entries) or a matrix of k column
    states; every state in the result has the same shape as x0, and the
    first is x0 as a float array. The word is validated before any step,
    as run does (InvalidEvent naming its first bad event). Each step
    is matrix.dot(x), the same BLAS product as matrix @ x and bit-equal to
    it, without the ufunc dispatch that @ pays per call; the automaton is
    walked in the same loop, reading each node's matrix directly, and an
    event that is not an integer (a bool reads as 0 or 1) is InvalidEvent.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != system.d:
        raise DimensionMismatch(
            f"initial state has shape {x.shape}, expected {system.d} rows")
    fa, node_matrices = system.fa, system._node_matrices
    check_word(fa, word)
    delta, node = fa.delta, fa.initial
    states = [x]
    x = node_matrices[node].dot(x)
    states.append(x)
    try:
        for e in word:
            node = delta[node][e]
            x = node_matrices[node].dot(x)
            states.append(x)
    except TypeError:
        raise InvalidEvent(f"event {e!r} is not an integer") from None
    return states


def validate(system: SwitchedSystem) -> list[Violation]:
    """A rank_deficient_label violation for each matrix, in label order,
    that is not full rank at tolerance; empty when valid. The structure is
    checked when the system is made."""
    return [Violation("rank_deficient_label", label)
            for label, matrix in enumerate(system.matrices) if not is_full_rank(matrix)]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _is_int(value) -> bool:
    """True for a JSON integer: bool subclasses int, but JSON's true and
    false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_json(text: str) -> SwitchedSystem:
    """Parse and validate a serialized system. ParseError: malformed text,
    or a field missing or of the wrong JSON type. ValidationError: a
    non-finite matrix entry (an integer too large for a float included), or
    a violated invariant, raised by its owner: EventAlphabet and Fa (only
    the first violation named), SwitchedSystem, then validate's rank check."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("d", "events", "num_nodes", "initial", "delta", "gamma", "matrices"):
        _expect(key in obj, f"missing field {key!r}")
    _expect(_is_int(obj["d"]), "d must be an integer")
    _expect(isinstance(obj["events"], list) and all(isinstance(e, str) for e in obj["events"]),
            "events must be a list of strings")
    _expect(_is_int(obj["num_nodes"]), "num_nodes must be an integer")
    _expect(_is_int(obj["initial"]), "initial must be an integer")
    _expect(isinstance(obj["delta"], list)
            and all(isinstance(row, list) and all(_is_int(t) for t in row)
                    for row in obj["delta"]),
            "delta must be a list of rows of integers")
    _expect(isinstance(obj["gamma"], list) and all(_is_int(g) for g in obj["gamma"]),
            "gamma must be a list of integers")
    _expect(isinstance(obj["matrices"], list), "matrices must be a list")

    try:
        fa = Fa(num_nodes=obj["num_nodes"], initial=obj["initial"],
                alphabet=EventAlphabet(obj["events"]),
                delta=tuple(tuple(row) for row in obj["delta"]),
                gamma=tuple(obj["gamma"]))
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc

    matrices = []
    for k, rows in enumerate(obj["matrices"]):
        _expect(isinstance(rows, list)
                and all(isinstance(r, list)
                        and all(_is_int(v) or isinstance(v, float) for v in r)
                        for r in rows),
                f"matrix {k} must be a list of numeric rows")
        _expect(len({len(r) for r in rows}) <= 1,
                f"matrix {k} has rows of different lengths")
        try:
            matrix = np.array(rows, dtype=float)
            finite = np.all(np.isfinite(matrix))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValidationError([f"matrix {k} has non-finite entries"])
        matrices.append(matrix)

    system = SwitchedSystem(fa=fa, matrices=tuple(matrices), d=obj["d"])
    violations = validate(system)
    if violations:
        raise ValidationError(violations)
    return system


def save_json(system: SwitchedSystem) -> str:
    """Deterministic JSON text for a system; inverse of load_json."""
    obj = {
        "d": system.d,
        "events": list(system.fa.alphabet.names),
        "num_nodes": system.fa.num_nodes,
        "initial": system.fa.initial,
        "delta": [list(row) for row in system.fa.delta],
        "gamma": list(system.fa.gamma),
        "matrices": [m.tolist() for m in system.matrices],
    }
    return json.dumps(obj, indent=2) + "\n"
