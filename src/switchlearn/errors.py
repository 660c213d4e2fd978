"""Exception types shared across the package."""


class SwitchLearnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SwitchLearnError):
    """Operands have incompatible shapes."""


class SingularBasis(SwitchLearnError):
    """An output matrix cannot be recovered from its trace: elimination
    with partial pivoting met a basis pivot not above tolerance, LAPACK
    found the basis singular, or the recovered matrix (the empty word's
    output, its traced image, included) has a non-finite entry. Passing
    these checks does not bound the recovery error; see the README's
    "Tolerances and numerics"."""


class InvalidEvent(SwitchLearnError):
    """An event index or name is not part of the alphabet."""


class AlphabetMismatch(SwitchLearnError):
    """Two automata being compared use different event alphabets."""


class ParseError(SwitchLearnError):
    """Model text is not syntactically valid or misses required fields."""


class ValidationError(SwitchLearnError):
    """Model is well-formed but violates a semantic invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class AmbiguousLabel(SwitchLearnError):
    """A recovered matrix is within tolerance of more than one known label;
    the label tolerance is misconfigured for this system."""


class NotClosed(SwitchLearnError):
    """Hypothesis construction was attempted on a non-closed word store."""


class NotACounterexample(SwitchLearnError):
    """A word handed in as a counterexample does not actually separate the
    hypothesis from the hidden system."""


class BudgetExceeded(SwitchLearnError):
    """A configured safety cap on learning rounds or queries was hit."""


class GenerationFailed(SwitchLearnError):
    """Random system generation exhausted its retry budget."""
