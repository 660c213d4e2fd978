"""Exception types shared across the package."""


class SwitchLearnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SwitchLearnError):
    """Operands have incompatible shapes."""


class SingularBasis(SwitchLearnError):
    """An output matrix cannot be recovered from its trace: LAPACK found
    the basis singular, the recovery's error bound is too large even after
    refinement, the recovered matrix (the empty word's output, its traced
    image, included) has a non-finite entry or fails the probe check; or a
    state that the bounded equivalence oracle checks a word on is not
    finite. See the README's "Tolerances and numerics"."""


class InvalidEvent(SwitchLearnError):
    """An event index or name is not part of the alphabet."""


class AlphabetMismatch(SwitchLearnError):
    """Two automata being compared use different event alphabets."""


class ParseError(SwitchLearnError):
    """Model text is not JSON, or a field is missing or of the wrong type."""


class ValidationError(SwitchLearnError):
    """Model is well-formed but violates an invariant; the object owning a
    structural invariant raises this when it is made."""

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
