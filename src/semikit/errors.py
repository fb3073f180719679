"""Exception hierarchy.

Every error the library raises derives from SemikitError so callers can
catch the whole family at once. Names follow the operation contracts.
InvalidValue also derives from ValueError, so that callers which catch a
ValueError from the constructors and functions it covers keep working.
"""


class SemikitError(Exception):
    """Base class for all semikit errors."""


class ParseError(SemikitError):
    """Input text or file does not parse under the documented grammars."""


class InvalidValue(SemikitError, ValueError):
    """An argument lies outside the set the object or operation is defined
    on (a unit-interval entry past 1, an unsorted vector, a table that is
    not a semi-metric, a preserver that moves 0, an unknown audit space or
    family, p < 1, a tolerance that is not positive)."""


class ResultTooLarge(SemikitError):
    """A result is too large to render in a report."""


class NegativeScalar(SemikitError):
    """A construction path would have produced a negative scalar."""


class ZeroInverse(SemikitError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(SemikitError):
    """Operands have incompatible dimensions."""


class NotRepresentable(SemikitError):
    """Vector has no nonnegative coordinate family in the given basis."""


class NonUnique(SemikitError):
    """Two distinct nonnegative coordinate families exist; not a semi-basis."""


class NotABasis(SemikitError):
    """The given family fails the semi-basis validation probes."""


class ZeroVector(SemikitError):
    """A nonzero vector is required."""


class NotSquare(SemikitError):
    """A square matrix or operator is required."""


class CaseOutsidePaper(SemikitError):
    """The structured 2x2 solver was called outside its supported case table."""


class NoConvergence(SemikitError):
    """Iteration exhausted max_iter without meeting the tolerance."""


class ReducibleMatrix(SemikitError):
    """The primitivity probe failed; the power method is not certified."""


class UnsupportedTail(SemikitError):
    """Sequence-space operation requires a zero tail (finite support)."""


class IntervalMismatch(SemikitError):
    """Piecewise-linear functions live on different intervals."""


class CarrierMismatch(SemikitError):
    """Audit objects are defined over different carriers or spaces."""


class DomainTooSmall(SemikitError):
    """Candidate preserver is not defined on the full range of metric values."""


class NonComposableChain(SemikitError):
    """Linear maps do not chain; codomain/domain dimensions disagree."""


class OrderMismatch(SemikitError):
    """Semi-algebra elements have different orders."""


class NotInvertible(SemikitError):
    """Element has no nonnegative two-sided inverse."""


class GridMismatch(SemikitError):
    """Fuzzy level grids could not be reconciled by refinement."""


class NotABijection(SemikitError):
    """The index map is not a permutation of 1..n."""


class EmptyInput(SemikitError):
    """At least one element is required."""
