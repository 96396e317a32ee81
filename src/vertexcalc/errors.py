"""Exception types shared across the package."""


class VertexCalcError(Exception):
    """Base class for all library errors."""


class ExponentOutsideWindow(VertexCalcError):
    """An exponent tuple was requested outside a distribution's window."""


class NonSummableProduct(VertexCalcError):
    """A formal product whose coefficients are not certified finite sums."""


class MalformedStructure(VertexCalcError):
    """Structure data references unknown basis elements or is inconsistent."""


class NonNilpotentD(VertexCalcError):
    """The translation operator is not nilpotent, so e^{xD} does not terminate."""


class NotADerivation(VertexCalcError):
    """The supplied linear map fails the Leibniz rule."""


class CocycleInvalid(VertexCalcError):
    """A 2-cocycle table fails the cocycle identity or normalization."""


class GradingInvalid(VertexCalcError):
    """A grading is inconsistent with the structure data."""


class NotAnAutomorphism(VertexCalcError):
    """A group action matrix is not an automorphism of the structure."""


class NotCompatible(VertexCalcError):
    """An operator sequence is not certified compatible."""


class CapExceeded(VertexCalcError):
    """A bounded search or span computation exceeded its cap."""


class InvalidArgument(VertexCalcError):
    """A caller-supplied option is outside what the computation accepts."""


class OutputError(VertexCalcError):
    """An output file could not be written."""


class ParseError(VertexCalcError):
    """An algebra file could not be parsed."""


class ValidationError(VertexCalcError):
    """An algebra file parsed but failed validation."""
