"""Exception hierarchy shared by all modules."""


class XnAdhmError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(XnAdhmError):
    pass


class BackendMismatch(XnAdhmError):
    pass


class UnsupportedBackend(XnAdhmError):
    pass


class SingularMatrix(XnAdhmError):
    pass


class ZeroPolynomial(XnAdhmError):
    pass


class IndexOutOfRange(XnAdhmError):
    pass


class DuplicatePoint(XnAdhmError):
    pass


class SingularGauge(XnAdhmError):
    pass


class NotInChart(XnAdhmError):
    pass


class SingularA2m(XnAdhmError):
    pass


class NotCostable(XnAdhmError):
    pass


class NotInOverlap(XnAdhmError):
    pass


class InvalidInput(XnAdhmError):
    pass


class NoChart(InvalidInput):
    """No chart matrix A2m is invertible: the pencil is singular."""


class NonSimpleSpectrum(XnAdhmError):
    pass


class TooLarge(XnAdhmError):
    pass


class NonzeroFraming(XnAdhmError):
    pass


class NotNormalizable(XnAdhmError):
    """Gauge normalization hit a singular pivot; the message names the step."""
