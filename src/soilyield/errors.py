"""Exception hierarchy shared by all soilyield modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 2 for input/validation problems, 3 for numerical
failures. I/O failures reuse the builtin ``OSError`` family (exit 4).
"""


class SoilYieldError(Exception):
    exit_code = 2


class ValidationError(SoilYieldError):
    """Bad input data, bad configuration, or a violated call contract."""

    exit_code = 2


class NumericalError(SoilYieldError):
    """The computation itself is ill-posed for the given data."""

    exit_code = 3


class HeaderMismatchError(ValidationError):
    pass


class EmptyInputError(ValidationError):
    pass


class AllRowsDroppedError(ValidationError):
    pass


class InvalidRatioError(ValidationError):
    pass


class TooFewRowsError(ValidationError):
    pass


class EmptySelectionError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class NegativeLambdaError(ValidationError):
    pass


class ZeroTotalError(ValidationError):
    pass


class SchemaViolationError(ValidationError):
    pass


class UnsupportedVersionError(ValidationError):
    pass


class UnderdeterminedError(NumericalError):
    pass


class SingularSystemError(NumericalError):
    pass


class ZeroVarianceError(NumericalError):
    pass
