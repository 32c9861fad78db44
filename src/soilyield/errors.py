"""Exception classes shared by all soilyield modules: one class per exit code.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 2 for input/validation problems (``ValidationError``),
3 for numerical failures (``NumericalError``). I/O failures reuse the builtin
``OSError`` family (exit 4). The message, not the class, says what went wrong;
the one subclass, ``SchemaViolationError``, marks a damaged model or
comparison file.
"""


class SoilYieldError(Exception):
    exit_code = 2


class ValidationError(SoilYieldError):
    """Bad input data, bad configuration, or a violated call contract."""


class NumericalError(SoilYieldError):
    """The computation itself is ill-posed for the given data."""

    exit_code = 3


class SchemaViolationError(ValidationError):
    """A model or comparison file that does not follow its schema."""
