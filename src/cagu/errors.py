"""Shared exception types.

Every validation failure raises one of these so the CLI can map
library errors onto exit codes (2 for bad input, 1 for runtime).
"""


class CaguError(Exception):
    """Base class for all library errors."""


class ShapeError(CaguError, ValueError):
    """Operands have incompatible extents; message names both shapes."""


class ContractError(CaguError, ValueError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class NumericDomainError(CaguError, ArithmeticError):
    """Input left the numeric domain an operation supports."""


class ConfigError(CaguError, ValueError):
    """Invalid configuration value (CLI exit code 2)."""


class FormatError(CaguError, ValueError):
    """Malformed container file; carries the byte offset of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DegenerateSceneError(CaguError, RuntimeError):
    """Scene has too little spectral diversity for endmember extraction."""


class NonFiniteLossError(CaguError, RuntimeError):
    """Training produced a non-finite loss; message names the first bad tensor."""


class NonFiniteGradientError(CaguError, RuntimeError):
    """A parameter group's gradient is not finite; message names the group."""
