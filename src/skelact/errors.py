"""Exception types shared across the package, and the field checks that raise them."""

import math
import numbers


class DimensionError(ValueError):
    """Raised when tensor shapes are inconsistent for an operation."""


class ContractError(ValueError):
    """Raised when a caller violates an operation's preconditions."""


class ParseError(ValueError):
    """Raised on malformed input files; message names the byte offset."""


def require_integer(owner, name, value, low):
    """`value` is an int (not a bool) >= low, else ContractError naming `owner.name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ContractError(f"{owner}.{name} must be an integer >= {low}, got {value!r}")


def require_finite(owner, name, value, low=-math.inf):
    """`value` is a finite real (not a bool) >= low, else ContractError naming `owner.name`."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (math.isfinite(value) and value >= low)):
        bound = "" if low == -math.inf else f" >= {low}"
        raise ContractError(f"{owner}.{name} must be a finite real{bound}, got {value!r}")
