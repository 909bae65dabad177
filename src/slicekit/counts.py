"""The one rule for an integer count argument, and the one for a real-number argument, of the library and the CLI."""

import math
import numbers
import operator


def _shown(value, show=str) -> str:
    try:
        return show(value)
    except ValueError:  # value is, or holds, an int past Python's int-to-str digit limit
        return f"<{type(value).__name__} too long to print>"


def require_count(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int if it is an integer (has __index__, is not a bool) from least to most (None: unbounded), else
    one ValueError that names the argument.  So numpy integers are counts; floats and numpy bools are not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {_shown(value, repr)}")
    count = operator.index(value)
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(count)}")
    if most is not None and count > most:
        raise ValueError(f"{name} must be <= {most}, got {_shown(count)}")
    return count


def require_real(name: str, value, *, above=None, least=None, most=None):
    """value, unconverted, if it is a finite numbers.Real (an int of any size is finite; no bool is a real) that is
    > above, >= least and <= most for each bound given, else one ValueError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value, repr)}")
    if not -math.inf < value < math.inf:  # compares an int or a Fraction exactly: none overflows a float
        raise ValueError(f"{name} must be finite, got {value}")
    if above is not None and value <= above:
        raise ValueError(f"{name} must be > {above}, got {_shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {_shown(value)}")
    return value
