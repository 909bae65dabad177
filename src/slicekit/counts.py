"""The one rule each for an integer count, a real-number and a holder argument of the library and the CLI."""

import math
import numbers
import operator


def _shown(value, show=str) -> str:
    try:
        return show(value)
    except (ValueError, OverflowError):  # an int in value past the int-to-str digit limit, or a float format's range
        return f"<{type(value).__name__} too long to print>"


def require_count(name: str, value, least: float, most: float | None = None) -> int:
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


def require_holder(name: str, value, kind: type, many: bool = False):
    """value, unconverted, if it is a kind (with many, a list or tuple of them), else one ValueError that names the
    argument: "<name> must be a <kind>, got <its type>" ("an" before a vowel), "<name> must be a list or tuple of
    <kind>, got <its type>", or for an element "<name>[<i>] must be a <kind>, got <its type>"."""
    if many:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list or tuple of {kind.__name__}, got {type(value).__name__}")
        for i, item in enumerate(value):
            require_holder(f"{name}[{i}]", item, kind)
    elif not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value
