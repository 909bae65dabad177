"""The one rule for an integer count argument of the library and the CLI."""

import operator


def require_count(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int if it is an integer (has __index__, is not a bool) from least to most (None: unbounded), else
    one ValueError that names the argument.  So numpy integers are counts; floats and numpy bools are not."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    if most is not None and count > most:
        raise ValueError(f"{name} must be <= {most}, got {count}")
    return count
