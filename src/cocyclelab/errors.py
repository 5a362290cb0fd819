"""Typed errors shared across the package."""


class CocycleLabError(Exception):
    """Base class for declared, recoverable errors."""


class NotInvertible(CocycleLabError):
    """Backward iteration requested on a non-invertible system."""


class CapExceeded(CocycleLabError):
    """No return to the target set within the declared cap.

    Signals either non-recurrence at this horizon or a too-small cap;
    the cap is carried so callers can report it.
    """

    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or f"no return within cap={cap}")

    def __reduce__(self):            # pickle through a process pool
        return type(self), (self.cap, str(self))


class MismatchError(CocycleLabError):
    """Two independent computations of the same quantity disagree."""


class ConfigInvalid(CocycleLabError):
    """Configuration rejected before running; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        return type(self), (self.field, self.message)


def _whole(field: str, x, least: int) -> int:
    """x as an int, refused unless it is a whole number >= least."""
    if isinstance(x, float) and not x.is_integer() or x < least:
        raise ConfigInvalid(field, f"{x!r} is not a whole number >= {least}")
    return int(x)
