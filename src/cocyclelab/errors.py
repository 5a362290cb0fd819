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


class MismatchError(CocycleLabError):
    """Two independent computations of the same quantity disagree."""


class ConfigInvalid(CocycleLabError):
    """Configuration rejected before running; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


def _whole(field: str, x, least: int) -> int:
    """x as an int, refused unless it is a whole number >= least."""
    if isinstance(x, float) and not x.is_integer() or x < least:
        raise ConfigInvalid(field, f"{x!r} is not a whole number >= {least}")
    return int(x)


def _spec(field: str, text: str, arity: dict, sep: str = ","):
    """(kind, values) of a "kind:v1,v2,..." spec string; the one reader of them.

    arity[kind] = (least, most, words): least to most values (most None: no bound),
    the first `words` kept as text and the rest read as finite floats. A kind that
    takes no values refuses any suffix, ":" included."""
    kind, colon, rest = text.partition(":")
    if kind not in arity:
        raise ConfigInvalid(field, f"unknown {field} kind {kind!r}")
    least, most, words = arity[kind]
    values = rest.split(sep) if rest else []
    if colon and most == 0 or len(values) < least or most is not None and len(values) > most:
        more = "" if most == least else " or more" if most is None else f" to {most}"
        raise ConfigInvalid(field, f"{field} {text!r}: {kind} takes {least}{more} value(s)")
    try:
        nums = [float(v) for v in values[words:]]
    except ValueError:
        raise ConfigInvalid(field, f"{field} {text!r} has a value that is not numeric") from None
    if not all(abs(x) < float("inf") for x in nums):
        raise ConfigInvalid(field, f"{field} {text!r} has a number that is not finite")
    return kind, values[:words] + nums
