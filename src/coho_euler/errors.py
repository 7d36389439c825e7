"""Exception taxonomy shared across the package."""


class CohoEulerError(Exception):
    """Base class for every error raised by this package."""


class InputError(CohoEulerError, ValueError):
    """Malformed caller input: wrong shapes, non-finite entries, bad values."""


class StructureError(CohoEulerError, ValueError):
    """An algebraic or geometric structure constraint is violated."""


class UnsupportedConfigurationError(CohoEulerError):
    """The requested configuration is outside the supported regime.

    Raised instead of silently guessing, e.g. for the invariant-field
    connection with nontrivial isotropy acting nontrivially on the
    complement.
    """


def require_instance(value, cls, name):
    """Refuse a package object of the wrong type: an InputError naming the
    argument, as ``name``, and the type it got."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InputError(f"{name} is {article} {cls.__name__}; got {type(value).__name__}")


class DomainError(CohoEulerError, ValueError):
    """A coordinate lies at or beyond the boundary of its orbit-space domain."""


class ConfigError(CohoEulerError, ValueError):
    """A run configuration failed validation; carries field-path messages."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ConfigParseError(CohoEulerError):
    """A config file is not UTF-8 JSON that ``json`` can load; unlike a
    ``ConfigError`` it is no ``ValueError``, so the two exit codes stay apart."""


class NumericalFailureError(CohoEulerError):
    """Time integration failed: CFL violation, non-finite stage, bad pressure.

    Carries enough context to write a failure record into the run report.
    """

    def __init__(self, message, *, kind="numerical", step=None, t=None, detail=None):
        super().__init__(message)
        self.kind = kind
        self.step = step
        self.t = t
        self.detail = dict(detail) if detail else {}

    def record(self):
        rec = {"kind": self.kind, "message": str(self)}
        if self.step is not None:
            rec["step"] = int(self.step)
        if self.t is not None:
            rec["t"] = float(self.t)
        rec.update(self.detail)
        return rec
