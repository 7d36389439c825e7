"""Named check results collected by the validation entry points."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import CohoEulerError, ConfigError


@dataclass(frozen=True)
class CheckResult:
    """One named check; ``error`` is the config error its failure stands for.

    A check on the input's shape has no residual (None): its line is its
    message.
    """

    name: str
    residual: float | None
    tol: float
    passed: bool
    detail: str = ""
    error: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.residual is None:
            return f"{status}  {self.name}: {self.detail}"
        msg = f"{status}  {self.name}: residual={self.residual:.3e} (tol={self.tol:.1e})"
        if self.detail:
            msg += f" [{self.detail}]"
        return msg


@dataclass
class ValidationReport:
    """An ordered list of named checks; passes iff every check passes."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, residual, tol, detail=""):
        residual = float(residual)
        self.checks.append(
            CheckResult(name, residual, float(tol), residual < tol, detail)
        )

    def add_flag(self, name, passed, detail=""):
        # For yes/no checks with no meaningful residual.
        self.checks.append(
            CheckResult(name, 0.0 if passed else 1.0, 1.0, bool(passed), detail)
        )

    def add_error(self, name, message):
        # A failed check on the input's shape: no residual, only a message.
        self.checks.append(CheckResult(name, None, 0.0, False, message, message))

    def attempt(self, name, field, build, *args):
        """``build(*args)``; if it raises a CohoEulerError, None, with the failed check
        ``name`` recorded as ``field: message`` (a ConfigError's messages name their
        own fields) or, with no field, as a failed flag whose detail is the message."""
        try:
            return build(*args)
        except CohoEulerError as exc:
            if not field:  # the report's reader names the field
                return self.add_flag(name, False, str(exc))
            messages = exc.messages if isinstance(exc, ConfigError) else [f"{field}: {exc}"]
            for message in messages:
                self.add_error(name, message)

    def extend(self, other: "ValidationReport", error: str = ""):
        """Append ``other``'s checks; ``error`` words their failures, formatted with the name."""
        for c in other.checks:
            self.checks.append(replace(c, error=error.format(c.name)) if error else c)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def errors(self) -> list[str]:
        """The config errors behind the failed checks, each once, in order, with their details."""
        return list(dict.fromkeys(
            (c.error or f"{c.name} failed")
            + (f": {c.detail}" if c.detail not in ("", c.error) else "")
            for c in self.failures()))
