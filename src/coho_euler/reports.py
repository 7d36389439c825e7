"""Named check results collected by the validation entry points."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import CohoEulerError, ConfigError


@dataclass(frozen=True)
class CheckResult:
    """One named check and its finding: ``residual=… (tol=…)`` for a residual
    check, the detail alone for a yes/no check or a refusal of the input.

    ``field`` is the config field a failure refuses; it is empty where the
    finding names its own field. Only a residual check has a ``residual``.
    """

    name: str
    passed: bool
    finding: str = ""
    field: str = ""
    residual: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}" + (f": {self.finding}" if self.finding else "")

    def refusal(self) -> str:
        """The config error this check's failure stands for."""
        if not self.field:
            return self.finding
        return f"{self.field}: {self.name} failed" + (f": {self.finding}" if self.finding else "")


@dataclass
class ValidationReport:
    """An ordered list of named checks; passes iff every check passes."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, residual, tol, detail=""):
        residual = float(residual)
        finding = f"residual={residual:.3e} (tol={tol:.1e})" + (f" [{detail}]" if detail else "")
        self.checks.append(CheckResult(name, residual < tol, finding, residual=residual))

    def add_flag(self, name, passed, detail=""):
        # For yes/no checks with no meaningful residual.
        self.checks.append(CheckResult(name, bool(passed), detail))

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
                self.add_flag(name, False, message)

    def extend(self, other: "ValidationReport", field: str = ""):
        """Append ``other``'s checks, each refused under the config ``field``."""
        self.checks += [replace(c, field=field) for c in other.checks]

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

    def errors(self) -> list[str]:
        """The refusals of the failed checks, each once, in order."""
        return list(dict.fromkeys(c.refusal() for c in self.checks if not c.passed))
