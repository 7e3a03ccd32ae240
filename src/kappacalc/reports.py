"""Structured pass/fail reports shared by the verifiers and the CLI."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: str | None = None

    def to_data(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.residual is not None:
            d["residual"] = self.residual
        return d


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, residual) -> None:
        """Record a zero-residual check; `residual` is an element/tensor with
        an is_zero() method, or a bool."""
        if isinstance(residual, bool):
            self.checks.append(Check(name, residual))
            return
        if residual.is_zero():
            self.checks.append(Check(name, True))
        else:
            self.checks.append(Check(name, False, residual.render()))

    def to_data(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_data() for c in self.checks]}
