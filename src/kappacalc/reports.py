"""Structured pass/fail reports shared by the verifiers and the CLI."""
from __future__ import annotations

from .records import FrozenRecord, Record


class Check(FrozenRecord):
    """One identity: its name, whether it holds and, if not, its rendered
    residual."""

    __slots__ = ("name", "passed", "residual")
    _defaults = {"residual": None}

    def to_data(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.residual is not None:
            d["residual"] = self.residual
        return d


class SuiteReport(Record):
    """The checks of one suite, in the order they were recorded."""

    __slots__ = ("suite", "checks")
    _defaults = {"checks": []}

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
