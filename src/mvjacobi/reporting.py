"""Structured pass/fail reporting for verification suites.

Every verifier returns a CheckReport: a named list of CheckItems, each
an independently decidable claim.  Exact checks record a boolean; the
numeric layer attaches measured residuals in the detail string.  The
JSON form is what the CLI serializes.
"""

from __future__ import annotations

from typing import NamedTuple


class CheckItem(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class CheckReport:
    """A titled list of CheckItems, empty until `add` appends one."""

    __slots__ = ("title", "items")

    def __init__(self, title: str):
        self.title = title
        self.items: list[CheckItem] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.items.append(CheckItem(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        # a report with no checks proves nothing, so it is not a pass
        return bool(self.items) and all(item.passed for item in self.items)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for item in self.items if item.passed)
        return ok, len(self.items)

    def to_dict(self) -> dict:
        ok, total = self.counts
        return {
            "title": self.title,
            "passed": self.passed,
            "checks_passed": ok,
            "checks_total": total,
            "items": [item._asdict() for item in self.items],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for item in self.items:
            mark = "PASS" if item.passed else "FAIL"
            line = f"[{mark}] {self.title}: {item.name}"
            if item.detail:
                line += f" ({item.detail})"
            lines.append(line)
        return lines
