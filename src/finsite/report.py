"""Structured verdicts shared by every checker in the engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a property check.

    A report fails exactly when it carries a witness: verdict is "FAIL" when
    `witnesses` is nonempty, else "PASS".  `depth` is set when the verdict is
    depth-qualified (rendered as PASS-AT-DEPTH(d)).  `classification` holds
    the domain verdict word (COSHEAF, SMOOTH, ...) when one applies.
    """

    depth: int | None = None
    classification: str | None = None
    witnesses: tuple = ()
    trace: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "FAIL" if self.witnesses else "PASS"

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def rendered_verdict(self) -> str:
        if self.verdict == "PASS" and self.depth is not None:
            return f"PASS-AT-DEPTH({self.depth})"
        return self.verdict

    def to_json(self) -> dict:
        out = {
            "kind": "report",
            "verdict": self.rendered_verdict(),
            "depth": self.depth,
            "witnesses": list(self.witnesses),
            "trace": list(self.trace),
        }
        if self.classification is not None:
            out["classification"] = self.classification
        return out
