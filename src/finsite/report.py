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

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(self, "trace", tuple(self.trace))

    @classmethod
    def on(cls, site, depth: int, classification: str, witnesses=(), trace=()) -> CheckReport:
        """A verdict decided on `site` at `depth`: depth-qualified exactly
        when the site has cover chains, whose truncations the depth bounds."""
        return cls(depth if site.has_chains() else None, classification, witnesses, trace)

    @classmethod
    def postconditions(cls, classification: str, r1: CheckReport, r2: CheckReport,
                       first: tuple[str, ...], second: str) -> CheckReport:
        """Double-plus postconditions: the single plus `r1` classifies in
        `first`, the double plus `r2` as `second`.  A failure carries both
        checks' witnesses, or a generic one when they have none."""
        ok = r1.classification in first and r2.classification == second
        witnesses = () if ok else (*r1.witnesses, *r2.witnesses) or ("postcondition failed",)
        trace = (f"single plus classification: {r1.classification}",
                 f"double plus classification: {r2.classification}")
        return cls(r1.depth, classification, witnesses, trace)

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
