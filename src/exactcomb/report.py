"""Verification reports shared by the checker functions and the CLI."""

from __future__ import annotations

import json
from typing import NamedTuple

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
SKIPPED = "skipped"


class Report(NamedTuple):
    """Outcome of one verification run.

    ``witness`` carries enough data to re-check a counterexample from the
    payload alone (or context for a skip).
    """

    theorem: str
    instances: int
    status: str
    witness: dict | None = None

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "status": self.status,
            "witness": self.witness,
        }

    def render_text(self) -> str:
        line = f"[{self.status}] {self.theorem}: instances={self.instances}"
        if self.witness is not None:
            line += f" witness={json.dumps(self.witness, sort_keys=True)}"
        return line


def reports_to_json(reports: list[Report]) -> str:
    """Deterministic JSON for a list of reports (sorted keys, no spaces)."""
    payload = [r.to_json_obj() for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def worst_exit_code(reports: list[Report]) -> int:
    """0 when everything verified or was skipped, 1 on any counterexample."""
    return 1 if any(r.status == COUNTEREXAMPLE for r in reports) else 0
