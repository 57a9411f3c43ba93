"""Write the sweep references by slicing one ``run_battery(seed=0)`` output.

    python3 perfbench/make_reference.py

The first four reports (with the opening bracket and their trailing comma)
go to ``reference/lattice-sweep.ref``; the rest, with the closing bracket,
to ``reference/word-parking-sweep.ref``.  Takes about as long as
``exactcomb verify all``.  Rerun it only when the report contract changes
on purpose.
"""

from __future__ import annotations

import json

from worker import import_exactcomb
from workloads import LATTICE_SWEEP, REFERENCE_DIR, REFERENCE_SEED, WORD_PARKING_SWEEP

LATTICE_REPORTS = 4


def main() -> None:
    import_exactcomb()
    from exactcomb.acceptance import run_battery
    from exactcomb.report import reports_to_json

    reports = run_battery(seed=REFERENCE_SEED, workers=1)
    text = reports_to_json(reports)
    head = reports_to_json(reports[:LATTICE_REPORTS])
    cut = len(head) - 2  # drop "]\n", keep everything up to the last lattice report
    assert text[:cut] == head[:cut] and text[cut] == ","
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{LATTICE_SWEEP}.ref").write_text(text[:cut + 1], encoding="utf-8")
    (REFERENCE_DIR / f"{WORD_PARKING_SWEEP}.ref").write_text(text[cut + 1:], encoding="utf-8")
    print(json.dumps({"bytes": len(text), "split_at": cut + 1,
                      "statuses": [r.status for r in reports]}))


if __name__ == "__main__":
    main()
