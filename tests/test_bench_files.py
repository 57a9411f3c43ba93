"""Each ``BENCH_*.json`` at the repository root records benchmark runs of a
change against its parent commit: for every pair, the workload, the seed,
and the result line of ``perfbench/run.py`` on each side."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_every_bench_file_names_workload_seed_parent_and_change():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["pairs"], path.name
        for pair in record["pairs"]:
            assert pair["workload"] in WORKLOADS, path.name
            assert type(pair["seed"]) is int, path.name
            for side in ("parent", "change"):
                metrics = pair[side]["metrics"]
                assert metrics and all("value" in m for m in metrics.values()), path.name
