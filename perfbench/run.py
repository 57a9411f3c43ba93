"""Benchmark of exactcomb: the acceptance battery split in two sweeps, plus single queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the ``src/`` next to this directory and
needs only the standard library.  Every measurement happens in a fresh
worker interpreter (``worker.py``), because the program's module-level
caches would otherwise turn every repetition after the first into cache
hits that a ``verify all`` user never gets.

Workloads (closed loop, one client, one process, ``workers=1``):

* ``lattice-sweep``: the four lattice criteria at full-tier caps.
* ``word-parking-sweep``: the other nine criteria at full-tier caps, in
  battery order.  The two sweeps together are ``exactcomb verify all``.
* ``single-queries``: seeded one-off queries at sizes the sweeps never
  reach, each checked by an identity between independent kernels.

A sweep is one fixed unit of work and runs once per invocation whatever
``--seconds`` says.  ``single-queries`` runs its seeded batch in fresh
workers until ``--seconds`` have passed (at least three times) and
reports medians.

With ``--trace 0`` the result holds the end-to-end metrics ``wall_ref_s``,
``setup_s`` and ``peak_rss_mib``.  ``wall_ref_s`` is the wall time from the
first timed call to the end of the last one, rescaled to a fixed machine
speed measured while the workload runs (``worker.SpeedProbe``); the time as
measured is printed beside it and reported as ``process.wall_s`` by the
traced run.  ``setup_s`` is rescaled the same way by a probe run right
after set-up; it is sampled in several extra workers and reported as a
median.  With ``--trace 1`` one untraced and one
traced worker run, and the result holds every per-layer metric of
``layers.PER_LAYER``; spans go to ``.bench_out/``.  The last line of
standard output is the JSON result; a readable summary goes to standard
error.  Operations that fail their checks are counted, named and reported
as ``failed``; the exit code is non-zero only when the benchmark itself
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPAN_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, acceptance_values  # noqa: E402
from workloads import SINGLE_QUERIES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
MIN_BATCHES = 3
RUN_BUDGET_S = 175.0
UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to the program failing a check)."""


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, *extra: str) -> dict:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s exhausted")
        spawned_at = perf_counter()
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--spawned-at", repr(spawned_at), *extra]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=self.env,
                                  timeout=remaining, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker killed after {remaining:.0f} s") from exc
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def measured_workers(self, seconds: float) -> list[dict]:
        """One worker for a sweep; repeated batches for single-queries."""
        if self.workload != SINGLE_QUERIES:
            return [self.spawn()]
        batches: list[dict] = []
        start = perf_counter()
        while len(batches) < MIN_BATCHES or perf_counter() - start < seconds:
            batches.append(self.spawn())
        return batches

    def untraced(self, seconds: float) -> tuple[dict, list[dict]]:
        setups = [self.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
        workers = self.measured_workers(seconds)
        setups += workers
        for key in ("wall_s", "setup_s"):
            print(f"{key + ' (as measured, not rescaled)':60s} "
                  f"{statistics.median(w[key] for w in workers):.6g} s", file=sys.stderr)
        metrics = {
            "wall_ref_s": statistics.median(w["wall_ref_s"] for w in workers),
            "setup_s": statistics.median(w["setup_ref_s"] for w in setups),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers),
        }
        return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, workers

    def traced(self) -> tuple[dict, list[dict]]:
        base = self.spawn()
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{self.workload}.bin"
        traced = self.spawn("--trace-file", str(span_file))
        values = {m["name"]: 0.0 for m in PER_LAYER}  # 0 where the workload does not reach
        values.update(traced["layers"])
        values.update(acceptance_values(base["ops"], base["steps"]))
        values["process.cpu_s"] = base["cpu_s"]
        values["process.wall_s"] = base["wall_s"]
        values["process.speed_probe_us"] = base["probe_mean_s"] * 1e6
        values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in PER_LAYER}, [base, traced]


def summarize(metrics: dict, workers: list[dict]) -> dict:
    ops = [op for w in workers for op in w["ops"]]
    failures = [op for op in ops if not op["ok"]]
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_fraction':60s} {len(failures) / len(ops):.6g} "
          f"({len(failures)} of {len(ops)} operations)", file=sys.stderr)
    for op in failures:
        print(f"FAILED {op['name']}: {op['error']}", file=sys.stderr)
    return {"correct": not failures, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exactcomb" / "__init__.py").is_file():
        print(f"error: no exactcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, workers = runner.traced()
        else:
            metrics, workers = runner.untraced(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summarize(metrics, workers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
