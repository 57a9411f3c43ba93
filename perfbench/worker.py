"""One benchmark worker: a fresh interpreter that sets up, runs and checks a workload.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
                                [--setup-only] [--trace-file PATH]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux both read the same monotonic clock, so
set-up time counts interpreter start, ``import exactcomb`` and building
the workload's inputs.  The worker prints one JSON record as the last
line of its standard output.  A fresh process per run keeps the program's
module-level caches cold, as they are for every ``exactcomb verify all``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The machine's speed drifts by a third and more between runs, and a sweep
# is too long to repeat within the run budget.  A timer therefore runs a
# fixed probe loop every PROBE_EVERY_S while the workload runs; the mean
# probe duration gives the speed the workload actually ran at.
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.5e-3
SETUP_PROBES = 20  # run right after set-up, which is too short for the timer


def _probe_unit() -> int:
    s, d = 0, {}
    for i in range(3000):
        s += i * i % 7
        d[i & 255] = (i, s)
    return s


def probe_mean(units: int) -> float:
    """Mean duration of ``units`` probe loops run back to back."""
    t0 = perf_counter()
    for _ in range(units):
        _probe_unit()
    return (perf_counter() - t0) / units


class SpeedProbe:
    """Times ``_probe_unit`` from a SIGALRM handler while the block runs."""

    def __init__(self):
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _probe_unit()
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return False

    def rescale(self, wall_s: float) -> float:
        """Wall time without the probes, at the speed where one probe takes
        ``REFERENCE_PROBE_S``."""
        if not self.durations:  # shorter than one probe interval
            return wall_s
        spent = sum(self.durations)
        return (wall_s - spent) * REFERENCE_PROBE_S * len(self.durations) / spent


def import_exactcomb():
    """Import exactcomb from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import exactcomb

    if Path(exactcomb.__file__).resolve().parent != SRC / "exactcomb":
        raise ImportError(f"exactcomb came from {exactcomb.__file__}, not {SRC}")
    return exactcomb


def run_ops(ops, tracer=None) -> list[dict]:
    """Time and check each operation; a failure is recorded, never raised."""
    records = []
    for name, op in ops:
        if tracer is not None:
            op = tracer.spanned(f"op.{name}", op)
        t0 = perf_counter()
        try:
            instances = op()
            error = None
        except Exception as exc:  # a failing operation must not stop the run
            instances = 0
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        records.append({"name": name, "s": perf_counter() - t0,
                        "instances": instances, "ok": error is None, "error": error})
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    import_exactcomb()
    import workloads

    ops = workloads.build_ops(args.workload, args.seed)
    setup_s = perf_counter() - args.spawned_at
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_ref_s": setup_s * REFERENCE_PROBE_S / probe_mean(SETUP_PROBES)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace_file:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)

    steps: dict[str, float] = {}
    with SpeedProbe() as probe:
        t_first = perf_counter()
        if args.workload == workloads.LATTICE_SWEEP:
            # built first and timed on its own; every lattice criterion reuses it
            from exactcomb.acceptance import lattice_sweep

            lattice_sweep(6)
            steps["lattice_sweep"] = perf_counter() - t_first
        records = run_ops(ops, tracer)
        wall_s = perf_counter() - t_first

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update({
        "wall_s": wall_s,
        "wall_ref_s": probe.rescale(wall_s),
        "probe_mean_s": sum(probe.durations) / max(1, len(probe.durations)),
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ops": records,
        "steps": steps,
    })
    if tracer is not None:
        record["layers"] = layers.derive(tracer)
        tracer.write(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
