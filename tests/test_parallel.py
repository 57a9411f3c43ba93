import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import exactcomb
from exactcomb import cli, core, genfun, parallel, parking, posets


class _RecordingContext:
    """Stands in for a multiprocessing context: records the pool size, maps serially."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        return [fn(x) for x in items]


@pytest.fixture
def fake_pool(monkeypatch):
    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda: ctx)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    return ctx


def test_pool_never_exceeds_cpus_or_items(fake_pool):
    assert parallel.parallel_map(abs, range(-100, 0), workers=5000) == list(range(100, 0, -1))
    assert parallel.parallel_map(abs, [-1, -2], workers=5000) == [1, 2]
    assert fake_pool.processes == [3, 2]


def test_one_worker_or_item_starts_no_pool(fake_pool):
    assert parallel.parallel_map(abs, [-5], workers=4) == [5]
    assert parallel.parallel_map(abs, [-5, -6], workers=1) == [5, 6]
    assert fake_pool.processes == []


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_raise(fake_pool, workers):
    with pytest.raises(ValueError):
        parallel.parallel_map(abs, [1, 2], workers=workers)
    assert fake_pool.processes == []


def test_import_loads_neither_the_pool_nor_dataclasses():
    # multiprocessing is imported by a pooled run only, and Report is a
    # NamedTuple, so importing the package pays for neither
    src = Path(exactcomb.__file__).resolve().parent.parent
    script = ("import sys, exactcomb\n"
              "print(sorted({'multiprocessing', 'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# -- exceptions cross the pool by pickling -------------------------------------


EXCEPTIONS = [
    cli.UsageError("--b expects integers"),
    core.BareissDivisionError("Bareiss division must be exact"),
    genfun.PackingCheckError("the bound N_8 = 4782969 does not fit 8-bit slots"),
    parking.BijectionCheckError("round trip failure"),
    parking.ParkingFailure("car 3 cannot park"),
    posets.PosetError("bad poset"),
    posets.CyclicCoversError("cycle through 0"),
    posets.NotALatticeError("elements 0 and 1 have no meet"),
    posets.NotDistributiveError("M3 inside"),
    posets.ModularityCheckError("modularity criteria disagree"),
    posets.SingularMatrixError("no pivot available in column 1"),
]


def test_every_exception_class_has_an_example():
    modules = [getattr(exactcomb, name) for name in dir(exactcomb)]
    defined = {obj for module in modules if type(module) is type(exactcomb)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__}
    assert defined == {type(exc) for exc in EXCEPTIONS}


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_a_pickle_round_trip(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)
