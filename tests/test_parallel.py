import pytest

from exactcomb import parallel


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
    monkeypatch.setattr(parallel, "get_context", lambda: ctx)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    return ctx


def test_pool_never_exceeds_cpus_or_items(fake_pool):
    assert parallel.parallel_map(abs, range(-100, 0), workers=5000) == list(range(100, 0, -1))
    assert parallel.parallel_map(abs, [-1, -2], workers=5000) == [1, 2]
    assert parallel.make_pmap(5000)(abs, range(-10, 0)) == list(range(10, 0, -1))
    assert fake_pool.processes == [3, 2, 3]


def test_one_worker_or_item_starts_no_pool(fake_pool):
    assert parallel.make_pmap(1) is map
    assert parallel.parallel_map(abs, [-5], workers=4) == [5]
    assert parallel.parallel_map(abs, [-5, -6], workers=1) == [5, 6]
    assert fake_pool.processes == []


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_raise(fake_pool, workers):
    with pytest.raises(ValueError):
        parallel.make_pmap(workers)
    with pytest.raises(ValueError):
        parallel.parallel_map(abs, [1, 2], workers=workers)
    assert fake_pool.processes == []
