"""CMP traces as scheduler dependencies: generated once per sweep.

A pooled sweep over trace-replay points must generate each distinct
trace exactly once (counted from the telemetry ``trace`` events), ship
it to the workers that replay it, and return results identical to the
serial run. The failure paths — a generation that raises, a broken or
stalled pool with chunks held back for a trace — must still complete or
surface a ``SweepPointError`` naming a dependent point. The compact
``Trace`` pickle that carries a trace between processes is covered too.
"""

import json
import os
import pickle

import pytest

import repro.harness.parallel as parallel
from repro.harness.experiment import (ExperimentConfig, clear_cache,
                                      set_default_store)
from repro.harness.parallel import SweepPointError, run_experiments
from repro.harness.traces import clear_caches, get_trace
from repro.network.config import ALL_SCHEMES
from repro.store import ResultStore
from repro.telemetry.stream import read_stream
from repro.traffic.trace import Trace, TraceRecord

BENCHMARKS = ("fma3d", "equake")


def _points(seed=3):
    return [ExperimentConfig(topology="cmesh", kx=4, ky=4, concentration=4,
                             benchmark=bench, trace_cycles=300,
                             trace_warmup=100, scheme=scheme, seed=seed,
                             backend="scalar")
            for bench in BENCHMARKS for scheme in ALL_SCHEMES[:3]]


def _trace_events(path):
    return [r for r in read_stream(path) if r["ev"] == "trace"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_cache()
    clear_caches()
    set_default_store(None)
    yield
    clear_cache()
    clear_caches()
    set_default_store(None)


class TestGeneratedOnce:
    def test_pooled_sweep_generates_each_trace_once(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        points = _points()
        pooled = run_experiments(points, max_workers=2, chunk_size=1,
                                 telemetry=tel)
        events = _trace_events(tel)
        assert sorted(e["benchmark"] for e in events) == sorted(BENCHMARKS)
        assert all(e["dur_s"] > 0 for e in events)
        assert os.getpid() not in {e["pid"] for e in events}
        report = json.loads((tmp_path / "t.sweep-report.json").read_text())
        assert report["traces_generated"] == len(BENCHMARKS)

        clear_cache()
        clear_caches()
        serial = run_experiments(points, max_workers=1)
        assert pooled == serial  # every metric field identical

    def test_serial_sweep_reports_its_generations(self, tmp_path):
        tel = str(tmp_path / "t.jsonl")
        run_experiments(_points(), max_workers=1, telemetry=tel)
        assert len(_trace_events(tel)) == len(BENCHMARKS)

    def test_warm_rerun_generates_no_trace(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        points = _points()
        run_experiments(points, max_workers=2, chunk_size=1, store=store)
        clear_cache()
        clear_caches()
        tel = str(tmp_path / "warm.jsonl")
        run_experiments(points, max_workers=2, chunk_size=1, store=store,
                        telemetry=tel)
        assert _trace_events(tel) == []

    def test_trace_held_by_the_parent_is_shipped_not_regenerated(
            self, tmp_path):
        get_trace("fma3d", 300, 100, 3)
        tel = str(tmp_path / "t.jsonl")
        run_experiments(_points(), max_workers=2, chunk_size=1,
                        telemetry=tel)
        assert [e["benchmark"] for e in _trace_events(tel)] == ["equake"]

    def test_chart_export_renders_generation_slices(self, tmp_path):
        from repro.telemetry.trace_export import telemetry_chrome_trace
        tel = str(tmp_path / "t.jsonl")
        run_experiments(_points(), max_workers=2, chunk_size=1,
                        telemetry=tel)
        doc = telemetry_chrome_trace(read_stream(tel))
        slices = [e for e in doc["traceEvents"] if e.get("cat") == "trace"]
        assert len(slices) == len(BENCHMARKS)
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in slices)


class TestGenerationFailure:
    def test_failing_generation_names_a_dependent_point(self, monkeypatch):
        def broken(benchmark, *args):
            raise RuntimeError(f"no trace for {benchmark}")

        monkeypatch.setattr(parallel, "get_trace", broken)
        points = _points()
        with pytest.raises(SweepPointError) as excinfo:
            run_experiments(points, max_workers=2, chunk_size=1)
        err = excinfo.value
        assert any(cfg.label in err.point for cfg in points)
        assert "RuntimeError: no trace for" in err.cause

    def test_worker_generation_failure_degrades_to_serial(
            self, monkeypatch):
        parent = os.getpid()
        real = parallel.get_trace

        def worker_only_failure(*key):
            if os.getpid() != parent:
                raise OSError("worker cannot generate")
            return real(*key)

        points = _points()
        serial = run_experiments(points, max_workers=1)
        clear_cache()
        clear_caches()
        monkeypatch.setattr(parallel, "get_trace", worker_only_failure)
        pooled = run_experiments(points, max_workers=2, chunk_size=1,
                                 retries=1, backoff_base=0.0,
                                 sleep=lambda s: None)
        assert pooled == serial

    def test_broken_pool_recovers_held_chunks(self, monkeypatch):
        from tests.harness.test_scheduler import _BrokenPool
        points = _points()
        serial = run_experiments(points, max_workers=1)
        clear_cache()
        clear_caches()
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
        assert run_experiments(points, max_workers=2,
                               chunk_size=1) == serial

    def test_stalled_pool_recovers_held_chunks(self, monkeypatch,
                                               tmp_path):
        from tests.harness.test_scheduler import _StalledPool
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _StalledPool)
        points = _points()
        tel = str(tmp_path / "t.jsonl")
        results = run_experiments(points, max_workers=2, chunk_size=1,
                                  timeout=0.05, telemetry=tel)
        assert [r.config for r in results] == points
        (degrade,) = [r for r in read_stream(tel) if r["ev"] == "degrade"]
        assert degrade["reason"] == "stall-timeout"
        assert degrade["points"] == len(points)


class TestCompactTrace:
    def test_pickle_round_trip_is_lossless(self):
        trace = get_trace("blackscholes", 300, 100, 2)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.num_terminals == trace.num_terminals
        assert clone.benchmark == trace.benchmark
        assert clone.records == trace.records
        assert len(clone) > 0

    def test_empty_trace_round_trips(self):
        clone = pickle.loads(pickle.dumps(Trace(16, "empty")))
        assert (clone.num_terminals, clone.benchmark, clone.records) == (
            16, "empty", [])

    def test_records_are_slotted(self):
        record = TraceRecord(3, 0, 1, 5, "read_req")
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
