"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests

The smoke runs execute one pass of each workload (a few minutes in
all); the other tests need no simulation.
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import launch  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(run.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", str(GOLDEN["seed"]),
                   "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert set(GOLDEN["points"]) == set(workloads.NAMES)


def _golden_points(workload, backend="scalar"):
    points = copy.deepcopy(GOLDEN["points"][workload])
    for lane, got in enumerate(points.values()):
        got.update(keys=1, backend=backend, batch_lanes=12,
                   batch_lane=lane % 12)
    return points


def test_golden_points_pass_the_check():
    for workload, backend in (("fig8_cmp", "scalar"),
                              ("fig12_sweep", "batched")):
        points = _golden_points(workload, backend)
        failed, violations = run.check_points(workload, GOLDEN["seed"],
                                              points, GOLDEN, len(points))
        assert failed == set() and violations == []


def test_perturbed_golden_value_fails_its_point():
    points = _golden_points("fig8_cmp")
    golden = copy.deepcopy(GOLDEN)
    label = sorted(points)[3]
    golden["points"]["fig8_cmp"][label]["flit_hops"] += 1
    failed, _ = run.check_points("fig8_cmp", GOLDEN["seed"], points,
                                 golden, len(points))
    assert failed == {label}


def test_missing_and_non_finite_points_fail_at_any_seed():
    points = _golden_points("fig8_cmp")
    first, second = sorted(points)[:2]
    del points[first]
    points[second]["avg_latency"] = float("nan")
    failed, _ = run.check_points("fig8_cmp", GOLDEN["seed"] + 1, points,
                                 GOLDEN, len(points))
    assert failed == {first, second}


def test_traffic_counts_are_asserted():
    points = _golden_points("fig12_sweep")
    _, violations = run.check_points("fig12_sweep", GOLDEN["seed"], points,
                                     GOLDEN, len(points))
    assert any("batched core" in v for v in violations)

    # A second key per label (a double write) shows in the key count
    # and in the label's own count, though the labels still number 60.
    points = _golden_points("fig12_sweep", "batched")
    label = sorted(points)[0]
    points[label]["keys"] = 2
    _, violations = run.check_points("fig12_sweep", GOLDEN["seed"], points,
                                     GOLDEN, len(points) + 1)
    assert any("5 batched units, got 61" in v for v in violations)
    assert any("more than one key" in v and label in v for v in violations)

    points = _golden_points("fig12_sweep", "batched")
    for got in points.values():
        got["batch_lane"] = 1
    _, violations = run.check_points("fig12_sweep", GOLDEN["seed"], points,
                                     GOLDEN, len(points))
    assert any("5 batched units, got 60 in 0" in v for v in violations)

    points = _golden_points("fig8_cmp")
    _, violations = run.check_points("fig8_cmp", GOLDEN["seed"], points,
                                     GOLDEN, 2 * len(points))
    assert violations == [f"expected {len(points)} store entries, "
                          f"got {2 * len(points)}"]


def _write_report(directory, workload, wall, failed=0.0, violations=()):
    directory.mkdir(exist_ok=True)
    report = {"workload": workload, "seed": 1, "trace": 0,
              "fingerprint": {"nproc": 2, "cpu_model": "x", "python": "3",
                              "numpy": "2"},
              "failed_fraction": failed, "violations": list(violations),
              "metrics": {"wall_s": wall}}
    with open(directory / f"{workload}-{len(os.listdir(directory))}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def test_compare_fails_on_regression_missing_or_failed_data(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    for workload in ("fig8_cmp", "fig12_sweep"):
        _write_report(base, workload, 10.0)
    _write_report(new, "fig8_cmp", 10.5)
    _write_report(new, "fig12_sweep", 10.0)
    assert compare.main([str(base), str(new)]) == 0
    _write_report(new, "fig8_cmp", 20.0)
    _write_report(new, "fig8_cmp", 20.0)
    assert compare.main([str(base), str(new)]) == 1

    new = tmp_path / "crashed"
    _write_report(new, "fig8_cmp", 10.0)
    assert compare.main([str(base), str(new)]) == 1

    new = tmp_path / "wrong"
    _write_report(new, "fig8_cmp", 10.0, violations=["rows differ"])
    _write_report(new, "fig12_sweep", 10.0, failed=0.5)
    assert compare.main([str(base), str(new)]) == 1


def _targets():
    """Every (owner, attribute) the tracer wraps, with its original."""
    tracer = spans.Tracer("unused")
    tracer.install()
    targets = [(owner, attr, original)
               for owner, attr, original in tracer._restored]
    tracer.uninstall()
    return targets


#: A small ``repro run`` that finishes in well under a second.
SMALL_RUN = ["run", "--topology", "mesh", "--kx", "4", "--ky", "4",
             "--rate", "0.02", "--cycles", "200", "--scheme", "baseline"]


@pytest.fixture
def in_process(tmp_path, monkeypatch):
    """Run launch.py in this process with an empty memo; undo the store
    it installs."""
    from repro.harness import experiment
    monkeypatch.setattr(experiment, "_default_store", None)
    monkeypatch.setattr(experiment, "_run_cache", {})
    return SMALL_RUN + ["--store", str(tmp_path / "store")]


def test_tracing_off_attaches_no_wrappers(in_process, monkeypatch):
    from repro import __main__ as cli
    targets = _targets()
    real_main = cli.main
    unwrapped = []

    def checking_main(argv):
        unwrapped.extend(owner.__dict__[attr] is original
                         for owner, attr, original in targets)
        return real_main(argv)

    def no_tracer(*args, **kwargs):
        raise AssertionError("an untraced command built a tracer")

    monkeypatch.setattr(spans, "Tracer", no_tracer)
    monkeypatch.setattr(cli, "main", checking_main)
    assert launch.main(["--"] + in_process) == 0
    assert len(unwrapped) == len(targets) > 10 and all(unwrapped)


def test_tracing_on_wraps_then_restores(in_process, tmp_path):
    targets = _targets()
    span_dir = str(tmp_path / "spans")
    assert launch.main(["--spans", span_dir, "--"] + in_process) == 0
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in targets)
    records = run.read_spans(span_dir)
    assert {"process.import", "harness.point", "network.build",
            "network.scalar.run", "network.scalar.drain", "store.get",
            "store.put", "network.done"} <= {r["name"] for r in records}
    for record in records:
        if "start" in record:
            assert record["self_s"] <= record["end"] - record["start"]
