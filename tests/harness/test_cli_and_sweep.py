"""Tests for the CLI and the sensitivity-sweep module."""

import pytest

from repro.__main__ import main
from repro.harness.sweep import sweep_load, sweep_vcs


def test_cli_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "crossbar" in out and "Table II" in out


def test_cli_run_single_scheme(capsys):
    assert main(["run", "--kx", "4", "--ky", "4", "--scheme", "pseudo_sb",
                 "--rate", "0.05", "--cycles", "300"]) == 0
    out = capsys.readouterr().out
    assert "Pseudo+S+B" in out


@pytest.mark.parametrize("argv, named", [
    (["--cycles", "0"], "got 0"),
    (["--cycles", "-5"], "got -5"),
    (["--topology", "kite", "--routing", "xy"], "'kite'"),
    (["--topology", "kite"], "'xy'"),
])
def test_cli_run_refuses_a_bad_config_as_usage_error(argv, named, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--scheme", "baseline", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: refused configuration" in err
    assert named in err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_sweep(capsys):
    assert main(["sweep", "--kind", "load"]) == 0
    assert "sensitivity sweep" in capsys.readouterr().out


def test_sweep_load_reuse_decays_with_contention():
    rows = sweep_load(loads=(0.05, 0.25), synth_cycles=600, synth_warmup=150)
    assert rows[0]["reusability"] > rows[-1]["reusability"]
    for row in rows:
        assert row["reduction"] > 0


def test_sweep_vcs_rows_complete():
    rows = sweep_vcs(vc_counts=(2, 4), synth_cycles=400, synth_warmup=100,
                     kx=4, ky=4)
    assert [r["num_vcs"] for r in rows] == [2, 4]
    for row in rows:
        assert row["latency"] > 0 and 0 <= row["reusability"] <= 1


def test_cli_trace_writes_all_outputs(tmp_path, capsys):
    import json

    prefix = str(tmp_path / "smoke")
    assert main(["trace", "--kx", "4", "--ky", "4", "--pattern", "uniform",
                 "--rate", "0.1", "--cycles", "200", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "events over" in out
    with open(prefix + ".trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)  # Perfetto-loadable round trip
    assert doc["traceEvents"]
    with open(prefix + ".jsonl", encoding="utf-8") as fh:
        first = json.loads(next(fh))
    assert "ev" in first and "cycle" in first
    with open(prefix + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["config"]["pattern"] == "uniform"
    with open(prefix + ".series.csv", encoding="utf-8") as fh:
        assert fh.readline().startswith("start,end,router")
    with open(prefix + ".heatmap.json", encoding="utf-8") as fh:
        assert json.load(fh)["kx"] == 4


def test_cli_run_trace_needs_single_scheme(capsys):
    assert main(["run", "--trace", "x", "--scheme", "all"]) == 2
    assert "single --scheme" in capsys.readouterr().err


def test_cli_run_with_series(tmp_path, capsys):
    prefix = str(tmp_path / "r")
    assert main(["run", "--kx", "4", "--ky", "4", "--scheme", "pseudo_sb",
                 "--rate", "0.05", "--cycles", "200",
                 "--series", prefix]) == 0
    assert (tmp_path / "r.series.csv").exists()
    assert (tmp_path / "r.series.json").exists()


def test_cli_sweep_out_writes_manifest(tmp_path, capsys):
    import json

    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--kind", "load", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["rows"]
    with open(str(tmp_path / "sweep.manifest.json"), encoding="utf-8") as fh:
        assert json.load(fh)["config"]["command"] == "sweep"
