"""End-to-end and per-layer benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's commands (``workloads.py``) in fresh processes, cold
into an empty result store and then warm against it, again and again
until ``--seconds`` have passed, and checks every simulated point
against ``golden.json``. With ``--trace 0`` it reports the end-to-end
metrics (medians over the passes), with ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
README.md defines every metric. ``--record-golden`` rewrites the
workload's golden points from one cold pass at ``--seed``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Result fields a golden point pins, exactly.
GOLDEN_FIELDS = ("packets", "flit_hops", "cycles", "avg_latency",
                 "reusability")
#: Set-up launches before the first pass; one more follows every warm
#: pass, so the samples spread over the run. ``setup_s`` is the median
#: of all of them.
SETUP_SAMPLES = 4
#: A command still running after this many seconds is killed.
COMMAND_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("warm_wall_s", "s"), ("points_per_s", "1/s"),
              ("flit_hops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("pc_reusability", "ratio"))
PHASES = ("bw", "va_sa", "st_credit", "pc", "inject")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {"process.import_s": "s", "topology.build_s": "s",
             "network.build_s": "s", "metrics.extract_s": "s",
             "cmp.trace_gen_s": "s", "cmp.trace_gens": "count",
             "harness.trace_memo_hit_ratio": "ratio",
             "store.get_s": "s", "store.gets": "count",
             "store.hit_ratio": "ratio", "store.put_s": "s",
             "store.puts": "count", "store.redundant_puts": "count",
             "store.entries_written": "count",
             "store.bytes_written": "bytes",
             "harness.scheduler_self_s": "s", "harness.pool_wait_s": "s",
             "harness.points_simulated": "count",
             "harness.points_batched": "count", "harness.units": "count",
             "tracing_overhead_s": "s", "pc_latency_reduction_pct": "%"}
    for kind in ("scalar", "vectorized", "batched"):
        base = f"network.{kind}."
        units.update({base + "simulate_s": "s", base + "drain_s": "s",
                      base + "us_per_flit_hop": "us",
                      base + "points": "count"})
        if kind != "scalar":
            units.update({base + f"{phase}_s": "s" for phase in PHASES})
            units.update({base + "stepped_cycles": "count",
                          base + "ff_cycles": "count"})
    units["network.batched.lanes_mean"] = "count"
    return units


# -- machine fingerprint ------------------------------------------------------

def fingerprint() -> dict:
    """Where a report was measured (``compare.py`` compares reports
    only when ``nproc``, CPU model, Python and numpy match)."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:  # the batched core cannot run
        numpy_version = None
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "loadavg_start": list(os.getloadavg())}


# -- running one command --------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_STORE", "REPRO_STORE_SALT")}
    env["PYTHONPATH"] = SRC
    return env


def launch(args: list[str], log_prefix: str) -> dict:
    """Run ``launch.py ARGS`` to completion; wall, CPU and peak RSS.

    The child leads its own process group, so a command that outlives
    ``COMMAND_TIMEOUT_S`` is killed with all its workers. CPU time and
    peak RSS come from ``wait4``, which counts the workers the command
    reaped: CPU is summed over them, RSS is the largest single process.
    """
    with open(log_prefix + ".out", "w") as out, \
            open(log_prefix + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py"), *args],
            cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
            start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, [proc.pid])
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command, then re-raise
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers, if a command leaked any
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tail(path: str, lines: int = 15) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


# -- one pass of a workload ---------------------------------------------------

def run_pass(workload: str, seed: int, work: str, store: str, tag: str,
             spans: str | None = None) -> dict:
    """Run every command of the workload once against ``store``."""
    total = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "ok": True,
             "rows": {}}
    for cmd in workloads.commands(workload, seed):
        prefix = os.path.join(work, f"{tag}-{cmd['name']}")
        launch_args = list(cmd["launch"])
        if spans is not None:
            launch_args += ["--spans", spans]
        argv = cmd["argv"] + ["--store", store, "--out", prefix + ".rows"]
        res = launch(launch_args + ["--"] + argv, prefix)
        total["wall_s"] += res["wall_s"]
        total["cpu_s"] += res["cpu_s"]
        total["rss_mb"] = max(total["rss_mb"], res["rss_mb"])
        if res["rc"] != 0:
            total["ok"] = False
            print(f"[{tag}] {cmd['name']} exited {res['rc']}:\n"
                  f"{_tail(prefix + '.err')}", file=sys.stderr)
            continue
        with open(prefix + ".rows", encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        for row in rows if isinstance(rows, list) else ():
            if isinstance(row, dict):
                row.pop("manifest", None)  # wall clock and timestamps
        total["rows"][cmd["name"]] = json.dumps(rows, sort_keys=True)
    return total


def store_points(store_dir: str) -> dict:
    """Every stored point by label, read back through ``ResultStore``;
    ``keys`` counts the store keys that hold the label."""
    from repro.store import ResultStore
    store = ResultStore(store_dir)
    points = {}
    for meta in store.entries():
        payload = store.get(meta["key"])
        manifest = payload.get("manifest") or {}
        keys = points.get(meta["label"], {}).get("keys", 0) + 1
        points[meta["label"]] = {
            "keys": keys,
            "packets": payload["packets"],
            "flit_hops": payload["flit_hops"],
            "cycles": manifest.get("cycles"),
            "avg_latency": payload["avg_latency"],
            "reusability": payload["reusability"],
            "backend": manifest.get("backend"),
            "batch_lanes": manifest.get("batch_lanes"),
            "batch_lane": manifest.get("batch_lane"),
        }
    return points


def store_footprint(store_dir: str) -> tuple[int, int]:
    """(entries, bytes) of the store, counted from its directory."""
    from repro.store import ResultStore
    keys = ResultStore(store_dir).keys()
    size = sum(os.path.getsize(path) for path in glob.glob(
        os.path.join(store_dir, "objects", "*", "*.json")))
    return len(keys), size


# -- checks -------------------------------------------------------------------

def check_points(workload: str, seed: int, points: dict, golden: dict,
                 entries: int) -> tuple[set, list]:
    """Failed labels and traffic-count violations of one cold pass;
    ``entries`` is the store's key count (``store_footprint``)."""
    expected = golden["points"][workload]
    pinned = expected if seed == golden["seed"] else None
    failed = set()
    for label, want in expected.items():
        got = points.get(label)
        if got is None:
            failed.add(label)
            continue
        if not all(isinstance(got[f], (int, float)) and math.isfinite(got[f])
                   for f in GOLDEN_FIELDS):
            failed.add(label)
        elif pinned is not None and any(got[f] != want[f]
                                        for f in GOLDEN_FIELDS):
            failed.add(label)
    violations = []
    extra = sorted(set(points) - set(expected))
    if extra:
        violations.append(f"unexpected store entries: {extra}")
    doubled = sorted(label for label, got in points.items()
                     if got["keys"] > 1)
    if doubled:
        violations.append(f"labels stored under more than one key: "
                          f"{doubled}")
    backend = workloads.expected_backends(workload)
    if backend is not None:
        wrong = sorted(label for label, got in points.items()
                       if got["backend"] != backend)
        if wrong:
            violations.append(f"points not on the {backend} core: {wrong}")
    if workload == "fig12_sweep":
        units = sum(1 for got in points.values() if got["batch_lane"] == 0)
        if entries != 60 or units != 5:
            violations.append(f"expected 60 entries in 5 batched units, "
                              f"got {entries} in {units}")
    elif entries != len(expected):
        violations.append(f"expected {len(expected)} store entries, "
                          f"got {entries}")
    return failed, violations


def simulated_metrics(points: dict) -> tuple[float, float]:
    """Pseudo+S+B latency reduction (%) and reusability, averaged.

    The reduction pairs Pseudo+S+B with the Baseline point of the same
    topology and traffic; points without such a pair are skipped.
    """
    groups: dict = {}
    for label, got in points.items():
        topo, _, _, scheme, traffic = label.split("/")
        groups.setdefault((topo, traffic), {})[scheme] = got
    reductions, reuse = [], []
    for pair in groups.values():
        psb = pair.get("Pseudo+S+B")
        if psb is None:
            continue
        reuse.append(psb["reusability"])
        base = pair.get("Baseline")
        if base is not None:
            reductions.append(
                100.0 * (1.0 - psb["avg_latency"] / base["avg_latency"]))
    return statistics.fmean(reductions), statistics.fmean(reuse)


# -- per-layer metrics from spans ---------------------------------------------

def read_spans(span_dir: str) -> list[dict]:
    """Every span record the processes of one pass wrote."""
    records = []
    for path in sorted(glob.glob(os.path.join(span_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def layer_metrics(cold: list[dict], warm: list[dict],
                  footprint: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced cold pass and its warm pass."""
    def total(records, name):
        return sum((r["self_s"] for r in records if r["name"] == name), 0.0)

    def count(records, name, **match):
        return sum(1 for r in records if r["name"] == name
                   and all(r.get(k) == v for k, v in match.items()))

    out = {"process.import_s": total(cold, "process.import"),
           "topology.build_s": total(cold, "topology.build"),
           "network.build_s": total(cold, "network.build"),
           "metrics.extract_s": total(cold, "metrics.extract"),
           "cmp.trace_gen_s": total(cold, "cmp.trace_gen"),
           "cmp.trace_gens": count(cold, "cmp.trace_gen")}
    lookups = count(cold, "harness.get_trace")
    out["harness.trace_memo_hit_ratio"] = (
        1.0 - out["cmp.trace_gens"] / lookups if lookups else 0.0)
    gets = count(warm, "store.get")
    out.update({"store.get_s": total(warm, "store.get"), "store.gets": gets,
                "store.hit_ratio": (count(warm, "store.get", hit=True) / gets
                                    if gets else 0.0),
                "store.put_s": total(cold, "store.put"),
                "store.puts": count(cold, "store.put"),
                "store.redundant_puts": count(cold, "store.put",
                                              redundant=True),
                "store.entries_written": footprint[0],
                "store.bytes_written": footprint[1]})
    out["harness.scheduler_self_s"] = (total(cold, "harness.run_experiments")
                                       + total(cold, "harness.chunk"))
    out["harness.pool_wait_s"] = total(cold, "harness.pool_wait")
    done = [r for r in cold if r["name"] == "network.done"]
    for kind in ("scalar", "vectorized", "batched"):
        base = f"network.{kind}."
        nets = [r for r in done if r["kind"] == kind]
        simulate = total(cold, base + "run")
        if kind == "scalar":
            simulate += total(cold, "network.scalar.step")
        drain = total(cold, base + "drain")
        hops = sum(r["flit_hops"] for r in nets)
        out[base + "simulate_s"] = simulate
        out[base + "drain_s"] = drain
        out[base + "us_per_flit_hop"] = (1e6 * (simulate + drain) / hops
                                         if hops else 0.0)
        out[base + "points"] = sum(r["lanes"] for r in nets)
        if kind != "scalar":
            for phase in PHASES:
                out[base + f"{phase}_s"] = sum(
                    (r["phases"][phase] for r in nets), 0.0)
            for key in ("stepped_cycles", "ff_cycles"):
                out[base + key] = sum(r[key] for r in nets)
    out["network.batched.lanes_mean"] = (
        out["network.batched.points"] / count(done, "network.done",
                                              kind="batched")
        if out["network.batched.points"] else 0.0)
    out["harness.points_simulated"] = sum(r["lanes"] for r in done)
    out["harness.points_batched"] = out["network.batched.points"]
    out["harness.units"] = (count(cold, "harness.batch_unit")
                            + out["harness.points_simulated"]
                            - out["harness.points_batched"])
    return out


# -- the run ------------------------------------------------------------------

class Run:
    """One benchmark invocation: its passes, checks and samples."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.npoints = len(golden["points"][workload])
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.reference_rows: dict | None = None
        self.points: dict | None = None
        #: (directory, cold rows, footprint) of the last cold pass.
        self.store: tuple | None = None
        self.warms = 0

    def cold_warm(self, spans: bool = False) -> tuple[dict, dict, dict]:
        """One cold pass into a fresh store, then one warm pass over it.

        The store stays until the next cold pass, so ``warm_pass`` can
        rerun it.
        """
        if self.store is not None:
            shutil.rmtree(self.store[0], ignore_errors=True)
        self.passes += 1
        self.warms = 0
        tag = f"p{self.passes}"
        store = os.path.join(self.work, tag + "-store")
        span_dirs = ((os.path.join(self.work, tag + "-spans-cold"),
                      os.path.join(self.work, tag + "-spans-warm"))
                     if spans else (None, None))
        cold = run_pass(self.workload, self.seed, self.work, store,
                        tag + "-cold", span_dirs[0])
        footprint = store_footprint(store)
        points = store_points(store)
        self.attempted += self.npoints
        failed, violations = check_points(self.workload, self.seed, points,
                                          self.golden, footprint[0])
        if not cold["ok"]:
            failed = set(self.golden["points"][self.workload])
        if self.reference_rows is None and cold["ok"]:
            self.reference_rows = cold["rows"]
            self.points = points
        elif cold["ok"] and cold["rows"] != self.reference_rows:
            violations.append(f"pass {tag}: cold rows differ from pass 1")
            failed = set(self.golden["points"][self.workload])
        self.failed += len(failed)
        self.violations += violations
        self.store = (store, cold["rows"], footprint)
        warm = self.warm_pass(span_dirs[1])
        layers = None
        if spans:
            layers = layer_metrics(read_spans(span_dirs[0]),
                                   read_spans(span_dirs[1]), footprint)
        return cold, warm, layers

    def warm_pass(self, span_dir: str | None = None) -> dict:
        """Rerun the last cold pass against its store; it must return
        the cold rows and write nothing."""
        store, rows, footprint = self.store
        self.warms += 1
        tag = f"p{self.passes}-warm{self.warms}"
        warm = run_pass(self.workload, self.seed, self.work, store, tag,
                        span_dir)
        self.attempted += self.npoints
        if not (warm["ok"] and warm["rows"] == rows
                and store_footprint(store) == footprint):
            self.violations.append(f"pass {tag}: warm rerun differs from "
                                   f"cold")
            self.failed += self.npoints
        return warm

    def setup_time(self) -> float:
        """Wall seconds of one set-up launch, measured from outside."""
        res = launch(["--setup", self.workload, "--seed", str(self.seed)],
                     os.path.join(self.work, "setup"))
        if res["rc"] != 0:
            log = _tail(os.path.join(self.work, "setup.err"))
            raise RuntimeError(f"set-up of {self.workload} exited "
                               f"{res['rc']}:\n{log}")
        return res["wall_s"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _fits(start: float, seconds: float, pass_s: float) -> bool:
    """Whether one more pass of ``pass_s`` seconds ends within the run."""
    return time.perf_counter() - start + pass_s <= seconds


def measure_end_to_end(run: Run, seconds: float) -> dict:
    """Samples of every end-to-end metric; the metric is their median.

    Cold passes (each with one warm pass) repeat while the next one is
    expected to end within ``seconds``; the rest of the run is filled
    with more warm passes over the last store. A warm pass is short
    (start-up plus store reads), so many samples spread over the run
    keep its median steady, and the run's length stays ``seconds``
    whatever the host's speed.
    """
    setups = [run.setup_time() for _ in range(SETUP_SAMPLES)]
    colds, warms = [], []
    start = time.perf_counter()
    pass_s = 0.0
    while not colds or _fits(start, seconds, pass_s):
        began = time.perf_counter()
        cold, warm, _ = run.cold_warm()
        colds.append(cold)
        warms.append(warm)
        setups.append(run.setup_time())
        pass_s = max(pass_s, time.perf_counter() - began)
    while time.perf_counter() - start < seconds:
        warms.append(run.warm_pass())
        setups.append(run.setup_time())
    walls = [c["wall_s"] for c in colds]
    samples = {"setup_s": setups, "wall_s": walls,
               "cpu_s": [c["cpu_s"] for c in colds],
               "warm_wall_s": [w["wall_s"] for w in warms],
               "points_per_s": [run.npoints / wall for wall in walls],
               "peak_rss_mb": [c["rss_mb"] for c in colds]}
    if run.points:
        hops = sum(p["flit_hops"] for p in run.points.values())
        samples["flit_hops_per_s"] = [hops / wall for wall in walls]
        samples["pc_reusability"] = [simulated_metrics(run.points)[1]]
    return samples


def measure_per_layer(run: Run, seconds: float) -> dict:
    """Samples of every per-layer metric from the traced passes, and the
    tracing overhead: traced minus untraced cold ``wall_s``, with the
    untraced and traced passes interleaved while the next pair is
    expected to end within ``seconds``.
    """
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not traced or _fits(start, seconds, pair_s):
        began = time.perf_counter()
        plain.append(run.cold_warm()[0]["wall_s"])
        cold, _, layer = run.cold_warm(spans=True)
        traced.append(cold["wall_s"])
        layers.append(layer)
        pair_s = max(pair_s, time.perf_counter() - began)
    samples = {name: [layer[name] for layer in layers] for name in layers[0]}
    samples["tracing_overhead_s"] = [statistics.median(traced)
                                     - statistics.median(plain)]
    if run.points:
        samples["pc_latency_reduction_pct"] = [
            simulated_metrics(run.points)[0]]
    return samples


def record_golden(workload: str, seed: int) -> None:
    """Rewrite the workload's golden points from one cold pass."""
    golden = {"seed": seed, "points": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    if golden["seed"] != seed:
        raise SystemExit(f"golden.json pins seed {golden['seed']}")
    work = os.path.join(WORK, f"golden-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        store = os.path.join(work, "store")
        cold = run_pass(workload, seed, work, store, "golden")
        if not cold["ok"]:
            raise SystemExit("golden pass failed")
        golden["points"][workload] = {
            label: {f: got[f] for f in GOLDEN_FIELDS}
            for label, got in sorted(store_points(store).items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    """Parse the arguments, run the workload, print the result line."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        record_golden(args.workload, args.seed)
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if args.workload not in golden["points"]:
        print(f"error: no golden points for {args.workload}",
              file=sys.stderr)
        return 2
    fp = fingerprint()
    run = Run(args.workload, args.seed, golden)
    try:
        if args.trace:
            samples = measure_per_layer(run, args.seconds)
            units = per_layer_units()
        else:
            samples = measure_end_to_end(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        run.close()
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.violations.append(f"metrics not measured: {missing}")
    correct = run.failed == 0 and not run.violations
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": fp,
              "passes": run.passes, "samples": samples,
              "failed_fraction": run.failed / max(1, run.attempted),
              "violations": run.violations,
              "metrics": {name: metrics.get(name) for name in units}}
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    path = os.path.join(WORK, "reports", f"{args.workload}-s{args.seed}-"
                        f"t{args.trace}-{int(time.time() * 1000)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"machine: {json.dumps(fp, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics.get(name)!s:>24} {unit:6s} "
              f"(median of {len(samples.get(name, ()))})")
    print(f"failed_fraction {report['failed_fraction']:.4f} "
          f"({run.failed}/{run.attempted} points)")
    for violation in run.violations:
        print(f"CHECK FAILED: {violation}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
