"""Compare two sets of benchmark reports against the bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON reports ``run.py`` writes to
``.perfbench_work/reports/``. For every workload and end-to-end metric
it prints both medians and fails (exit 1) when the new median is worse
than the base median by more than the metric's bound in BENCHMARK.json,
when a metric the base set measured is missing from the new set, and
when any report has a failed point or a failed check.
Reports measured on different machines or toolchains (``nproc``, CPU
model, Python, numpy) are never compared: mixing them exits 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy")


def load(directory: str) -> list[dict]:
    """The untraced reports in ``directory``."""
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("trace") == 0:
            reports.append(report)
    return reports


def machine(report: dict) -> tuple:
    """The part of a fingerprint that must match between reports."""
    return tuple(report["fingerprint"].get(key) for key in MACHINE_KEYS)


def main(argv=None) -> int:
    """Print the comparison; exit 1 on a regression or a failure, 2 on
    mixed machines."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    machines = {machine(r) for r in base + new}
    if len(machines) != 1:
        print(f"error: reports from different machines: {sorted(machines)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    regressed = False
    for report in base + new:
        if report["failed_fraction"] > 0 or report["violations"]:
            print(f"FAILED: {report['workload']} seed {report['seed']}: "
                  f"failed_fraction {report['failed_fraction']}, "
                  f"violations {report['violations']}")
            regressed = True
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [[r["metrics"][name] for r in reports
                      if r["workload"] == workload
                      and r["metrics"].get(name) is not None]
                     for reports in (base, new)]
            if sides[0] and not sides[1]:
                print(f"{workload:12s} {name:18s} MISSING from the new set")
                regressed = True
            if not all(sides):
                continue
            old, cur = (statistics.median(side) for side in sides)
            change = (cur - old) / old
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            regressed |= verdict != "ok"
            print(f"{workload:12s} {name:18s} {old:12.6g} -> {cur:12.6g} "
                  f"{change:+7.1%} (bound {metric['bound']:.0%}, "
                  f"n={len(sides[0])}/{len(sides[1])}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
