"""The benchmark's workloads: which ``repro`` commands each one runs.

Every workload is a list of commands run one after another, each in a
fresh process through ``launch.py``; a pass of the workload is the whole
list. The workload seed reaches the program only as the seed of the
points it simulates. Why each workload exists is in README.md.
"""

from __future__ import annotations

#: Fig. 8 subset: the first three of the figure's CMP benchmarks (each
#: with its five schemes), so that a pass takes about as long as the
#: other workloads' passes.
FIG8_BENCHMARKS = ("fma3d", "equake", "blackscholes")
#: Cycle budget of the low-load solo point (sparse stepping).
SOLO_LOW_CYCLES = 2500
#: Cycle budget of the saturation solo points.
SOLO_SAT_CYCLES = 1500

_MESH = ["--topology", "mesh", "--kx", "8", "--ky", "8", "--routing", "xy",
         "--va", "static", "--pattern", "uniform"]
_KITE = ["--topology", "kite", "--kx", "8", "--ky", "8", "--routing",
         "weighted", "--va", "static", "--pattern", "uniform"]

NAMES = ("fig8_cmp", "fig12_sweep", "solo_runs")


def commands(workload: str, seed: int) -> list[dict]:
    """The commands of one pass: ``{"name", "launch", "argv"}`` each.

    ``launch`` holds the ``launch.py`` options, ``argv`` the ``repro``
    command line exactly as a user types it after ``python -m repro``.
    """
    if workload == "fig8_cmp":
        return [{"name": "fig8", "launch": ["--seed", str(seed)],
                 "argv": ["fig8", "--workers", "2", "--backend", "auto"]}]
    if workload == "fig12_sweep":
        return [{"name": "fig12", "launch": ["--seed", str(seed)],
                 "argv": ["fig12", "--workers", "2", "--backend", "auto"]}]
    if workload == "solo_runs":
        run = ["run", "--backend", "auto", "--seed", str(seed)]
        sat = ["--rate", "0.30", "--cycles", str(SOLO_SAT_CYCLES)]
        return [
            {"name": "low_load", "launch": [],
             "argv": run + _MESH + ["--rate", "0.02", "--scheme", "all",
                                    "--cycles", str(SOLO_LOW_CYCLES)]},
            {"name": "sat_baseline", "launch": [],
             "argv": run + _MESH + sat + ["--scheme", "baseline"]},
            {"name": "sat_pseudo_sb", "launch": [],
             "argv": run + _MESH + sat + ["--scheme", "pseudo_sb"]},
            {"name": "kite_weighted", "launch": [],
             "argv": run + _KITE + sat + ["--scheme", "pseudo_sb"]},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def first_config(workload: str, seed: int):
    """The config of the first point the workload's first command runs."""
    from repro.harness.experiment import ExperimentConfig
    from repro.network.config import BASELINE
    if workload == "fig8_cmp":
        return ExperimentConfig(
            topology="cmesh", kx=4, ky=4, concentration=4,
            routing="o1turn", vc_policy="dynamic", scheme=BASELINE,
            benchmark=FIG8_BENCHMARKS[0], trace_cycles=2000,
            trace_warmup=400, seed=seed, backend="auto")
    if workload == "fig12_sweep":
        return ExperimentConfig(
            topology="mesh", kx=8, ky=8, concentration=1, routing="xy",
            vc_policy="static", scheme=BASELINE, pattern="uniform",
            rate=0.05, packet_size=5, synth_cycles=1000, synth_warmup=250,
            seed=seed, backend="auto")
    if workload == "solo_runs":
        return ExperimentConfig(
            topology="mesh", kx=8, ky=8, concentration=1, routing="xy",
            vc_policy="static", scheme=BASELINE, pattern="uniform",
            rate=0.02, synth_cycles=SOLO_LOW_CYCLES,
            synth_warmup=SOLO_LOW_CYCLES // 4, seed=seed, backend="auto")
    raise ValueError(f"unknown workload {workload!r}")


def expected_backends(workload: str) -> str | None:
    """The core every point of the workload must run on, if fixed."""
    return {"fig8_cmp": "scalar", "fig12_sweep": "batched"}.get(workload)
