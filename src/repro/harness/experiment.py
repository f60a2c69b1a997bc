"""Experiment runner: a declarative config -> a simulated network -> results.

``ExperimentConfig`` captures everything the paper varies: topology,
routing, VC allocation policy, pseudo-circuit scheme, and the traffic
source (a benchmark trace or a synthetic pattern). ``run_experiment``
builds the network, drives it, and returns a ``Result`` with the metrics
every figure needs. Traces and completed runs are memoized per process so
overlapping figures (e.g. Fig. 9 and Fig. 10 use the same grid of runs)
pay for each simulation once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..energy import DEFAULT_ENERGY_MODEL
from ..evc import EvcMesh, EvcRouting
from ..instrument import run_manifest
from ..network.backend import (BackendUnsupportedError, backend_of,
                               choose_backend, resolve_backend)
from ..network.config import NetworkConfig, PseudoCircuitConfig
from ..network.simulator import Network
from ..topology import TOPOLOGY_REGISTRY, make_topology
from ..traffic.synthetic import SyntheticTraffic
from ..traffic.trace import Trace, TraceReplayTraffic
from .traces import get_trace, trace_key


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation point."""

    # Network structure.
    topology: str = "cmesh"
    kx: int = 4
    ky: int = 4
    concentration: int = 4
    # Chiplet-only structure (ignored by other topologies): number of
    # compute dies and the wire latency of each die<->IO boundary link.
    chiplets: int = 4
    chiplet_link_latency: int = 4
    routing: str = "o1turn"
    vc_policy: str = "dynamic"
    scheme: PseudoCircuitConfig = field(default_factory=PseudoCircuitConfig)
    num_vcs: int = 4
    buffer_depth: int = 4
    # Traffic: either a benchmark trace or a synthetic pattern.
    benchmark: str | None = None
    trace_cycles: int = 2000
    trace_warmup: int = 400
    pattern: str | None = None
    rate: float = 0.1
    packet_size: int = 5
    synth_cycles: int = 1500
    synth_warmup: int = 300
    mshrs: int = 4   # NIC self-throttling during trace replay
    seed: int = 1
    # Network core: "scalar", "vectorized", "batched" or "auto"; None
    # picks up the process default
    # (repro.network.backend.set_default_backend). "auto" and "batched"
    # are kept as-is in store keys (a point's identity includes the
    # *policy* it ran under); build_network resolves them to a concrete
    # core per point, and the scheduler groups compatible
    # batched/auto points into BatchNetwork lanes.
    backend: str | None = None

    def __post_init__(self):
        """The one place a config is checked: refusals raise
        ``ValueError`` naming the refused value, before anything runs."""
        if (self.benchmark is None) == (self.pattern is None):
            raise ValueError(
                "configure exactly one of benchmark= or pattern=")
        if self.benchmark is not None:
            budgets = (("trace_cycles", self.trace_cycles, 1),
                       ("trace_warmup", self.trace_warmup, 0))
        else:
            budgets = (("synth_cycles", self.synth_cycles, 1),
                       ("synth_warmup", self.synth_warmup, 0))
        for name, value, least in budgets:
            if value < least:
                raise ValueError(
                    f"{name} must be at least {least}, got {value}")
        info = TOPOLOGY_REGISTRY.get(self.topology)
        if info is not None and self.routing not in info.routings:
            raise ValueError(
                f"routing {self.routing!r} is not supported on topology "
                f"{self.topology!r} (supported: "
                f"{', '.join(info.routings)})")
        # Resolve the backend at construction so equality, run-cache and
        # store keys always carry a concrete backend name — results from
        # different backends never alias, whatever the process default
        # was when either was computed.
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    @property
    def label(self) -> str:
        """Human-readable point label (topology/routing/VA/scheme/traffic)."""
        traffic = self.benchmark or f"{self.pattern}@{self.rate:g}"
        return (f"{self.topology}/{self.routing}/{self.vc_policy}/"
                f"{self.scheme.label}/{traffic}")

    def with_scheme(self, scheme: PseudoCircuitConfig) -> "ExperimentConfig":
        """This config with the pseudo-circuit scheme replaced."""
        return replace(self, scheme=scheme)


@dataclass(frozen=True)
class Result:
    """Metrics extracted from one finished simulation."""

    config: ExperimentConfig
    avg_latency: float
    avg_network_latency: float
    avg_hops: float
    reusability: float
    buffer_bypass_rate: float
    e2e_locality: float
    xbar_locality: float
    packets: int
    flit_hops: int
    energy_pj: float
    energy_breakdown: dict
    pc_restored: int
    # Run provenance (repro.instrument.run_manifest). Excluded from
    # equality so results compare by metrics regardless of which machine
    # or commit produced them.
    manifest: dict | None = field(default=None, compare=False)
    # Metrics document from a ``check=True`` run (repro.monitor); absent
    # on unchecked runs. Excluded from equality for the same reason.
    monitor_report: dict | None = field(default=None, compare=False)

    @classmethod
    def from_network(cls, config: ExperimentConfig, net: Network,
                     manifest: dict | None = None,
                     monitor_report: dict | None = None) -> "Result":
        """Extract the paper's metrics from a finished simulation."""
        return cls.from_stats(config, net.stats, manifest=manifest,
                              monitor_report=monitor_report)

    @classmethod
    def from_stats(cls, config: ExperimentConfig, stats,
                   manifest: dict | None = None,
                   monitor_report: dict | None = None) -> "Result":
        """Extract the paper's metrics from a finished NetworkStats
        (the per-lane extraction path of batched runs)."""
        energy = DEFAULT_ENERGY_MODEL.router_energy(stats)
        return cls(
            config=config,
            avg_latency=stats.avg_latency,
            avg_network_latency=stats.avg_network_latency,
            avg_hops=stats.avg_hops,
            reusability=stats.reusability,
            buffer_bypass_rate=stats.buffer_bypass_rate,
            e2e_locality=stats.e2e_locality,
            xbar_locality=stats.xbar_locality,
            packets=stats.measured_packets,
            flit_hops=stats.flit_hops,
            energy_pj=energy["total"],
            energy_breakdown=energy,
            pc_restored=stats.pc_restored,
            manifest=manifest,
            monitor_report=monitor_report,
        )


_run_cache: dict[ExperimentConfig, Result] = {}

#: Process-wide ResultStore backing the memo (None = memory only).
_default_store = None


def set_default_store(store) -> None:
    """Install the process-wide result store behind the run cache.

    With a store installed, every cache miss consults the store (a
    durable, content-addressed hit is folded into the memo) and every
    computed result is written through, so repeated ``figure all``
    invocations across *processes* become near-free cache hits. Pass
    ``None`` to go back to memory-only caching. Checked runs
    (``check=True``) bypass both layers.
    """
    global _default_store
    _default_store = store


def default_store():
    """The process-wide result store, or ``None`` (memory-only cache)."""
    return _default_store


def build_network(config: ExperimentConfig, probe=None) -> Network:
    """Construct the simulated network one experiment point describes.

    ``config.backend`` picks the core: the scalar object-per-router
    ``Network`` or the numpy ``VectorNetwork`` (bit-identical stats; see
    ARCHITECTURE.md "Backends"). ``"batched"`` runs single points on
    the vectorized core (lane grouping happens in the scheduler, not
    here); ``"auto"`` picks per point via ``choose_backend`` and — as
    its documented policy, not a silent fallback — takes the scalar
    core wherever the vectorized core refuses the configuration. For
    the explicit vectorized/batched backends unsupported configurations
    still raise ``BackendUnsupportedError``.
    """
    net_cfg = NetworkConfig(
        num_vcs=config.num_vcs, buffer_depth=config.buffer_depth,
        pseudo=config.scheme,
        mshrs=config.mshrs if config.benchmark is not None else 0)
    if config.topology == "evc_mesh":
        topo = EvcMesh(config.kx, config.ky, config.concentration)
        routing = EvcRouting(topo)
    else:
        topo = make_topology(
            config.topology, config.kx, config.ky, config.concentration,
            chiplets=config.chiplets,
            chiplet_link_latency=config.chiplet_link_latency)
        routing = config.routing
    kwargs = dict(routing=routing, vc_policy=config.vc_policy,
                  seed=config.seed, probe=probe)
    backend = resolve_backend(config.backend)
    if backend == "auto":
        backend = choose_backend(
            terminals=topo.num_terminals,
            rate=config.rate if config.benchmark is None else None,
            pseudo=config.scheme.enabled)
        if backend == "vectorized":
            from ..network.vectorized import VectorNetwork
            try:
                return VectorNetwork(topo, net_cfg, **kwargs)
            except BackendUnsupportedError:
                return Network(topo, net_cfg, **kwargs)
    if backend in ("vectorized", "batched"):
        from ..network.vectorized import VectorNetwork
        return VectorNetwork(topo, net_cfg, **kwargs)
    return Network(topo, net_cfg, **kwargs)


def _attach_monitors(net, probe, check_stride: int):
    """Attach the ``--check`` suite to a freshly built network.

    Scalar cores bind the monitor registry's composite probe (merged
    with any user probe); vectorized/batched cores attach the
    array-native ``VectorInvariantChecker`` and switch on the per-phase
    profiler instead. Returns the registry whose ``finish``/``snapshot``
    produce the run's metrics document.
    """
    if hasattr(net, "attach_checker"):
        from ..monitor import MetricsRegistry
        from ..network.vectorized import VectorInvariantChecker
        if probe is not None:
            net.bind_probe(probe)
        checker = VectorInvariantChecker(strict=True, stride=check_stride)
        net.attach_checker(checker)
        net.enable_profile()
        return MetricsRegistry([checker])
    from ..instrument import CompositeProbe
    from ..monitor import default_registry
    registry = default_registry(strict=True)
    monitor_probe = registry.probe()
    net.bind_probe(monitor_probe if probe is None
                   else CompositeProbe(probe, monitor_probe))
    return registry


def run_experiment(config: ExperimentConfig, *, use_cache: bool = True,
                   probe=None, check: bool = False,
                   check_stride: int = 1) -> Result:
    """Simulate one configuration (memoized per process).

    ``probe`` attaches an instrumentation probe for this run; probed runs
    never read or populate the memo (the probe observes the simulation, so
    a cached result would silently skip it). ``check=True`` additionally
    attaches invariant checking — the full scalar monitor suite
    (``repro.monitor.default_registry``) on the scalar core, the
    array-native ``VectorInvariantChecker`` sweeping every
    ``check_stride`` cycles on the vectorized cores; both strict (the
    first violation raises) — and stores the metrics document on
    ``Result.monitor_report``.
    """
    if probe is not None or check:
        use_cache = False
    if use_cache:
        hit = cached(config)
        if hit is not None:
            return hit
    registry = None
    start = time.perf_counter()
    if check:
        # Built bare: monitors attach after construction so the vector
        # cores can take the checker path instead of a probe refusal.
        net = build_network(config)
        registry = _attach_monitors(net, probe, check_stride)
    else:
        net = build_network(config, probe=probe)
    if config.benchmark is not None:
        _replay(net, get_trace(*trace_key(config)))
    else:
        traffic = SyntheticTraffic(config.pattern,
                                   net.topology.num_terminals, config.rate,
                                   config.packet_size, seed=config.seed)
        net.stats.warmup_cycles = config.synth_warmup
        net.run(config.synth_cycles, traffic)
        net.drain(max_cycles=500_000)
    net.check_invariants()
    monitor_report = None
    if registry is not None:
        monitor_report = registry.finish(net)
        profile = getattr(net, "profile", None)
        if profile is not None and (prof_doc := profile()) is not None:
            monitor_report["phase_profile"] = prof_doc
    wall = time.perf_counter() - start
    manifest = run_manifest(config, seed=config.seed, cycles=net.cycle,
                            wall_s=wall, extra={"backend": backend_of(net)})
    result = Result.from_network(config, net, manifest=manifest,
                                 monitor_report=monitor_report)
    if use_cache:
        cache_result(result)
    return result


#: Config fields every lane of one batch must share (the chip shape the
#: replicated layout is built from). pattern/rate/packet_size/seed and
#: the cycle/warmup windows may vary per lane.
BATCH_KEY_FIELDS = ("topology", "kx", "ky", "concentration", "chiplets",
                    "chiplet_link_latency", "routing", "vc_policy", "scheme",
                    "num_vcs", "buffer_depth")


def batch_key(config: ExperimentConfig):
    """Grouping key for batched execution, or ``None`` if unbatchable.

    Only synthetic-traffic points that opted into batching (backend
    ``batched`` or ``auto``) are grouped; trace replay needs MSHR
    self-throttling and per-trace state, and ``evc_mesh`` routing is
    dynamic-only — both always run solo.
    """
    if config.benchmark is not None or config.topology == "evc_mesh":
        return None
    if resolve_backend(config.backend) not in ("batched", "auto"):
        return None
    return tuple(getattr(config, f) for f in BATCH_KEY_FIELDS)


class _LaneStatsView:
    """Stats/cycle shim so ``MetricsRegistry.snapshot`` can document one
    lane of a batched run (the live network only has whole-chip stats)."""

    def __init__(self, net, lane: int):
        self.stats = net.lane_stats(lane)
        self.cycle = net.cycle


def run_batch_experiments(configs, *, use_cache: bool = True,
                          check: bool = False, check_stride: int = 1):
    """Simulate compatible points as lanes of one ``BatchNetwork`` run.

    All configs must share ``batch_key`` (same chip shape, scheme and
    VC policy); pattern, rate, packet size, seed and the cycle/warmup
    windows may vary per lane. Returns one ``Result`` per config, in
    order, each bit-identical to ``run_experiment`` of the same point
    (the batched-parity suite locks this in). Cached points are
    returned from the memo/store without occupying a lane.

    ``check=True`` attaches one ``VectorInvariantChecker`` to the shared
    chip (whole-array sweeps every ``check_stride`` cycles cover every
    lane at once; violations carry the offending lane index) and gives
    each result a per-lane metrics document on ``monitor_report``.
    """
    if not configs:
        return []
    if check:
        use_cache = False
    keys = {batch_key(cfg) for cfg in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError(
            "configs are not batch-compatible (one shared batch_key "
            "required)")
    results: list[Result | None] = [None] * len(configs)
    todo = []
    for i, cfg in enumerate(configs):
        hit = cached(cfg) if use_cache else None
        if hit is not None:
            results[i] = hit
        else:
            todo.append(i)
    if not todo:
        return results
    first = configs[todo[0]]
    net_cfg = NetworkConfig(num_vcs=first.num_vcs,
                            buffer_depth=first.buffer_depth,
                            pseudo=first.scheme, mshrs=0)
    topo = make_topology(
        first.topology, first.kx, first.ky, first.concentration,
        chiplets=first.chiplets,
        chiplet_link_latency=first.chiplet_link_latency)
    from ..network.vectorized import BatchNetwork
    start = time.perf_counter()
    net = BatchNetwork(topo, net_cfg, routing=first.routing,
                       vc_policy=first.vc_policy,
                       seeds=[configs[i].seed for i in todo])
    registry = None
    if check:
        registry = _attach_monitors(net, None, check_stride)
    traffics = [SyntheticTraffic(configs[i].pattern, topo.num_terminals,
                                 configs[i].rate, configs[i].packet_size,
                                 seed=configs[i].seed)
                for i in todo]
    net.run_batch(traffics,
                  [configs[i].synth_cycles for i in todo],
                  [configs[i].synth_warmup for i in todo])
    net.drain(max_cycles=500_000)
    net.check_invariants()
    prof_doc = None
    if registry is not None:
        for monitor in registry.monitors:
            monitor.finish(net)
        prof_doc = net.profile()
    wall = time.perf_counter() - start
    for lane, i in enumerate(todo):
        cfg = configs[i]
        manifest = run_manifest(cfg, seed=cfg.seed, cycles=net.cycle,
                                wall_s=wall / len(todo),
                                extra={"batch_lanes": len(todo),
                                       "backend": "batched",
                                       "batch_lane": lane})
        monitor_report = None
        if registry is not None:
            monitor_report = registry.snapshot(_LaneStatsView(net, lane),
                                               backend="batched")
            monitor_report["batch_lanes"] = len(todo)
            monitor_report["batch_lane"] = lane
            if prof_doc is not None:
                monitor_report["phase_profile"] = prof_doc
        result = Result.from_stats(cfg, net.lane_stats(lane),
                                   manifest=manifest,
                                   monitor_report=monitor_report)
        if use_cache:
            cache_result(result)
        results[i] = result
    return results


def _replay(net: Network, trace: Trace) -> None:
    replay = TraceReplayTraffic(trace)
    while not replay.exhausted:
        replay.tick(net, net.cycle)
        net.step()
        nxt = replay.next_injection_cycle(net.cycle)
        if nxt is not None:
            # Idle gaps between scheduled injections are skipped outright.
            net.fast_forward(nxt, nxt)
    net.drain(max_cycles=500_000)


def memo_hit(config: ExperimentConfig) -> Result | None:
    """The in-process memo entry for ``config``; the store is untouched.

    Telemetry uses this to attribute cache resolutions to the right
    tier: a ``memo`` hit answered from process memory versus a
    ``store`` hit that paid a disk read — ``cached`` alone cannot tell
    them apart (and bumps the store's miss counter while looking).
    """
    return _run_cache.get(config)


def backend_decision(config: ExperimentConfig, lanes: int = 1) -> dict:
    """The concrete core a point runs on, with the selector's inputs.

    For ``auto`` points this is ``network.backend.explain_choice`` —
    chosen core, offered load, the calibrated crossover it was compared
    against, calibration source. Explicit backends record the policy
    with ``reason: "explicit"`` (a solo point under the ``batched``
    policy runs on the vectorized core, as ``build_network`` does).
    Purely observational: ``build_network`` stays the authority, and
    its documented scalar fallback for refused ``auto`` configurations
    is not re-modelled here.
    """
    policy = resolve_backend(config.backend)
    if policy != "auto":
        chosen = policy
        if policy == "batched" and lanes <= 1:
            chosen = "vectorized"
        return {"chosen": chosen, "policy": policy, "reason": "explicit"}
    from ..network.backend import explain_choice
    routers = config.kx * config.ky
    if config.topology == "chiplet":
        # K dies of kx*ky routers plus the IO die, each with terminals.
        routers = config.chiplets * config.kx * config.ky + 1
    decision = explain_choice(
        terminals=routers * config.concentration,
        rate=config.rate if config.benchmark is None else None,
        pseudo=config.scheme.enabled, batch=lanes)
    decision["policy"] = "auto"
    return decision


def cached(config: ExperimentConfig, store=None) -> Result | None:
    """Return the cached result for ``config``, if any.

    The in-process memo is consulted first; on a miss, the explicit
    ``store`` (or the process-wide default store) is queried by content
    address. A durable hit is deserialized, folded into the memo, and
    returned — corrupt store entries read back as misses (the store
    quarantines them), so callers transparently recompute.
    """
    hit = _run_cache.get(config)
    if hit is not None:
        return hit
    store = store if store is not None else _default_store
    if store is None:
        return None
    from ..store import payload_to_result, store_key
    payload = store.get(store_key(config))
    if payload is None:
        return None
    try:
        result = payload_to_result(payload)
    except (KeyError, TypeError, ValueError):
        return None  # forward-incompatible payload: recompute
    _run_cache[config] = result
    return result


def cache_result(result: Result, store=None) -> None:
    """Fold a computed result into the memo and write it through.

    With a ``store`` (explicit or the process-wide default) the result
    is also persisted under its content-addressed key, making it
    durable across processes.
    """
    _run_cache[result.config] = result
    store = store if store is not None else _default_store
    if store is not None:
        from ..store import result_to_payload, store_key
        store.put(store_key(result.config), result_to_payload(result),
                  label=result.config.label)


def clear_cache() -> None:
    """Empty the in-process run memo (the default store is untouched)."""
    _run_cache.clear()
