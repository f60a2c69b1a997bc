"""Span tracer the benchmark wraps around the public entry points of each
layer of ``repro`` (only in traced runs; untraced runs import nothing
from here).

A span is recorded at each wrapped call: its name, start, end, self time
(duration minus the time covered by its child spans) and the name of the
span that caused it. Spans stay in memory and are written out as one
JSONL file per process when the work of that process ends: the launcher
flushes the main process at exit, and each forked pool worker flushes
after every chunk it runs (``harness.chunk``), since pool workers exit
without running exit hooks.

``Network.step`` runs once per simulated cycle, so it is aggregated
instead of recorded span by span: a step called directly by the
experiment driver (trace replay) adds its time to a per-process total.
Steps, runs and drains called from inside another wrapped network call
or from CMP trace generation pass straight through and stay part of the
enclosing span.
"""

from __future__ import annotations

import functools
import json
import os
import time

#: Spans inside which network calls pass straight through.
_OPAQUE = ("cmp.trace_gen", "network.scalar.run", "network.scalar.drain",
           "network.vectorized.run", "network.vectorized.drain",
           "network.batched.run", "network.batched.drain")


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder for one process tree.

    Forked workers inherit the parent's object; the first call in a new
    process drops the inherited spans and open frames, so every process
    writes only the spans it recorded itself.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self._pid = self.owner
        self.spans: list[dict] = []
        self.stack: list[_Frame] = []
        self.steps = {"n": 0, "s": 0.0}
        self.networks: list[dict] = []
        self._restored: list = []

    def _check_pid(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.stack = []
            self.steps = {"n": 0, "s": 0.0}
            self.networks = []

    def top(self) -> str | None:
        """Name of the innermost open span in this process."""
        self._check_pid()
        return self.stack[-1].name if self.stack else None

    def begin(self, name: str) -> _Frame:
        """Open a span; pair with ``end``."""
        self._check_pid()
        frame = _Frame(name, time.perf_counter())
        self.stack.append(frame)
        return frame

    def end(self, frame: _Frame, **fields) -> None:
        """Close ``frame`` and record it with its self time."""
        end = time.perf_counter()
        stack = self.stack
        while stack and stack[-1] is not frame:
            stack.pop()  # a frame left open by an exception below us
        if stack:
            stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child_s += dur
        self.spans.append({
            "name": frame.name, "start": frame.start, "end": end,
            "self_s": dur - frame.child_s,
            "parent": stack[-1].name if stack else None,
            "pid": self._pid, **fields})

    def add_step(self, dur: float) -> None:
        """Account one aggregated ``Network.step`` call."""
        self.steps["n"] += 1
        self.steps["s"] += dur
        if self.stack:
            self.stack[-1].child_s += dur

    def flush(self) -> None:
        """Append this process's spans to its file; empty the buffer."""
        self._check_pid()
        if not (self.spans or self.steps["n"] or self.networks):
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for net in self.networks:
                fh.write(json.dumps({"name": "network.done", **net}) + "\n")
            if self.steps["n"]:
                fh.write(json.dumps({"name": "network.scalar.step",
                                     "calls": self.steps["n"],
                                     "self_s": self.steps["s"]}) + "\n")
        self.spans = []
        self.networks = []
        self.steps = {"n": 0, "s": 0.0}

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restored.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, name: str, fn, fields=None):
        """``fn`` wrapped in a span; ``fields(args, kwargs, result)``
        returns extra fields to record on it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            extra = {}
            try:
                result = fn(*args, **kwargs)
                if fields is not None:
                    extra = fields(args, kwargs, result)
                return result
            finally:
                tracer.end(frame, **extra)
        return wrapper

    def install(self) -> None:
        """Wrap every traced entry point of ``repro``; see ``uninstall``."""
        from repro import __main__ as cli
        from repro.cmp.system import CmpSystem
        from repro.harness import experiment, figures, parallel
        from repro.network.backend import backend_of
        from repro.network.simulator import Network
        from repro.network.vectorized import BatchNetwork, VectorNetwork
        from repro.store import ResultStore

        span = self.span

        def patch_name(modules, attr, wrapper):
            for module in modules:
                if attr in module.__dict__:
                    self._patch(module, attr, wrapper)

        patch_name((experiment,), "get_trace",
                   span("harness.get_trace", experiment.get_trace))
        patch_name((experiment,), "make_topology",
                   span("topology.build", experiment.make_topology))
        patch_name((experiment,), "build_network",
                   span("network.build", experiment.build_network))
        patch_name((experiment, parallel, figures, cli), "run_experiment",
                   span("harness.point", experiment.run_experiment))
        patch_name((experiment, parallel), "run_batch_experiments",
                   span("harness.batch_unit",
                        experiment.run_batch_experiments,
                        lambda a, k, r: {"lanes": len(a[0])}))
        patch_name((parallel, figures), "run_experiments",
                   span("harness.run_experiments",
                        parallel.run_experiments))
        patch_name((parallel,), "wait",
                   span("harness.pool_wait", parallel.wait))
        self._patch(parallel, "_run_chunk", self._chunk_wrapper(
            parallel._run_chunk))
        self._patch(CmpSystem, "run", span("cmp.trace_gen", CmpSystem.run))
        from_stats = experiment.Result.__dict__["from_stats"].__func__
        self._patch(experiment.Result, "from_stats", classmethod(
            span("metrics.extract", from_stats)))
        self._patch(ResultStore, "get", span(
            "store.get", ResultStore.get,
            lambda a, k, r: {"hit": r is not None}))
        self._patch(ResultStore, "put", self._put_wrapper(ResultStore.put))
        self._patch(BatchNetwork, "__init__",
                    span("network.build", BatchNetwork.__init__))
        self._patch(Network, "step", self._step_wrapper(Network.step))
        for cls, kind in ((Network, "scalar"), (VectorNetwork, "vectorized"),
                          (BatchNetwork, "batched")):
            method = "run_batch" if kind == "batched" else "run"
            self._patch(cls, method, self._net_wrapper(
                getattr(cls, method), "run", backend_of))
        for cls in (Network, VectorNetwork):
            self._patch(cls, "drain", self._net_wrapper(
                cls.drain, "drain", backend_of))

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced."""
        while self._restored:
            owner, attr, original = self._restored.pop()
            setattr(owner, attr, original)

    def _chunk_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin("harness.chunk")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)
                if os.getpid() != tracer.owner:
                    tracer.flush()
        return wrapper

    def _put_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(store, key, *args, **kwargs):
            existed = key in store
            frame = tracer.begin("store.put")
            extra = {"redundant": existed, "bytes": 0}
            try:
                path = fn(store, key, *args, **kwargs)
                if not existed:
                    extra["bytes"] = os.path.getsize(path)
                return path
            finally:
                tracer.end(frame, **extra)
        return wrapper

    def _step_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(net):
            if tracer.top() != "harness.point":
                return fn(net)
            start = time.perf_counter()
            try:
                return fn(net)
            finally:
                tracer.add_step(time.perf_counter() - start)
        return wrapper

    def _net_wrapper(self, fn, what: str, backend_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(net, *args, **kwargs):
            if tracer.top() in _OPAQUE:
                return fn(net, *args, **kwargs)
            kind = backend_of(net)
            if kind != "scalar":
                net.enable_profile()  # idempotent
            frame = tracer.begin(f"network.{kind}.{what}")
            try:
                return fn(net, *args, **kwargs)
            finally:
                tracer.end(frame)
                if what == "drain":
                    tracer.networks.append(_network_record(net, kind))
        return wrapper


def _network_record(net, kind: str) -> dict:
    """Work a drained network did: lanes, flit-hops, phase profile."""
    if kind == "batched":
        lanes = net.lanes
        hops = sum(net.lane_stats(lane).flit_hops for lane in range(lanes))
    else:
        lanes, hops = 1, net.stats.flit_hops
    record = {"kind": kind, "lanes": lanes, "flit_hops": hops}
    if kind != "scalar":
        profile = net.profile()
        record["phases"] = profile["phases"]
        record["stepped_cycles"] = profile["stepped_cycles"]
        record["ff_cycles"] = profile["ff_cycles"]
    return record
