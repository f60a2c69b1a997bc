"""Render a telemetry stream as a Chrome ``trace_event`` document.

Reuses the PR 3 exporter envelope (``instrument.tracer``), so a sweep's
execution trace opens in Perfetto / ``chrome://tracing`` exactly like a
core-level flit trace — but here the *processes are real*: the
scheduler and each worker get their own track (``pid``), point spans
render as duration slices on them (CMP trace generation too, nested in
the point that generated it), and scheduler lifecycle events
(retries, degradation, failed attempts) render as instants. Batched
units render as an enclosing slice with their lanes fanned out on
per-lane threads.

Timestamps are wall-clock microseconds relative to the first record of
the sweep (``time_unit`` says so in ``otherData``); point spans are
emitted at completion carrying their duration, so each slice starts at
``t - dur`` — consistent across processes because every emitter stamps
``time.time()``.
"""

from __future__ import annotations

import json

from ..instrument.tracer import chrome_trace_envelope
from .report import latest_sweep

#: Events rendered as instant markers on their emitting process.
_INSTANT_EVENTS = ("retry", "degrade", "point_failed", "point_error",
                   "batch_groups", "dispatch", "worker_store")


def telemetry_chrome_trace(records: list[dict]) -> dict:
    """Build the Chrome trace document for the stream's last sweep."""
    records = latest_sweep(records)
    stamps = [r["t"] for r in records if "t" in r]
    t0 = min(stamps) if stamps else 0.0
    begin = next((r for r in records if r.get("ev") == "sweep_begin"),
                 None)
    scheduler_pid = begin.get("pid") if begin else None

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 1)

    events: list[dict] = []
    named: set = set()

    def track(pid) -> None:
        if pid in named:
            return
        named.add(pid)
        role = "scheduler" if pid == scheduler_pid else "worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"{role} {pid}"}})

    for record in records:
        ev = record.get("ev")
        pid = record.get("pid", 0)
        t = record.get("t", t0)
        track(pid)
        if ev == "point":
            dur = float(record.get("dur_s") or 0.0)
            lane = record.get("lane")
            args = {key: value for key, value in record.items()
                    if key not in ("ev", "t", "pid", "sweep")}
            events.append({
                "name": f"point:{record.get('tier')}", "cat": "point",
                "ph": "X", "ts": us(t - dur), "dur": round(dur * 1e6, 1),
                "pid": pid, "tid": (lane + 1) if lane is not None else 0,
                "args": args})
        elif ev == "unit":
            dur = float(record.get("dur_s") or 0.0)
            events.append({
                "name": f"unit[{record.get('lanes')}]", "cat": "unit",
                "ph": "X", "ts": us(t - dur), "dur": round(dur * 1e6, 1),
                "pid": pid, "tid": 0,
                "args": {"lanes": record.get("lanes"),
                         "status": record.get("status")}})
        elif ev == "trace":
            dur = float(record.get("dur_s") or 0.0)
            events.append({
                "name": f"trace:{record.get('benchmark')}",
                "cat": "trace", "ph": "X", "ts": us(t - dur),
                "dur": round(dur * 1e6, 1), "pid": pid, "tid": 0,
                "args": {"key": record.get("key")}})
        elif ev == "chunk":
            dur = float(record.get("turnaround_s") or 0.0)
            events.append({
                "name": "chunk", "cat": "dispatch",
                "ph": "X", "ts": us(t - dur), "dur": round(dur * 1e6, 1),
                "pid": pid, "tid": 1,
                "args": {"points": record.get("points")}})
        elif ev == "sweep_end" and begin is not None:
            events.append({
                "name": "sweep", "cat": "sweep",
                "ph": "X", "ts": us(begin.get("t", t0)),
                "dur": round((t - begin.get("t", t0)) * 1e6, 1),
                "pid": pid, "tid": 2,
                "args": {"status": record.get("status"),
                         "completed": record.get("completed"),
                         "points": begin.get("points")}})
        elif ev in _INSTANT_EVENTS:
            args = {key: value for key, value in record.items()
                    if key not in ("ev", "t", "pid", "sweep")}
            events.append({
                "name": ev, "cat": "scheduler", "ph": "i", "s": "t",
                "ts": us(t), "pid": pid, "tid": 0, "args": args})
    return chrome_trace_envelope(
        events, time_unit="wall-clock us from sweep start")


def write_chrome_trace(records: list[dict], path: str) -> str:
    """Write the Chrome trace JSON for ``records``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(telemetry_chrome_trace(records), fh)
        fh.write("\n")
    return path
