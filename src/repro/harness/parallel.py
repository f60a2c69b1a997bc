"""Fault-tolerant, resumable process-parallel experiment scheduler.

``run_experiments`` fans a list of ``ExperimentConfig`` points out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back in
submission order, so callers see exactly the list a serial loop would
have produced. Determinism is free: every config carries its own seed, a
simulation's outcome depends on nothing but its config, and the ordered
merge removes scheduling effects — parallel and serial runs are
bit-identical (``tests/network/test_active_set.py`` locks this in).

On top of that ordered merge the scheduler is built to *survive*
(``DESIGN.md`` §11):

* **Checkpointing** — with ``journal=`` every completed point is
  appended (flushed + fsync'd) to a ``repro.store.SweepJournal`` as it
  lands; ``resume=True`` replays journaled points instead of
  recomputing them, and the merge stays bit-identical to an
  uninterrupted run because results are pure functions of their config.
* **Retries with deterministic backoff** — ``retries=N`` grants every
  point up to N extra attempts, sleeping ``backoff_base * 2**(k-1)``
  (capped at ``backoff_cap``) before the k-th retry. No jitter: the
  wait sequence is reproducible, which matters more here than
  thundering-herd avoidance (the "herd" is our own worker pool). The
  ``sleep`` callable is injectable so tests can run the schedule on a
  fake clock.
* **Graceful degradation** — a broken pool (worker SIGKILLed, fork
  bomb, pickling failure) or a stall past ``timeout`` seconds without
  any chunk completing abandons the pool and finishes the remaining
  points serially in-process, in input order.
* **Durable caching** — completed points are written through the
  content-addressed ``ResultStore`` (explicit ``store=`` or the
  process-wide default installed by
  ``experiment.set_default_store``), so a *new process* reruns nothing
  that is already known. The scheduler owns both ends: ``collect_todo``
  looks every point up once before anything runs and ``finish_point``
  writes each result once as it lands; the simulations themselves (in
  a worker or inline) touch neither memo nor store.
* **Trace dependencies** — a CMP trace is a dependency of every point
  that replays it, generated once per sweep: the first pooled chunk
  that needs a trace generates it in its worker and sends it back as
  compact bytes (``traces.pack_trace``); chunks that need it wait for
  it and carry it to their workers, which install it into their trace
  memo before running. Held chunks share the retry and degrade paths
  of submitted ones, and a failed generation is retried by the next
  chunk that needs the trace. Each generation emits a ``trace``
  telemetry event.
* **Telemetry** — with ``telemetry=`` every scheduling decision and
  cost lands in an append-only span/event stream
  (``repro.telemetry``): one closed span per completed point stamped
  with its resolution tier (journal-replay/memo/store/simulate), the
  backend chosen and why, attempt count and backoff history, plus
  scheduler lifecycle events (batch-group formation, pool dispatch,
  degradation, retries) and per-process store-counter deltas. The
  default is ``telemetry=None`` and that path is a null object — no
  stream, no spans, no timing calls (the bench gate's
  ``telemetry_cold_check`` enforces it).
* **Batched execution** — after the cache layers resolve, points that
  share a ``batch_key`` (same chip shape, scheme and VC policy, with
  backend ``batched`` or ``auto``) are grouped into units of up to
  ``batch_size`` lanes and simulated as one ``BatchNetwork`` per unit
  (``experiment.run_batch_experiments``), amortizing the vectorized
  core's per-cycle dispatch cost across the lanes. Lanes stay
  bit-identical to solo runs, store/journal entries stay per-point,
  and a failing batch falls back to solo execution with the full
  retry budget — batching is purely a throughput tier.

Workers are forked (POSIX default), so they inherit the parent's run
cache; results travel back pickled and are folded into the parent's
cache, which lets the figure code keep its cheap memoized
``run_experiment`` calls after a ``prefetch``. ``check=True`` runs
bypass every cache layer — memo, store and journal — because a replayed
result would silently skip the monitors.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ..instrument import run_manifest
from ..store import (SweepJournal, payload_to_result, result_to_payload,
                     store_key)
from .experiment import (ExperimentConfig, Result, backend_decision,
                         batch_key, cache_result, cached, default_store,
                         memo_hit, run_batch_experiments, run_experiment)
from .traces import (get_trace, has_trace, install_trace, pack_trace,
                     trace_key)


def derive_seed(sweep_seed: int, *coords) -> int:
    """Deterministic per-point seed from a sweep seed and point coordinates.

    Hashing decorrelates neighbouring points (seed 1, 2, 3 ... would share
    most of their Mersenne-Twister state) while keeping every point fully
    reproducible from the single sweep seed.
    """
    text = ":".join(str(part) for part in (sweep_seed, *coords))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") + 1


def default_workers() -> int:
    """Worker count used when callers pass ``max_workers=None``."""
    return max(1, os.cpu_count() or 1)


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Seconds to wait before retry ``attempt`` (1-based): exponential,
    capped, deliberately jitter-free so retry schedules are reproducible.
    """
    return min(cap, base * (2 ** (attempt - 1)))


class SweepPointError(RuntimeError):
    """One point of a sweep failed; names the failing point's parameters.

    A bare exception out of a worker process loses all context about
    *which* of the fanned-out simulations died, so every point — worker or
    inline — is wrapped to attach its ``ExperimentConfig``. The original
    exception stays chained as ``__cause__`` (inline runs) and summarized
    in ``cause`` (which also survives pickling back from a worker). When
    the run manifest of the failing point is available it is embedded in
    the message and kept on ``manifest``, so the report names the exact
    config hash, seed and commit needed to reproduce the failure.

    When the scheduler retried the point, ``attempts`` counts every try
    and ``backoff_s`` lists the waits (seconds) that preceded each retry,
    so the error is a complete record of the retry schedule.
    """

    def __init__(self, point: str, cause: str, manifest: dict | None = None,
                 attempts: int = 1,
                 backoff_s: Sequence[float] | None = None):
        message = f"sweep point {point} failed"
        backoff_s = list(backoff_s or [])
        if attempts > 1:
            waits = ", ".join(f"{delay:g}s" for delay in backoff_s)
            message += f" after {attempts} attempts (backoff: {waits})"
        message += f": {cause}"
        if manifest is not None:
            message += "\nrun manifest: " + json.dumps(
                manifest, sort_keys=True, default=str)
        super().__init__(message)
        self.point = point
        self.cause = cause
        self.manifest = manifest
        self.attempts = attempts
        self.backoff_s = backoff_s

    def __reduce__(self):
        """Rebuild from the raw fields (default exception pickling would
        re-call ``__init__`` with the formatted message as ``point``)."""
        return (SweepPointError, (self.point, self.cause, self.manifest,
                                  self.attempts, self.backoff_s))


def _point_error(cfg: ExperimentConfig, exc: Exception) -> SweepPointError:
    """``exc`` raised while running ``cfg``, labelled with the point."""
    try:
        manifest = run_manifest(cfg, seed=cfg.seed)
    except Exception:
        manifest = None  # provenance must never mask the real failure
    return SweepPointError(f"{cfg.label} ({cfg!r})",
                           f"{type(exc).__name__}: {exc}", manifest)


def _run_point(cfg: ExperimentConfig, check: bool = False,
               check_stride: int = 1) -> Result:
    """Simulate one point, labelling any failure with the point's config.

    The cache layers are the scheduler's: ``collect_todo`` consulted
    them before the point was scheduled and ``finish_point`` writes the
    result through, so the run itself neither reads nor writes them.
    """
    try:
        return run_experiment(cfg, use_cache=False, check=check,
                              check_stride=check_stride)
    except Exception as exc:
        raise _point_error(cfg, exc) from exc


def _prepare_trace(cfg: ExperimentConfig, tel=None) -> None:
    """Generate the CMP trace ``cfg`` replays unless this process holds it.

    A failure is labelled with ``cfg`` like a failure of the point
    itself. With ``tel`` each generation emits a ``trace`` event with
    its wall, so a sweep's stream counts and times every trace it made.
    """
    key = trace_key(cfg)
    if key is None or has_trace(key):
        return
    start = time.perf_counter() if tel is not None else 0.0
    try:
        get_trace(*key)
    except Exception as exc:
        raise _point_error(cfg, exc) from exc
    if tel is not None:
        tel.emit("trace", benchmark=key[0], key=list(key),
                 dur_s=round(time.perf_counter() - start, 6))


def _group_units(todo: Sequence[tuple], batch_size: int) -> list[list]:
    """Group todo points into execution units of at most ``batch_size``.

    Points whose ``batch_key`` matches (same chip shape, scheme, VC
    policy — and a backend that opted into batching) land in one unit
    and will run as lanes of a single ``BatchNetwork``; everything else
    becomes a singleton unit. Units are ordered by their first point, so
    with ``batch_size=1`` this degenerates to the plain per-point list
    and the ordered result merge is unaffected either way.
    """
    if batch_size <= 1:
        return [[point] for point in todo]
    units: list[list] = []
    filling: dict = {}  # batch_key -> unit still below batch_size
    for idx, cfg in todo:
        key = batch_key(cfg)
        if key is None:
            units.append([(idx, cfg)])
            continue
        unit = filling.get(key)
        if unit is None:
            unit = filling[key] = []
            units.append(unit)
        unit.append((idx, cfg))
        if len(unit) >= batch_size:
            del filling[key]
    return units


def _decision_fields(cfg: ExperimentConfig, lanes: int = 1) -> dict:
    """Span fields naming the chosen backend and the selector inputs."""
    try:
        decision = backend_decision(cfg, lanes=lanes)
    except Exception:
        return {}  # observation must never fail the point
    return {"backend": decision.pop("chosen", None), "decision": decision}


def _run_unit(points: Sequence[tuple], check: bool = False,
              check_stride: int = 1, tel=None) -> list:
    """Simulate one unit: a multi-point unit runs as one batched chip.

    ``points`` are ``(idx, cfg)`` pairs (the sweep index travels with
    the config so telemetry spans name the point they close). A failure
    of the *batch* (any lane's exception aborts the shared chip) falls
    back to per-point simulation, which both isolates the failing lane
    and completes its innocent unit-mates. Per-point failures are
    returned as ``SweepPointError`` outcomes, never raised, so one bad
    point cannot discard the unit's completed work. Checked units stay
    batched: one ``VectorInvariantChecker`` sweeps every lane of the
    shared chip at once.

    With ``tel`` every completed point emits its closed span *before*
    the outcome travels back to the parent (whose ``finish_point``
    journals it) — the ordering that makes "every journaled point has a
    span" hold through a SIGKILL at any instant.
    """
    cfgs = [cfg for _, cfg in points]
    solo_fallback = False
    if len(cfgs) > 1:
        start = time.perf_counter()
        try:
            # Cache layers were already consulted by ``collect_todo``;
            # the parent's ``finish_point`` writes results through.
            results = list(run_batch_experiments(cfgs, use_cache=False,
                                                 check=check,
                                                 check_stride=check_stride))
        except Exception as exc:
            solo_fallback = True  # rerun solo to isolate the failing lane
            if tel is not None:
                tel.emit("unit", lanes=len(cfgs), status="batch-failed",
                         cause=f"{type(exc).__name__}: {exc}")
        else:
            if tel is not None:
                dur = time.perf_counter() - start
                tel.emit("unit", lanes=len(cfgs), status="ok",
                         dur_s=round(dur, 6))
                for lane, (idx, cfg) in enumerate(points):
                    tel.point(idx, cfg, store_key(cfg), "simulate",
                              dur / len(cfgs), backend="batched",
                              attempts=1, lane=lane, lanes=len(cfgs),
                              decision={"policy": cfg.backend,
                                        "reason": "batched-unit",
                                        "batch": len(cfgs)})
            return results
    outcomes = []
    for idx, cfg in points:
        start = time.perf_counter()
        try:
            _prepare_trace(cfg, tel)
            result = _run_point(cfg, check, check_stride)
        except SweepPointError as err:
            if tel is not None:
                tel.emit("point_failed", idx=idx, label=cfg.label,
                         cause=err.cause, solo_fallback=solo_fallback)
            outcomes.append(err)
        else:
            if tel is not None:
                tel.point(idx, cfg, store_key(cfg), "simulate",
                          time.perf_counter() - start, attempts=1,
                          solo_fallback=solo_fallback,
                          **_decision_fields(cfg))
            outcomes.append(result)
    return outcomes


#: Per-process worker telemetry: stream path -> (Telemetry, store-stat
#: baseline at first use). Forked workers inherit the parent's counter
#: values, so the baseline turns cumulative counters into this worker's
#: own traffic.
_worker_state: dict = {}


def _worker_telemetry(spec):
    """The (emitter, store baseline) pair of this worker process."""
    path, sweep = spec
    state = _worker_state.get(path)
    if state is None:
        from ..telemetry import Telemetry
        store = default_store()
        baseline = dict(store.stats) if store is not None else None
        state = _worker_state[path] = (Telemetry(path, sweep=sweep),
                                       baseline)
    return state


def _run_chunk(units: Sequence[Sequence[tuple]],
               check: bool = False, check_stride: int = 1,
               telemetry=None, shipped: dict | None = None,
               export: Sequence[tuple] = ()) -> tuple[list, dict]:
    """Worker entry point: simulate one chunk of units, in order.

    ``units`` hold ``(idx, cfg)`` points. ``shipped`` maps trace keys
    to ``pack_trace`` bytes, installed into this worker's trace memo
    before any point runs; ``export`` names the trace keys this chunk
    generates for the rest of the sweep. Returns ``(outcomes, packed)``:
    one outcome per *point* (units flattened in order), either a
    ``Result`` or the ``SweepPointError`` that point raised (both
    pickle-safe), and the packed bytes of each ``export`` trace that
    now exists (a failed generation is simply absent).
    ``telemetry`` is ``(stream path, sweep id)`` or ``None``; with it,
    the worker appends spans to the shared stream as points complete
    and a cumulative ``worker_store`` counter delta after each chunk.
    """
    tel = baseline = None
    if telemetry is not None:
        tel, baseline = _worker_telemetry(telemetry)
    start = time.perf_counter()
    for key, packed in (shipped or {}).items():
        install_trace(key, packed)
    outcomes = []
    for points in units:
        outcomes.extend(_run_unit(points, check, check_stride, tel))
    exported = {}
    for key in export:
        packed = pack_trace(key)
        if packed is not None:
            exported[key] = packed
    if tel is not None:
        fields = {"points": len(outcomes),
                  "busy_s": round(time.perf_counter() - start, 6)}
        store = default_store()
        if store is not None and baseline is not None:
            fields["stats"] = store.stats_delta(baseline)
        tel.emit("worker_store", **fields)
    return outcomes, exported


def _open_journal(journal, resume: bool):
    """Normalize the ``journal=`` argument; truncate unless resuming."""
    if journal is None:
        return None
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    if not resume:
        journal.truncate()
    return journal


def _open_telemetry(telemetry, resume: bool):
    """Normalize ``telemetry=``: ``None``, a path, or a live emitter.

    Mirrors ``_open_journal``: a path starts the stream over unless
    resuming (a resumed sweep appends its records after the interrupted
    sweep's, and followers/reports key on the newest ``sweep_begin``).
    The import is lazy so the telemetry-off path never touches the
    package.
    """
    if telemetry is None:
        return None
    from ..telemetry import Telemetry
    if isinstance(telemetry, Telemetry):
        return telemetry
    tel = Telemetry(telemetry)
    if not resume:
        tel.truncate()
    return tel


class _Scheduler:
    """One ``run_experiments`` invocation's mutable scheduling state."""

    def __init__(self, configs, *, check, store, journal, resume,
                 max_attempts, backoff_base, backoff_cap, timeout, sleep,
                 check_stride=1, telemetry=None):
        self.configs = configs
        self.results: list[Result | None] = [None] * len(configs)
        self.check = check
        self.check_stride = check_stride
        self.store = store
        self.journal = journal
        self.resume = resume
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.sleep = sleep
        self.tel = telemetry

    # -- completion -------------------------------------------------------

    def finish_point(self, idx: int, result: Result,
                     from_journal: bool = False) -> None:
        """Record one completed point: slot, memo/store, checkpoint.

        With telemetry on, the store write-through and journal append
        are timed and emitted as a ``persist`` event — the "40% of the
        wall went to store I/O" records the ISSUE asks for.
        """
        self.results[idx] = result
        tel = self.tel
        t0 = time.perf_counter() if tel is not None else 0.0
        if not self.check:
            cache_result(result, store=self.store)
        t1 = time.perf_counter() if tel is not None else 0.0
        if self.journal is not None and not from_journal:
            self.journal.append(store_key(result.config),
                                result_to_payload(result))
        if tel is not None:
            tel.emit("persist", idx=idx, store_s=round(t1 - t0, 6),
                     journal_s=round(time.perf_counter() - t1, 6))

    # -- skip phase: journal, memo, store ---------------------------------

    def collect_todo(self) -> list[tuple[int, ExperimentConfig]]:
        """Resolve every point answerable without simulating; return the
        rest.

        With telemetry on, every cache-resolved point emits a closed
        span stamped with the tier that answered it — ``journal-replay``,
        ``memo`` (in-process memory, free) or ``store`` (paid a disk
        read, whose wall the span carries). Spans are emitted *before*
        the journal append so a journaled point always has its span.
        """
        tel = self.tel
        journaled: dict[str, dict] = {}
        if self.journal is not None and self.resume:
            journaled = self.journal.load()
        todo: list[tuple[int, ExperimentConfig]] = []
        for idx, cfg in enumerate(self.configs):
            if self.check:
                todo.append((idx, cfg))
                continue
            key = store_key(cfg)
            payload = journaled.get(key)
            if payload is not None:
                t0 = time.perf_counter() if tel is not None else 0.0
                try:
                    result = payload_to_result(payload)
                except (KeyError, TypeError, ValueError):
                    pass  # stale journal payload: recompute
                else:
                    if tel is not None:
                        tel.point(idx, cfg, key, "journal-replay",
                                  time.perf_counter() - t0, attempts=0)
                    self.finish_point(idx, result, from_journal=True)
                    continue
            if tel is not None:
                hit = memo_hit(cfg)
                tier, read_s = "memo", 0.0
                if hit is None:
                    t0 = time.perf_counter()
                    hit = cached(cfg, store=self.store)
                    read_s = time.perf_counter() - t0
                    tier = "store"
            else:
                hit = cached(cfg, store=self.store)
            if hit is not None:
                # Already durable — record the slot (and checkpoint, so
                # the journal stays self-contained) without a store put.
                self.results[idx] = hit
                if tel is not None:
                    tel.point(idx, cfg, key, tier, read_s, attempts=0)
                if self.journal is not None:
                    self.journal.append(key, result_to_payload(hit))
            else:
                todo.append((idx, cfg))
        return todo

    # -- serial execution with retries ------------------------------------

    def attempt_with_retries(self, cfg: ExperimentConfig,
                             first_error: SweepPointError | None = None,
                             attempts_done: int = 0,
                             idx: int | None = None) -> Result:
        """Run one point inline, retrying with deterministic backoff.

        ``first_error``/``attempts_done`` account for attempts already
        spent in the worker pool. Exhausting the budget raises a
        ``SweepPointError`` carrying the attempt count and the full
        backoff history, chained to the underlying cause. Telemetry
        records every scheduled retry (attempt number, delay, cause),
        the final span with its total attempt count and backoff
        history, and — on a spent budget — a terminal ``point_error``
        span, so a crashed sweep's stream explains itself.
        """
        tel = self.tel
        attempt = attempts_done
        last = first_error
        history: list[float] = []
        while attempt < self.max_attempts:
            if attempt > 0:
                delay = backoff_delay(attempt, self.backoff_base,
                                      self.backoff_cap)
                history.append(delay)
                if tel is not None:
                    tel.emit("retry", idx=idx, label=cfg.label,
                             attempt=attempt + 1, delay_s=round(delay, 6),
                             cause=(last.cause if last is not None
                                    else None))
                self.sleep(delay)
            attempt += 1
            t0 = time.perf_counter() if tel is not None else 0.0
            try:
                _prepare_trace(cfg, tel)
                result = _run_point(cfg, self.check, self.check_stride)
            except SweepPointError as err:
                last = err
            else:
                if tel is not None:
                    tel.point(idx, cfg, store_key(cfg), "simulate",
                              time.perf_counter() - t0, attempts=attempt,
                              backoff_s=[round(d, 6) for d in history],
                              **_decision_fields(cfg))
                return result
        if tel is not None:
            tel.point_error(idx, cfg, last.cause, attempts=attempt,
                            backoff_s=history)
        if attempt <= 1 and not history:
            raise last  # single attempt: surface the original error as-is
        rebuilt = SweepPointError(last.point, last.cause, last.manifest,
                                  attempt, history)
        raise rebuilt from (last.__cause__ or last)

    def run_serial(self, units) -> None:
        """Execute units inline, in input order (the no-pool path).

        Multi-point units run as one batched chip first; if the batch
        fails, every lane reruns solo through the normal retry path, so
        batching never costs a point its retry budget.
        """
        tel = self.tel
        for unit in units:
            if len(unit) > 1:
                t0 = time.perf_counter()
                try:
                    lanes = run_batch_experiments(
                        [cfg for _, cfg in unit], use_cache=False,
                        check=self.check, check_stride=self.check_stride)
                except Exception as exc:
                    lanes = None  # isolate the failing lane solo below
                    if tel is not None:
                        tel.emit("unit", lanes=len(unit),
                                 status="batch-failed",
                                 cause=f"{type(exc).__name__}: {exc}")
                if lanes is not None:
                    dur = time.perf_counter() - t0
                    if tel is not None:
                        tel.emit("unit", lanes=len(unit), status="ok",
                                 dur_s=round(dur, 6))
                    for lane, ((idx, cfg), result) in enumerate(
                            zip(unit, lanes)):
                        if tel is not None:
                            tel.point(idx, cfg, store_key(cfg), "simulate",
                                      dur / len(unit), backend="batched",
                                      attempts=1, lane=lane,
                                      lanes=len(unit),
                                      decision={"policy": cfg.backend,
                                                "reason": "batched-unit",
                                                "batch": len(unit)})
                        self.finish_point(idx, result)
                    continue
            for idx, cfg in unit:
                self.finish_point(idx,
                                  self.attempt_with_retries(cfg, idx=idx))

    # -- pooled execution --------------------------------------------------

    def run_pooled(self, units, max_workers: int,
                   chunk_size: int | None) -> None:
        """Dispatch chunks of units to a process pool; recover serially.

        Chunk outcomes are journaled as they land (``as_completed``
        order), the final merge is input-ordered. Worker-raised
        ``SweepPointError``s, a broken pool, and a pool that makes no
        progress for ``timeout`` seconds all funnel the affected points
        into an in-process retry pass with backoff; the first point (in
        input order) to exhaust its attempts raises.

        CMP traces are dependencies of the chunks that replay them. The
        first chunk to need a trace generates it in its worker and sends
        it back packed; chunks that need a trace still being generated
        are held and go out carrying it once it lands. A trace the
        parent already holds ships with every chunk from the start. So
        each trace is generated once per sweep, however many points
        replay it. If the generating chunk fails, the trace is unclaimed
        and the next held chunk that needs it generates it instead;
        held chunks share the degrade paths of submitted ones.
        """
        tel = self.tel
        npoints = sum(len(unit) for unit in units)
        if chunk_size is None:
            # ~4 chunks per worker balances load without excessive
            # pickling.
            chunk_size = max(1, npoints // (max_workers * 4))
        # Chunks close once they reach chunk_size points; units are
        # never split across chunks (a batch must share one worker).
        chunks: list[list] = []
        cur: list = []
        count = 0
        for unit in units:
            cur.append(unit)
            count += len(unit)
            if count >= chunk_size:
                chunks.append(cur)
                cur, count = [], 0
        if cur:
            chunks.append(cur)
        workers = min(max_workers, len(chunks))
        needs = [{key for unit in chunk for _, cfg in unit
                  if (key := trace_key(cfg)) is not None}
                 for chunk in chunks]
        # trace key -> pack_trace bytes, shipped with every chunk needing it
        ready = {key: pack_trace(key) for key in set().union(*needs)
                 if has_trace(key)}
        if tel is not None:
            tel.emit("dispatch", points=npoints, chunks=len(chunks),
                     chunk_size=chunk_size, workers=workers)
        tel_spec = (tel.path, tel.sweep) if tel is not None else None
        pool = ProcessPoolExecutor(max_workers=workers)
        recover: list[tuple] = []  # (idx, cfg, pool_error | None)
        # future -> (its (idx, cfg) points, trace keys it generates,
        # submission perf_counter); entries leave as futures complete.
        inflight: dict = {}
        generating: set = set()    # trace keys claimed by inflight chunks
        held: list[int] = []       # chunk indices waiting for a trace
        sent = 0                   # points submitted so far
        unusable = False

        def dispatch(i: int) -> None:
            nonlocal sent, unusable
            if needs[i] & generating:
                held.append(i)
                return
            points = [point for unit in chunks[i] for point in unit]
            if not unusable:
                missing = tuple(needs[i] - ready.keys())
                shipped = {key: ready[key]
                           for key in needs[i] & ready.keys()}
                try:
                    future = pool.submit(_run_chunk, chunks[i], self.check,
                                         self.check_stride, tel_spec,
                                         shipped, missing)
                except Exception:
                    # Pool unusable (e.g. fork failure): this chunk and
                    # every later one run inline.
                    unusable = True
                    if tel is not None:
                        tel.emit("degrade", reason="pool-unusable",
                                 points=npoints - sent)
                else:
                    inflight[future] = (points, missing,
                                        time.perf_counter())
                    generating.update(missing)
                    sent += len(points)
                    return
            recover.extend((idx, cfg, None) for idx, cfg in points)

        for i in range(len(chunks)):
            dispatch(i)
        while inflight:
            done, _ = wait(inflight, timeout=self.timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # No chunk completed within the timeout window: stop
                # trusting the pool, salvage the rest in-process.
                stalled = []
                for future, (points, _, _) in inflight.items():
                    future.cancel()
                    stalled.extend(points)
                for i in held:
                    stalled.extend(point for unit in chunks[i]
                                   for point in unit)
                recover.extend((idx, cfg, None) for idx, cfg in stalled)
                if tel is not None:
                    tel.emit("degrade", reason="stall-timeout",
                             timeout_s=self.timeout, points=len(stalled))
                break
            for future in done:
                chunk, claimed, sent_at = inflight.pop(future)
                generating.difference_update(claimed)
                try:
                    outcomes, packed = future.result()
                except Exception as exc:
                    # Worker process died / pool broke mid-flight: the
                    # chunk's points rerun serially.
                    recover.extend((idx, cfg, None) for idx, cfg in chunk)
                    if tel is not None:
                        tel.emit("degrade", reason="worker-failure",
                                 points=len(chunk),
                                 cause=f"{type(exc).__name__}: {exc}")
                    continue
                ready.update(packed)
                if tel is not None:
                    tel.emit("chunk", points=len(chunk),
                             turnaround_s=round(
                                 time.perf_counter() - sent_at, 6))
                for (idx, cfg), outcome in zip(chunk, outcomes):
                    if isinstance(outcome, SweepPointError):
                        recover.append((idx, cfg, outcome))
                    else:
                        self.finish_point(idx, outcome)
            # Release the chunks whose traces just landed (or whose
            # generating chunk failed: the next one generates).
            waiting = held[:]
            held.clear()
            for i in waiting:
                dispatch(i)
        pool.shutdown(wait=False, cancel_futures=True)
        for idx, cfg, err in sorted(recover, key=lambda item: item[0]):
            if err is not None and self.max_attempts <= 1:
                if tel is not None:
                    tel.point_error(idx, cfg, err.cause,
                                    attempts=err.attempts,
                                    backoff_s=err.backoff_s)
                raise err
            result = self.attempt_with_retries(
                cfg, first_error=err, attempts_done=1 if err else 0,
                idx=idx)
            self.finish_point(idx, result)


def run_experiments(configs: Iterable[ExperimentConfig],
                    max_workers: int | None = None,
                    chunk_size: int | None = None,
                    check: bool = False,
                    check_stride: int = 1,
                    store=None,
                    journal=None,
                    resume: bool = False,
                    retries: int = 0,
                    backoff_base: float = 0.5,
                    backoff_cap: float = 30.0,
                    timeout: float | None = None,
                    sleep=time.sleep,
                    batch_size: int = 16,
                    telemetry=None) -> list[Result]:
    """Run many experiment points, returning results in input order.

    Cached points are answered without simulating — from the in-process
    memo, the content-addressed ``store`` (explicit or the process-wide
    default), or, with ``resume=True``, the checkpoint ``journal`` of an
    interrupted earlier run. The remainder is split into chunks
    (amortizing process round-trips) and dispatched to a worker pool;
    every completed point is journaled and written through the store *as
    it lands*, so progress survives a SIGKILL at any instant. With
    ``max_workers`` of 1 — or a single uncached point — everything runs
    inline, which keeps tests and single-core machines free of pool
    overhead.

    Failures retry up to ``retries`` extra times with deterministic
    exponential backoff (``backoff_base``/``backoff_cap``, injectable
    ``sleep`` for testing); a broken or stalled pool (no completion for
    ``timeout`` seconds) degrades to serial in-process execution. The
    first point (in input order) to exhaust its attempts raises a
    ``SweepPointError`` carrying its attempt count and backoff history —
    with every other completed point already checkpointed.

    Before dispatch, uncached points that share a ``batch_key`` (same
    chip shape, scheme and VC policy, backend ``batched`` or ``auto``)
    are grouped into units of up to ``batch_size`` lanes and simulated
    as one ``BatchNetwork`` run each — the lanes amortize the
    per-cycle array-dispatch cost while staying bit-identical to solo
    runs. Store and journal keys are unchanged: one entry per point,
    whichever way it ran. ``batch_size=1`` disables grouping.

    ``check=True`` attaches invariant checking to every point (strict
    mode: the first violation surfaces as a ``SweepPointError`` naming
    the point): the full scalar monitor suite on the scalar core, the
    array-native ``VectorInvariantChecker`` — sweeping every
    ``check_stride`` cycles — on the vectorized and batched cores.
    Checked runs bypass memo, store and journal entirely (a cached or
    replayed result would skip the monitors) but batch normally: one
    checker's whole-array sweeps cover every lane of a shared chip, and
    violations carry the offending lane index.

    ``telemetry=`` (a stream path or a live ``repro.telemetry
    .Telemetry``) switches on the span/event stream documented in
    ``repro.telemetry``: one closed span per point, scheduler lifecycle
    events, per-process store-counter deltas — and, when given as a
    path, a ``repro.sweep-report/1`` summary written next to the stream
    when the sweep ends (whatever way it ends). Telemetry is pure
    observation: results are bit-identical with it on or off, and the
    default off path holds no emitter at all.
    """
    configs = list(configs)
    journal = _open_journal(journal if not check else None, resume)
    tel = _open_telemetry(telemetry, resume)
    scheduler = _Scheduler(
        configs, check=check, store=store, journal=journal, resume=resume,
        max_attempts=1 + max(0, retries), backoff_base=backoff_base,
        backoff_cap=backoff_cap, timeout=timeout, sleep=sleep,
        check_stride=check_stride, telemetry=tel)
    if max_workers is None:
        max_workers = default_workers()
    status, error = "error", None
    start = time.perf_counter()
    active_store = store if store is not None else default_store()
    store_baseline = (dict(active_store.stats)
                      if tel is not None and active_store is not None
                      else None)
    if tel is not None:
        tel.emit("sweep_begin", points=len(configs), workers=max_workers,
                 batch_size=batch_size, check=check, resume=resume,
                 retries=max(0, retries),
                 journal=(journal.path if journal is not None else None))
    try:
        todo = scheduler.collect_todo()
        if todo:
            units = _group_units(todo, batch_size)
            if tel is not None:
                multi = [len(unit) for unit in units if len(unit) > 1]
                tel.emit("batch_groups", todo=len(todo), units=len(units),
                         multi_lane_units=len(multi),
                         batched_points=sum(multi),
                         batch_size=batch_size)
            if max_workers <= 1 or len(units) == 1:
                scheduler.run_serial(units)
            else:
                scheduler.run_pooled(units, max_workers, chunk_size)
        status = "ok"
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        raise
    finally:
        if tel is not None:
            if store_baseline is not None:
                tel.emit("worker_store", role="parent",
                         stats=active_store.stats_delta(store_baseline))
            tel.emit("sweep_end", status=status, error=error,
                     wall_s=round(time.perf_counter() - start, 6),
                     completed=sum(result is not None
                                   for result in scheduler.results))
            tel.close()
            if not hasattr(telemetry, "emit"):
                # Given as a path: the stream owns a report sidecar.
                from ..telemetry.report import try_write_sweep_report
                try_write_sweep_report(tel.path)
        if journal is not None:
            journal.close()
    return scheduler.results


def prefetch(configs: Iterable[ExperimentConfig],
             max_workers: int | None = None, **kwargs) -> None:
    """Warm the run cache so later ``run_experiment`` calls are instant.

    The figure code stays written as straightforward serial loops; calling
    ``prefetch`` with every config a figure will need turns those loops
    into cache lookups while the simulations run in parallel. Extra
    keyword arguments (``store``, ``journal``, ``resume``, ``retries``,
    ...) pass through to ``run_experiments``.
    """
    run_experiments(configs, max_workers=max_workers, **kwargs)
