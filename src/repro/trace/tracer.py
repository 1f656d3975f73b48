"""Per-rank event tracing in simulated time.

A :class:`Tracer` records what every rank of an SPMD program did and when —
in *simulated* seconds, the same timebase :class:`~repro.runtime.clock.SimClock`
charges.  Two event sources feed it:

* **clock spans** — every nonzero ``SimClock.advance`` and forward
  ``sync_to`` emits a span tagged with the clock's category (``compute``,
  ``comm``, ``wait``, ``offload``, ``optimizer``).  Summed per category
  these reconcile exactly with ``SimClock.breakdown()``.
* **annotation spans** — the tracer's observer events
  (:mod:`repro.runtime.observer`) build the comm spans: collectives and
  their retries (``collective``/``retry``), p2p transfers (``p2p``), the
  per-rank comm-stream lane (``comm_stream``), the exposed tail of a
  handle wait (``overlap``) and one ``rank`` span per rank.  Higher layers
  annotate their own work directly: pipeline stages and bubbles, ZeRO
  chunk traffic, trainer steps, checkpoints and serving requests.

A sanitizer installed alongside puts ``sanitized``/``digest`` tags on the
collective spans, and its desync verdicts appear as
``sanitizer:<ErrorType>`` instants.

Consumers: :func:`repro.trace.chrome.chrome_trace` (open in
``chrome://tracing`` / Perfetto) and :class:`repro.trace.report.TraceReport`
(text summary).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.runtime.observer import Observer

#: categories emitted by SimClock observers (the reconcilable set)
CLOCK_CATEGORIES = ("compute", "comm", "wait", "offload", "optimizer")

#: categories emitted by annotation sites (not summed into breakdowns)
ANNOTATION_CATEGORIES = (
    "collective", "p2p", "pipeline", "bubble", "retry",
    "zero", "step", "checkpoint", "rank", "comm_stream", "overlap",
    "serve",
)

#: event kinds
KIND_CLOCK = "clock"
KIND_ANNOTATION = "annotation"


@dataclass
class Span:
    """One closed interval of simulated time on one rank's lane."""

    rank: int
    cat: str
    name: str
    t0: float
    t1: float
    kind: str = KIND_ANNOTATION
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class Instant:
    """A zero-duration marker (rank start/failure, user events)."""

    rank: int
    name: str
    t: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Counter:
    """A sampled value series point (memory-pool readings)."""

    rank: int
    name: str
    t: float
    values: Dict[str, float] = field(default_factory=dict)


class Tracer(Observer):
    """Collects per-rank spans/instants/counters for one or more SPMD runs.

    Attach with ``SpmdRuntime(cluster, tracer=tracer)`` or
    ``tracer.install(runtime)``; detach with :meth:`uninstall`.  Recording
    is thread-safe (rank threads and rendezvous finalizers all append).
    """

    slot = "tracer"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        self._counters: List[Counter] = []

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded events (e.g. between runs on the same runtime,
        whose clocks reset to t=0)."""
        with self._lock:
            self._spans.clear()
            self._instants.clear()
            self._counters.clear()

    # -- recording ---------------------------------------------------------

    def annotate(self, rank: int, cat: str, name: str, t0: float, t1: float,
                 **args: Any) -> None:
        """Record a named annotation span over ``[t0, t1]``."""
        with self._lock:
            self._spans.append(
                Span(rank, cat, name, t0, t1, KIND_ANNOTATION, dict(args))
            )

    @contextmanager
    def region(self, rank: int, cat: str, name: str, clock: Any,
               **args: Any) -> Iterator[None]:
        """Context manager recording an annotation span whose bounds are the
        clock's simulated time at entry and exit."""
        t0 = clock.time
        try:
            yield
        finally:
            self.annotate(rank, cat, name, t0, clock.time, **args)

    def instant(self, rank: int, name: str, t: float, **args: Any) -> None:
        with self._lock:
            self._instants.append(Instant(rank, name, t, dict(args)))

    def counter(self, rank: int, name: str, t: float, **values: float) -> None:
        with self._lock:
            self._counters.append(Counter(rank, name, t, dict(values)))

    def sample_memory(self, rank: int, device: Any, t: float) -> None:
        """Sample a device memory pool (allocated bytes) as a counter point."""
        self.counter(
            rank, f"mem:{device.name}", t,
            allocated=float(device.memory.allocated),
        )

    # -- observer events ---------------------------------------------------

    def clock(self, rank: int, category: str, t0: float, t1: float,
              dt: Optional[float]) -> None:
        if dt is None or dt > 0.0:
            with self._lock:
                self._spans.append(
                    Span(rank, category, category, t0, t1, KIND_CLOCK))

    def rank_done(self, rank: int, t0: float, t1: float, ok: bool) -> None:
        if ok:
            self.annotate(rank, "rank", f"rank{rank}", t0, t1)

    def rank_failed(self, rank: int, exc: BaseException, t: float) -> None:
        self.instant(rank, f"rank{rank}:failed", t, error=type(exc).__name__)

    def stall_diagnosed(self, rank: int, err: BaseException,
                        t: float) -> None:
        self.instant(rank, f"sanitizer:{type(err).__name__}", t)

    def round_done(self, group: Any, seq: int, rnd: Any, mode: str) -> None:
        """One span per member: a blocking round spans each member's own
        entry to the common completion on its compute lane (plus a retry
        span), a nonblocking one the stream occupancy on its comm lane.
        Local rank 0's span carries the round totals."""
        cost = rnd.cost
        if mode == "solo":
            self.annotate(
                group.ranks[0], "collective", rnd.op, rnd.entry_times[0],
                rnd.t_end, wire_bytes=cost.wire_bytes, group_size=1,
                primary=True, algo=cost.algorithm, **rnd.trace_extra,
            )
            return
        sync = mode == "sync"
        for local, g in enumerate(group.ranks):
            self.annotate(
                g, "collective" if sync else "comm_stream", rnd.op,
                rnd.entry_times[local] if sync else rnd.t_start, rnd.t_end,
                wire_bytes=cost.wire_bytes, group_size=group.size,
                retries=rnd.retries, primary=(local == 0),
                algo=cost.algorithm, **rnd.trace_extra,
            )
            if sync and rnd.retries:
                self.annotate(
                    g, "retry", f"{rnd.op}:retry",
                    rnd.t_end - rnd.retry_seconds, rnd.t_end,
                    attempts=rnd.retries,
                )

    def round_waited(self, rank: int, group: Any, seq: int, op: str,
                     t_wait: float, t_end: float, exposed: float,
                     overlapped: float) -> None:
        if exposed > 0.0:
            self.annotate(rank, "overlap", f"wait/{op}", t_wait, t_end,
                          exposed=exposed, overlapped=overlapped)

    def sent(self, kind: str, key: Any, payload: Any, cost: Any,
             t0: float, t1: float, handle: Any) -> None:
        if kind == "ps":
            self.annotate(key[0], "p2p", "send", t0, t1, dst=key[1],
                          nbytes=int(payload.nbytes))
        elif kind == "pss":
            self.annotate(key[0], "comm_stream", "isend", t0, t1, dst=key[1],
                          nbytes=int(payload.nbytes))

    def p2p_retry(self, src: int, dst: int, attempt: int, verdict: str,
                  t0: float, t1: float) -> None:
        self.annotate(src, "retry", "p2p:retry", t0, t1, dst=dst,
                      attempt=attempt)

    def stream_waited(self, rank: int, handle: Any, t_wait: float,
                      t_end: float, exposed: float,
                      overlapped: float) -> None:
        if exposed > 0.0:
            self.annotate(rank, "overlap", "wait/isend", t_wait, t_end,
                          exposed=exposed, overlapped=overlapped)

    def received(self, key: Any, payload: Any, t0: float, t1: float) -> None:
        self.annotate(key[1], "p2p", "recv", t0, t1, src=key[0],
                      nbytes=int(payload.nbytes))

    # -- accessors ---------------------------------------------------------

    def spans(self, kind: Optional[str] = None,
              cat: Optional[str] = None) -> List[Span]:
        with self._lock:
            out = list(self._spans)
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        return out

    def instants(self) -> List[Instant]:
        with self._lock:
            return list(self._instants)

    def counters(self) -> List[Counter]:
        with self._lock:
            return list(self._counters)

    def ranks(self) -> List[int]:
        with self._lock:
            seen = {s.rank for s in self._spans}
            seen.update(i.rank for i in self._instants)
            seen.update(c.rank for c in self._counters)
        return sorted(seen)

    def clock_breakdown(self, rank: int) -> Dict[str, float]:
        """Per-category seconds summed from this rank's clock spans — must
        reconcile with ``SimClock.breakdown()`` for the same run."""
        out: Dict[str, float] = {}
        for s in self.spans(kind=KIND_CLOCK):
            if s.rank == rank:
                out[s.cat] = out.get(s.cat, 0.0) + s.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self._spans)}, instants={len(self._instants)}, "
            f"counters={len(self._counters)})"
        )
