"""The runtime's observer seam.

The comm sanitizer, the projection capture recorder and the timeline tracer
are *observers*: each subclasses :class:`Observer` and overrides the events
it needs.  The runtime keeps the installed ones in one fixed order —
sanitizer, capture, tracer — so the sanitizer has tagged a round
(``rnd.trace_extra``) before the tracer builds the round's spans.

Each event fires from exactly one site through ``runtime.observers``: an
:class:`ObserverList`, or None when nothing is installed, so a site costs
one ``is None`` check and allocates nothing.  The clock event comes from
each rank's ``SimClock`` hook, installed only while an observer handles it.
Control flow stays explicit at its sites: the fault injector's crash
checks and verdicts, and the sanitizer's pre-finalize ``verify_round`` and
race freeze and its wait diagnosis.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence


class Observer:
    """Installation into a runtime slot, and every event as a no-op.
    Times are simulated seconds and ranks are global; ``rnd`` is the
    completed :class:`~repro.comm.group._Round` and ``key`` a p2p mailbox
    key ``(src, dst, group, tag)``."""

    #: the runtime attribute the observer installs into
    slot = ""
    _runtime: Any = None

    def install(self, runtime: Any) -> "Observer":
        """Attach to ``runtime`` as its ``runtime.<slot>`` observer, leaving
        any runtime it was attached to."""
        if self._runtime is not None and self._runtime is not runtime:
            self.uninstall()
        self._runtime = runtime
        setattr(runtime, self.slot, self)
        return self

    def uninstall(self) -> None:
        """Detach from the runtime, if attached."""
        if self._runtime is not None:
            setattr(self._runtime, self.slot, None)
            self._runtime = None

    def begin_run(self, runtime: Any) -> None:
        """Clocks and comm state are reset; the ranks start next."""

    def end_run(self, runtime: Any, ok: bool) -> None:
        """The run ended; ``ok`` is False when some rank failed."""

    def rank_done(self, rank: int, t0: float, t1: float, ok: bool) -> None:
        """``rank`` left its program (``ok``: by returning)."""

    def rank_failed(self, rank: int, exc: BaseException, t: float) -> None:
        """``rank`` raised the run's failure."""

    def clock(self, rank: int, category: str, t0: float, t1: float,
              dt: Optional[float]) -> None:
        """An advance by exactly ``dt`` (post-slowdown, maybe 0), or a
        forward ``sync_to`` when ``dt`` is None."""

    def round_done(self, group: Any, seq: int, rnd: Any, mode: str) -> None:
        """A round completed: ``"sync"`` (blocking, threaded or one-thread),
        ``"async"`` (nonblocking) or ``"solo"`` (size-1 group)."""

    def round_retry(self, group: Any, op: str, attempts: int,
                    permanent: bool) -> None:
        """The fault injector failed ``attempts`` tries of a round."""

    def round_issued(self, rank: int, group: Any, seq: int) -> None:
        """``rank`` issued nonblocking round ``seq``."""

    def round_waited(self, rank: int, group: Any, seq: int, op: str,
                     t_wait: float, t_end: float, exposed: float,
                     overlapped: float) -> None:
        """``rank`` waited its handle on nonblocking round ``seq``."""

    def stall_diagnosed(self, rank: int, err: BaseException,
                        t: float) -> None:
        """The sanitizer convicted the round ``rank`` is parked in."""

    def sent(self, kind: str, key: Any, payload: Any, cost: Any,
             t0: float, t1: float, handle: Any) -> None:
        """A payload is about to be enqueued by a blocking send (``"ps"``,
        charged over ``[t0, t1]``), an eager isend (``"pse"``) or a stream
        isend (``"pss"``, on the p2p stream over ``[t0, t1]``)."""

    def p2p_retry(self, src: int, dst: int, attempt: int, verdict: str,
                  t0: float, t1: float) -> None:
        """The fault injector dropped or corrupted one p2p attempt."""

    def stream_waited(self, rank: int, handle: Any, t_wait: float,
                      t_end: float, exposed: float,
                      overlapped: float) -> None:
        """``rank`` waited a stream isend's ``handle``."""

    def eager_waited(self, rank: int, seconds: float) -> None:
        """``rank`` waited an eager isend and was charged ``seconds``."""

    def received(self, key: Any, payload: Any, t0: float, t1: float) -> None:
        """The receiver took ``payload`` over ``[t0, t1]``."""


EVENTS = (
    "begin_run", "end_run", "rank_done", "rank_failed", "clock",
    "round_done", "round_retry", "round_issued", "round_waited",
    "stall_diagnosed", "sent", "p2p_retry", "stream_waited", "eager_waited",
    "received",
)


def _fan_out(handlers: list) -> Callable[..., None]:
    if len(handlers) == 1:
        return handlers[0]

    def fan_out(*args: Any) -> None:
        for handler in handlers:
            handler(*args)

    return fan_out


class ObserverList:
    """The installed observers in order, with one attribute per event that
    calls each observer overriding it, in that order."""

    def __init__(self, observers: Sequence[Observer]) -> None:
        #: the events some observer overrides
        self.handled = set()
        for name in EVENTS:
            base = getattr(Observer, name)
            handlers = [getattr(o, name) for o in observers
                        if getattr(type(o), name) is not base]
            if handlers:
                self.handled.add(name)
            setattr(self, name, _fan_out(handlers))
