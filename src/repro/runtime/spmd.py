"""SPMD thread launcher.

``SpmdRuntime.run(fn)`` executes ``fn(ctx)`` once per rank, each on its own
thread, in the style of ``mpiexec -n N python script.py``.  NumPy releases
the GIL for array work, so rank threads overlap where it matters; more
importantly, *simulated* time is tracked per rank by :class:`SimClock`, so
host-thread scheduling never affects measured results.

Failure handling: if any rank raises, the runtime trips an abort flag that
every blocking communication primitive polls; all other ranks then raise
:class:`SpmdAborted`, threads are joined and the original exception is
re-raised on the launcher thread wrapped in :class:`RemoteRankError`.

``SpmdRuntime.run_collapsed(fn)`` is the one-thread variant for programs
whose ranks are symmetric and that drive every rank's clock themselves (a
serving replica prices its tensor-parallel all-reduce for all members in
one :meth:`~repro.comm.group.ProcessGroup.rendezvous_members` call).  It
shares ``run``'s per-run set-up, checks and error reporting.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.runtime.clock import SimClock, StreamClock
from repro.runtime.observer import ObserverList
from repro.runtime.errors import (
    CollectiveTimeout, RankFailure, RemoteRankError, SpmdAborted,
)
from repro.utils.backoff import RetryPolicy

_thread_local = threading.local()

#: Default host-time limit for any single blocking communication call.
#: Generous — it exists to turn accidental deadlocks into diagnosable
#: errors.  Override per runtime via ``SpmdRuntime(deadlock_timeout=...)``.
_DEADLOCK_TIMEOUT = 120.0


class RankContext:
    """Everything one rank's thread needs: identity, device handles, clock,
    RNG, execution mode and a slot for the parallel context."""

    def __init__(
        self,
        runtime: "SpmdRuntime",
        rank: int,
        materialize: bool,
        seed: int,
    ) -> None:
        self.runtime = runtime
        self.rank = rank
        self.world_size = runtime.world_size
        self.cluster = runtime.cluster
        self.device = runtime.cluster.device(rank)
        self.cpu = runtime.cluster.cpu_of(rank)
        self.clock = runtime.clocks[rank]
        self.materialize = materialize
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.parallel_context: Optional[Any] = None  # set by repro.context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankContext(rank={self.rank}/{self.world_size}, device={self.device.name})"


def current_rank_context() -> RankContext:
    """The :class:`RankContext` of the calling thread.

    Raises if called outside an SPMD program — library code that needs the
    context should receive it explicitly where possible; this accessor exists
    for deep call sites (tensor allocation, autograd ops).
    """
    ctx = getattr(_thread_local, "ctx", None)
    if ctx is None:
        raise RuntimeError(
            "no SPMD rank context on this thread; call inside SpmdRuntime.run()"
        )
    return ctx


def in_spmd() -> bool:
    return getattr(_thread_local, "ctx", None) is not None


class _Mailboxes:
    """Point-to-point message store: (src, dst, tag) -> FIFO of payloads."""

    def __init__(self, timeout: float = _DEADLOCK_TIMEOUT) -> None:
        self._cond = threading.Condition()
        self._boxes: Dict[Tuple[int, int, Any], List[Any]] = {}
        self._timeout = timeout

    def put(self, key: Tuple[int, int, Any], item: Any) -> None:
        with self._cond:
            self._boxes.setdefault(key, []).append(item)
            self._cond.notify_all()

    def get(self, key: Tuple[int, int, Any], should_abort: Callable[[], bool]) -> Any:
        # event-driven: put() notifies, abort wakes via wake(); the deadline
        # is real monotonic elapsed time, not accumulated poll intervals
        deadline_ts = time.monotonic() + self._timeout
        with self._cond:
            while True:
                box = self._boxes.get(key)
                if box:
                    item = box.pop(0)
                    if not box:
                        del self._boxes[key]
                    return item
                if should_abort():
                    raise _make_abort_error()
                remaining = deadline_ts - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeout(
                        "recv", key[:2], timeout=self._timeout
                    )
                self._cond.wait(remaining)

    def wake(self) -> None:
        """Wake blocked receivers so they re-check the abort flag."""
        with self._cond:
            self._cond.notify_all()

    def clear(self) -> None:
        """Drop all undelivered messages (stale state after an abort)."""
        with self._cond:
            self._boxes.clear()
            self._cond.notify_all()


def _make_abort_error() -> SpmdAborted:
    ctx = current_rank_context()
    failed_rank, cause = ctx.runtime.failure  # type: ignore[misc]
    return SpmdAborted(failed_rank, cause)


def _resolve_sanitizer(sanitize: Any) -> Any:
    """Accept the ``sanitize=`` runtime argument in any of its forms:
    ``True`` (all default checks), a :class:`~repro.config.SanitizeConfig`,
    or a ready :class:`~repro.sanitize.CommSanitizer`."""
    from repro.config import SanitizeConfig
    from repro.sanitize import CommSanitizer

    if isinstance(sanitize, CommSanitizer):
        return sanitize
    if sanitize is True:
        return CommSanitizer(checksum=True, race=True)
    if isinstance(sanitize, SanitizeConfig):
        san = sanitize.build()
        if san is None:
            raise ValueError(
                "sanitize config has enabled=False; pass None instead"
            )
        return san
    raise TypeError(
        f"sanitize must be True, a SanitizeConfig or a CommSanitizer, "
        f"got {type(sanitize).__name__}"
    )


def _observer_slot(name: str) -> property:
    """A runtime attribute holding one observer or None; assigning it
    rebuilds ``runtime.observers``."""
    attr = "_" + name

    def assign(runtime: "SpmdRuntime", observer: Any) -> None:
        setattr(runtime, attr, observer)
        runtime._observers_changed()

    return property(attrgetter(attr), assign)


class SpmdRuntime:
    """Owns the cluster, clocks, process-group registry and mailboxes for one
    SPMD program (or a sequence of them over the same cluster).

    ``tracer``, ``sanitizer`` and ``capture`` hold the installed observers
    (set by each one's ``install``); ``observers`` is their
    :class:`~repro.runtime.observer.ObserverList` in the fixed order
    sanitizer, capture, tracer — or None when none is installed."""

    tracer = _observer_slot("tracer")
    sanitizer = _observer_slot("sanitizer")
    capture = _observer_slot("capture")

    def __init__(
        self,
        cluster: ClusterSpec,
        world_size: Optional[int] = None,
        deadlock_timeout: float = _DEADLOCK_TIMEOUT,
        fault_plan: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Any] = None,
        comm_algorithm: str = "ring",
        sanitize: Optional[Any] = None,
        comm_overlap: bool = False,
        capture: Optional[Any] = None,
        buffer_pool: bool = True,
    ) -> None:
        if world_size is None:
            world_size = cluster.world_size
        if world_size > cluster.world_size:
            raise ValueError(
                f"world_size {world_size} exceeds cluster size {cluster.world_size}"
            )
        if deadlock_timeout <= 0:
            raise ValueError(
                f"deadlock_timeout must be positive, got {deadlock_timeout}"
            )
        from repro.comm.algorithms import ALGORITHMS  # comm builds on runtime

        if comm_algorithm not in ALGORITHMS + ("auto",):
            raise ValueError(
                f"unknown comm_algorithm {comm_algorithm!r}; "
                f"choose from {ALGORITHMS + ('auto',)}"
            )
        #: default collective algorithm for every process group's cost model
        self.comm_algorithm = comm_algorithm
        #: island-detection bandwidth-ratio threshold for hierarchical
        #: collectives (see Topology.islands)
        self.comm_island_ratio = 0.5
        #: route nonblocking p2p and scheduler comm through per-rank comm
        #: streams (comm/compute overlap) instead of legacy blocking-on-wait
        #: semantics; i-collectives always use the streams.
        self.comm_overlap = bool(comm_overlap)
        self.cluster = cluster
        self.world_size = world_size
        self.clocks = [SimClock() for _ in range(world_size)]
        #: per-rank communication streams (see StreamClock); only populated
        #: with occupancy when nonblocking primitives are used.
        self.comm_streams = [StreamClock() for _ in range(world_size)]
        self.deadlock_timeout = float(deadlock_timeout)
        self.mailboxes = _Mailboxes(self.deadlock_timeout)
        #: shared scratch-buffer pool for materialized collectives, or None
        #: (``buffer_pool=False`` — the unpooled reference for parity runs);
        #: pooled and unpooled results are bitwise identical by contract.
        from repro.runtime.buffer_pool import BufferPool

        self.buffer_pool: Optional[BufferPool] = (
            BufferPool() if buffer_pool else None
        )
        self.retry_policy = retry if retry is not None else RetryPolicy()
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.fault_injector: Optional[Any] = FaultInjector(fault_plan)
        else:
            self.fault_injector = None
        self._abort = threading.Event()
        self.failure: Optional[Tuple[int, BaseException]] = None
        self._group_lock = threading.Lock()
        self._groups: Dict[Tuple[int, ...], Any] = {}
        self.observers: Optional[ObserverList] = None
        self._tracer = self._sanitizer = self._capture = None
        if tracer is not None:
            tracer.install(self)
        if sanitize is not None and sanitize is not False:
            _resolve_sanitizer(sanitize).install(self)
        if capture is not None:
            capture.install(self)

    def _observers_changed(self) -> None:
        installed = [o for o in (self._sanitizer, self._capture, self._tracer)
                     if o is not None]
        obs = ObserverList(installed) if installed else None
        self.observers = obs
        hook = obs.clock if obs is not None and "clock" in obs.handled else None
        for rank, clock in enumerate(self.clocks):
            clock.set_hook(None if hook is None else partial(hook, rank))

    # -- failure propagation -------------------------------------------------

    def signal_failure(self, rank: int, exc: BaseException) -> None:
        if self.failure is None:
            self.failure = (rank, exc)
        self._abort.set()
        if self.observers is not None:
            self.observers.rank_failed(rank, exc, self.clocks[rank].time)
        # rendezvous waits are notify-driven, so blocked peers must be woken
        # explicitly or they would sleep through the abort until their
        # deadlock timeout
        self._wake_all()

    def _wake_all(self) -> None:
        """Notify every group rendezvous condition and the mailboxes.

        Group conditions are notified *after* releasing ``_group_lock``:
        ``wake()`` takes the group's own condition lock, and a rank thread
        holding that lock may be about to call ``runtime.group()`` (which
        takes ``_group_lock``) — acquiring both here would deadlock.
        """
        with self._group_lock:
            groups = list(self._groups.values())
        for grp in groups:
            grp.wake()
        self.mailboxes.wake()

    def aborting(self) -> bool:
        return self._abort.is_set()

    def check_abort(self) -> None:
        if self._abort.is_set():
            failed_rank, cause = self.failure  # type: ignore[misc]
            raise SpmdAborted(failed_rank, cause)

    # -- process groups -------------------------------------------------------

    def group(self, ranks: Sequence[int]) -> Any:
        """Idempotently create/fetch the :class:`ProcessGroup` over ``ranks``.

        Safe to call concurrently from every member rank; all receive the
        same object.  (Deferred import: comm builds on runtime.)
        """
        from repro.comm.group import ProcessGroup

        key = tuple(ranks)
        with self._group_lock:
            grp = self._groups.get(key)
            if grp is None:
                grp = ProcessGroup(self, list(key))
                self._groups[key] = grp
            return grp

    def set_comm_algorithm(self, algorithm: str) -> None:
        """Switch the default collective algorithm for this runtime and all
        already-created process groups (their selector caches are keyed by
        topology version, so no explicit invalidation is needed)."""
        from repro.comm.algorithms import ALGORITHMS

        if algorithm not in ALGORITHMS + ("auto",):
            raise ValueError(
                f"unknown comm_algorithm {algorithm!r}; "
                f"choose from {ALGORITHMS + ('auto',)}"
            )
        with self._group_lock:
            self.comm_algorithm = algorithm
            for grp in self._groups.values():
                grp.cost_model.algorithm = algorithm

    @property
    def world_group(self) -> Any:
        return self.group(range(self.world_size))

    # -- launching -------------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        materialize: bool = True,
        seed: int = 0,
        reset_clocks: bool = True,
        **kwargs: Any,
    ) -> List[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return per-rank
        results in rank order.

        ``materialize=False`` runs the program in spec mode: tensors carry
        shapes/bytes but no data (used for billion-parameter experiments).
        """
        self._begin_run(reset_clocks)

        results: List[Any] = [None] * self.world_size
        errors: List[Optional[BaseException]] = [None] * self.world_size

        def worker(rank: int) -> None:
            ctx = RankContext(self, rank, materialize, seed=seed * 100003 + rank)
            _thread_local.ctx = ctx
            t_start = ctx.clock.time
            ok = False
            try:
                results[rank] = fn(ctx, *args, **kwargs)
                ok = True
            except SpmdAborted:
                pass  # secondary failure; the primary is re-raised below
            except BaseException as exc:  # noqa: BLE001 - must propagate anything
                errors[rank] = exc
                self.signal_failure(rank, exc)
            finally:
                obs = self.observers
                if obs is not None:
                    obs.rank_done(rank, t_start, ctx.clock.time, ok)
                _thread_local.ctx = None

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
            for r in range(self.world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if self.failure is not None:
            # a failed collective round raises one error object on every
            # member; attribute it to the lowest of them, not to whichever
            # thread reported first
            cause = self.failure[1]
            self.failure = (
                next(r for r, e in enumerate(errors) if e is cause), cause)
        self._end_run()
        return results

    def run_collapsed(
        self,
        fn: Callable[..., Any],
        *args: Any,
        materialize: bool = True,
        seed: int = 0,
        reset_clocks: bool = True,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(ctx, *args, **kwargs)`` once, on the calling thread, for
        programs whose ranks are symmetric and that drive every rank's clock
        themselves (one serving replica); return its result.

        ``ctx`` is rank 0's :class:`RankContext`, installed for the call so
        :func:`current_rank_context` and :func:`in_spmd` hold.  The run
        shares :meth:`run`'s per-run set-up and checks, and emits every
        rank's ``rank`` span.  An error raises the same
        :class:`RemoteRankError`: a :class:`RankFailure` is attributed to
        the rank it names, anything else to rank 0.
        """
        self._begin_run(reset_clocks)
        t_starts = [c.time for c in self.clocks]
        ctx = RankContext(self, 0, materialize, seed=seed * 100003)
        outer = getattr(_thread_local, "ctx", None)
        _thread_local.ctx = ctx
        result = None
        ok = False
        try:
            result = fn(ctx, *args, **kwargs)
            ok = True
        except BaseException as exc:  # noqa: BLE001 - must propagate anything
            self.signal_failure(
                exc.rank if isinstance(exc, RankFailure) else 0, exc)
        finally:
            _thread_local.ctx = outer
        obs = self.observers
        if obs is not None:
            for rank, clock in enumerate(self.clocks):
                obs.rank_done(rank, t_starts[rank], clock.time, ok)
        self._end_run()
        return result

    def _begin_run(self, reset_clocks: bool) -> None:
        """Per-run set-up shared by :meth:`run` and :meth:`run_collapsed`."""
        if reset_clocks:
            for c in self.clocks:
                c.reset()
            for s in self.comm_streams:
                s.reset()
        self._reset_comm_state()
        if self.fault_injector is not None:
            self.fault_injector.install(self)
        if self.observers is not None:
            self.observers.begin_run(self)
        self._abort.clear()
        self.failure = None

    def _end_run(self) -> None:
        """Per-run checks shared by :meth:`run` and :meth:`run_collapsed`:
        the observers' end of run (the sanitizer's verdict may raise), the
        primary failure re-raised on the launcher thread and the
        buffer-pool leak check."""
        if self.observers is not None:
            self.observers.end_run(self, self.failure is None)
        if self.failure is not None:
            rank, cause = self.failure
            raise RemoteRankError(rank, cause) from cause
        if self.buffer_pool is not None:
            # clean runs must have returned or adopted every loan; an
            # unreturned scratch buffer is a runtime bug, named here
            self.buffer_pool.check_leaks()

    def _reset_comm_state(self) -> None:
        """Drop stale rendezvous rounds and undelivered messages so the
        runtime is reusable after an aborted program (recovery path)."""
        self.mailboxes.clear()
        if self.buffer_pool is not None:
            self.buffer_pool.reset()
        with self._group_lock:
            for grp in self._groups.values():
                grp.reset_rounds()

    # -- results ---------------------------------------------------------------

    def max_time(self) -> float:
        """Simulated makespan of the last program (slowest rank; includes
        comm-stream tails so fire-and-forget sends are not under-counted)."""
        return max(
            max(c.time for c in self.clocks),
            max(s.time for s in self.comm_streams),
        )


def spmd_launch(
    cluster: ClusterSpec,
    fn: Callable[..., Any],
    *args: Any,
    world_size: Optional[int] = None,
    materialize: bool = True,
    seed: int = 0,
    fault_plan: Optional[Any] = None,
    tracer: Optional[Any] = None,
    comm_algorithm: str = "ring",
    sanitize: Optional[Any] = None,
    comm_overlap: bool = False,
    **kwargs: Any,
) -> List[Any]:
    """One-shot convenience: build a runtime, run ``fn`` on every rank,
    return per-rank results."""
    rt = SpmdRuntime(
        cluster, world_size, fault_plan=fault_plan, tracer=tracer,
        comm_algorithm=comm_algorithm, sanitize=sanitize,
        comm_overlap=comm_overlap,
    )
    return rt.run(fn, *args, materialize=materialize, seed=seed, **kwargs)
