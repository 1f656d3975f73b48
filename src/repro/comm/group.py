"""Process groups and the collective rendezvous.

A :class:`ProcessGroup` is the meeting point for a fixed set of global ranks.
Collectives are sequence-numbered per group (MPI semantics: all members must
issue group collectives in the same order); each call forms a *round* that
completes when every member has arrived, at which point the last arriver

1. combines the payloads (the actual data movement/arithmetic),
2. computes the call's cost from the cost model,
3. synchronizes all member clocks to ``max(entry times) + cost``, and
4. records wire traffic in the group's counters.

:meth:`ProcessGroup.rendezvous_members` is the one-thread entry point: a
program that runs all members of a group on one thread (a serving replica)
enters every member at once, and the round completes through the same
:meth:`ProcessGroup._complete_round` as a threaded one.

The rendezvous is event-driven: waiters park on the group condition and the
last arriver (or the abort path via ``SpmdRuntime._wake_all``) notifies them
— there is no poll tick.  One failing rank therefore aborts everyone
immediately instead of at the next poll interval.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.cost import CollectiveCost, CostModel
from repro.comm.counters import CommCounters
from repro.runtime.errors import CollectiveTimeout

#: With a sanitizer installed, parked waiters still wake on this cadence to
#: run ``check_stalled`` — it is the sanitizer's desync-diagnosis latency,
#: not a liveness mechanism (completion and abort are notify-driven).
_DIAG_WINDOW = 0.05

#: shared empty span-tag mapping — a round only swaps in a real dict when the
#: sanitizer tags it, so the disabled path allocates nothing extra
_NO_EXTRA: Dict[str, Any] = {}

#: finalize(payloads by local rank) ->
#:   (results by local rank, cost, op name, itemsize for element accounting)
FinalizeFn = Callable[
    [Dict[int, Any]], Tuple[Dict[int, Any], CollectiveCost, str, int]
]


class _Round:
    __slots__ = (
        "payloads", "entry_times", "results", "done", "claimed", "error",
        "op", "cost", "itemsize", "t_start", "t_end", "retries",
        "retry_seconds", "specs", "race_token", "trace_extra", "mode",
    )

    def __init__(self) -> None:
        self.payloads: Dict[int, Any] = {}
        self.entry_times: Dict[int, float] = {}
        self.results: Optional[Dict[int, Any]] = None
        self.done = False
        self.claimed = 0
        self.error: Optional[BaseException] = None
        # filled in by the finalizer
        self.op: Optional[str] = None
        self.cost: Optional[CollectiveCost] = None
        self.itemsize = 0
        self.t_start = 0.0
        self.t_end = 0.0
        self.retries = 0
        self.retry_seconds = 0.0
        # sanitizer state: per-local-rank CollectiveSpec, race-freeze token,
        # extra span tags
        self.specs: Optional[Dict[int, Any]] = None
        self.race_token: Any = None
        self.trace_extra: Dict[str, Any] = _NO_EXTRA
        # "sync" (blocking rendezvous) or "async" (handle-based); set by the
        # first arriver — mixing the two in one round is a program error
        self.mode: Optional[str] = None


class WorkHandle:
    """Handle for a nonblocking communication operation.

    ``wait()`` completes the op and reconciles the caller's compute clock by
    *max-join*: the clock jumps to the op's completion time if it has not
    already passed it, charging only the exposed remainder as ``comm``.
    ``test()`` polls completion without blocking or charging time.
    """

    __slots__ = ()

    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> bool:
        raise NotImplementedError


def max_join(clock: Any, stream: Any, counters: CommCounters, op: str,
             t_end: float, duration: float) -> Tuple[float, float, float]:
    """A wait on a ``duration`` op that completes on the comm ``stream`` at
    ``t_end``: join the compute ``clock`` to it, charging only the exposed
    remainder as ``comm``; returns ``(t_wait, exposed, overlapped)``."""
    t_wait = clock.time
    exposed = min(duration, max(0.0, t_end - t_wait))
    overlapped = max(0.0, duration - exposed)
    clock.sync_to(t_end, "comm")
    stream.note_exposed(exposed)
    counters.record_overlap(op, exposed, overlapped)
    return t_wait, exposed, overlapped


class ProcessGroup:
    """A fixed, ordered set of global ranks with collective state.

    Create via ``runtime.group(ranks)`` (idempotent) — never directly, or
    different ranks would rendezvous on different objects.
    """

    def __init__(self, runtime: Any, ranks: List[int]) -> None:
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        self.runtime = runtime
        self.ranks = list(ranks)
        self.size = len(ranks)
        self._local = {g: i for i, g in enumerate(ranks)}
        self.cost_model = CostModel(
            runtime.cluster,
            algorithm=runtime.comm_algorithm,
            island_ratio=runtime.comm_island_ratio,
        )
        self.counters = CommCounters()
        self._cond = threading.Condition()
        self._rounds: Dict[int, _Round] = {}
        self._seq: Dict[int, int] = {r: 0 for r in ranks}
        #: simulated time this group's comm stream drains: every collective
        #: (blocking or nonblocking) serializes after it, NCCL-stream-style
        self.async_tail = 0.0
        #: per-sender p2p stream tails (only the owning rank's thread writes
        #: its key; pre-populated so concurrent reads never resize the dict)
        self._p2p_tails: Dict[int, float] = {g: 0.0 for g in ranks}

    def local_rank(self, global_rank: int) -> int:
        try:
            return self._local[global_rank]
        except KeyError:
            raise ValueError(
                f"rank {global_rank} is not a member of group {self.ranks}"
            ) from None

    def global_rank(self, local_rank: int) -> int:
        return self.ranks[local_rank]

    def __contains__(self, global_rank: int) -> bool:
        return global_rank in self._local

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGroup(ranks={self.ranks})"

    def reset_rounds(self) -> None:
        """Discard in-flight rendezvous state and restart sequence numbers
        (called between runs so an aborted program leaves no stale rounds)."""
        with self._cond:
            self._rounds.clear()
            self._seq = {r: 0 for r in self.ranks}
            self.async_tail = 0.0
            for g in self.ranks:
                self._p2p_tails[g] = 0.0
            self._cond.notify_all()

    # ------------------------------------------------------------------

    def rendezvous(self, my_global_rank: int, payload: Any,
                   finalize: FinalizeFn, spec: Any = None) -> Any:
        """Enter a collective round; returns this rank's share of the result.

        ``finalize`` must be logically identical on all ranks; the last
        arriver's instance runs.  ``spec`` (a
        :class:`~repro.sanitize.spec.CollectiveSpec`, built by the
        communicator only when a sanitizer is installed) declares what this
        rank believes the call to be; the sanitizer cross-checks the specs
        when the round fills.
        """
        me = self.local_rank(my_global_rank)
        clock = self.runtime.clocks[my_global_rank]
        seq = self._take_seq(my_global_rank, spec, clock)
        if self.size == 1:
            return self._solo_round(seq, payload, finalize, spec, clock)

        with self._cond:
            rnd = self._arrive(me, seq, payload, spec, clock, "sync")
            if rnd.done:
                # The round already failed (a sanitizer desync verdict)
                # while this rank was on its way; claim the error below.
                pass
            elif len(rnd.payloads) == self.size:
                # Last arriver finalizes on behalf of everyone.
                self._complete_round(rnd, seq, finalize, blocking=True)
            else:
                self._await_round(my_global_rank, seq, rnd, spec, clock)

            rnd.claimed += 1
            if rnd.claimed == self.size:
                del self._rounds[seq]
            if rnd.error is not None:
                raise rnd.error
            assert rnd.results is not None
            return rnd.results[me]

    def _take_seq(self, rank: int, spec: Any, clock: Any) -> int:
        """Check ``rank`` for a scheduled crash, then hand it its next
        round number on this group."""
        injector = self.runtime.fault_injector
        if injector is not None:
            injector.check_time_crash(rank, clock.time)
        seq = self._seq[rank]
        self._seq[rank] = seq + 1
        if spec is not None:
            spec.seq = seq
        return seq

    def _arrive(self, me: int, seq: int, payload: Any, spec: Any,
                clock: Any, mode: str) -> _Round:
        """Record local rank ``me``'s arrival at round ``seq`` (group
        condition held)."""
        rnd = self._rounds.get(seq)
        if rnd is None:
            rnd = self._rounds[seq] = _Round()
        self._check_mode(rnd, mode)
        rnd.payloads[me] = payload
        rnd.entry_times[me] = clock.time
        if spec is not None:
            if rnd.specs is None:
                rnd.specs = {}
            rnd.specs[me] = spec
        return rnd

    def rendezvous_members(self, payloads: Dict[int, Any],
                           finalize: FinalizeFn,
                           specs: Optional[Dict[int, Any]] = None,
                           ) -> Dict[int, Any]:
        """Enter one blocking round for every member at once, from the
        calling thread; returns the results by local rank.

        For programs that run a group's symmetric ranks on one thread and
        drive every member's clock themselves (a serving replica).  Each
        member is checked for a scheduled crash in local-rank order, then
        enters at its own clock time, and the round completes through the
        same :meth:`_complete_round` as a threaded rendezvous: the same
        pricing, clock sync, counters, sanitizer checks (``specs`` by local
        rank) and observer events.
        """
        if self.size == 1:
            return {0: self.rendezvous(
                self.ranks[0], payloads[0], finalize,
                specs.get(0) if specs else None)}
        runtime = self.runtime
        clocks = runtime.clocks
        injector = runtime.fault_injector
        if injector is not None:
            for g in self.ranks:
                injector.check_time_crash(g, clocks[g].time)
        seq = self._seq[self.ranks[0]]
        if any(self._seq[g] != seq for g in self.ranks) or seq in self._rounds:
            raise RuntimeError(
                f"one-thread round on group {self.ranks} while members have "
                f"threaded rounds in flight"
            )
        rnd = _Round()
        rnd.mode = "sync"
        rnd.payloads = dict(payloads)
        rnd.entry_times = {i: clocks[g].time for i, g in enumerate(self.ranks)}
        if specs is not None:
            for spec in specs.values():
                spec.seq = seq
            rnd.specs = dict(specs)
        for g in self.ranks:
            self._seq[g] = seq + 1
        with self._cond:
            self._complete_round(rnd, seq, finalize, blocking=True)
        if rnd.error is not None:
            raise rnd.error
        assert rnd.results is not None
        return rnd.results

    def _solo_round(self, seq: int, payload: Any, finalize: FinalizeFn,
                    spec: Any, clock: Any) -> Any:
        """A size-1 round: nothing to wait for, so it runs on the calling
        thread after the group's comm-stream tail."""
        t0 = clock.time
        specs = None if spec is None else {0: spec}
        san = self.runtime.sanitizer
        if san is not None:
            san.verify_round(self, seq, specs)
        results, cost, op, itemsize = finalize({0: payload})
        if self.async_tail > clock.time:
            clock.sync_to(self.async_tail, "comm")
        t_start = clock.time
        clock.advance(cost.seconds, "comm")
        self.async_tail = clock.time
        if cost.wire_bytes:
            self.counters.record(
                op, cost.wire_bytes, cost.wire_elements(itemsize),
                algorithm=cost.algorithm,
            )
        obs = self.runtime.observers
        if obs is not None:
            rnd = _Round()
            rnd.payloads = {0: payload}
            rnd.entry_times = {0: t0}
            rnd.specs = specs
            rnd.results = results
            rnd.op, rnd.cost, rnd.itemsize = op, cost, itemsize
            rnd.t_start, rnd.t_end = t_start, clock.time
            obs.round_done(self, seq, rnd, "solo")
        return results[0]

    def _complete_round(self, rnd: _Round, seq: int, finalize: FinalizeFn,
                        blocking: bool) -> None:
        """Finalize a full round (group condition held).

        Runs the sanitizer's cross-check, ``finalize`` (payload combine and
        cost), the injector's verdict with its retries and backoff, then
        places the round after the group's comm-stream tail.  A blocking
        round syncs every member's clock to its end; a nonblocking one
        occupies every member's comm stream instead and leaves the clocks
        to the handles' ``wait``.  On success it records the counters and
        fires ``round_done``.  Any error is stored on the round for every
        member to raise.
        """
        runtime = self.runtime
        injector = runtime.fault_injector
        san = runtime.sanitizer
        obs = runtime.observers
        try:
            if san is not None:
                san.verify_round(self, seq, rnd.specs)
                rnd.race_token = san.race_acquire(self, rnd.payloads)
            results, cost, op, itemsize = finalize(rnd.payloads)
            failures, permanent = 0, False
            retry_seconds = 0.0
            if injector is not None:
                failures, permanent = injector.collective_verdict(
                    op, self.ranks, seq
                )
                if (failures or permanent) and obs is not None:
                    obs.round_retry(self, op, failures, permanent)
                if permanent:
                    # Exhaust the full retransmission budget, then give up:
                    # every member raises the timeout.
                    failures = runtime.retry_policy.max_retries + 1
                if failures:
                    policy = runtime.retry_policy
                    for a in range(1, failures + 1):
                        retry_seconds += cost.seconds + policy.backoff(a)
                    self.counters.record_retry(
                        op,
                        failures * cost.wire_bytes,
                        failures * cost.wire_elements(itemsize),
                        attempts=failures,
                    )
            # every round serializes after any in-flight nonblocking ops on
            # this group's comm stream
            t_start = max(rnd.entry_times.values())
            if self.async_tail > t_start:
                t_start = self.async_tail
            if permanent:
                t_end = t_start + retry_seconds
            else:
                t_end = t_start + cost.seconds + retry_seconds
            self.async_tail = t_end
            if blocking:
                for g in self.ranks:
                    runtime.clocks[g].sync_to(t_end, "comm")
            else:
                for g in self.ranks:
                    runtime.comm_streams[g].occupy(t_start, t_end)
            if permanent:
                raise CollectiveTimeout(op, self.ranks, attempts=failures)
            if cost.wire_bytes:
                self.counters.record(
                    op, cost.wire_bytes, cost.wire_elements(itemsize),
                    algorithm=cost.algorithm,
                )
            rnd.op, rnd.cost, rnd.itemsize = op, cost, itemsize
            rnd.t_start, rnd.t_end = t_start, t_end
            rnd.retries, rnd.retry_seconds = failures, retry_seconds
            rnd.results = results
            if obs is not None:
                obs.round_done(self, seq, rnd, "sync" if blocking else "async")
        except BaseException as exc:  # propagate to every member
            if rnd.race_token is not None:
                san.race_release(rnd.race_token)
            rnd.error = exc
        rnd.done = True
        self._cond.notify_all()

    # ------------------------------------------------------------------

    def _await_round(self, my_global_rank: int, seq: int, rnd: "_Round",
                     spec: Any, clock: Any) -> None:
        """Park (group condition held) until ``rnd`` completes.

        Shared by the blocking rendezvous and :meth:`AsyncCollectiveHandle.wait`.
        Completion and abort are notify-driven (the last arriver and
        ``SpmdRuntime._wake_all`` call ``notify_all``); with a sanitizer
        installed the wait is additionally chopped into ``_DIAG_WINDOW``
        slices so ``check_stalled`` keeps its one-tick desync-diagnosis
        latency.  The deadline is real monotonic elapsed time.
        """
        runtime = self.runtime
        san = runtime.sanitizer
        deadline_ts = time.monotonic() + runtime.deadlock_timeout
        if san is not None:
            san.enter_wait(my_global_rank, self, seq, spec, rnd)
        try:
            while not rnd.done:
                if runtime.aborting():
                    runtime.check_abort()
                if san is not None:
                    err = san.check_stalled(self, seq, rnd)
                    if err is not None and not rnd.done:
                        rnd.error = err
                        rnd.done = True
                        self._cond.notify_all()
                        runtime.observers.stall_diagnosed(
                            my_global_rank, err, clock.time)
                        break
                remaining = deadline_ts - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeout(
                        "collective", self.ranks,
                        timeout=runtime.deadlock_timeout,
                    )
                self._cond.wait(
                    remaining if san is None else min(remaining, _DIAG_WINDOW)
                )
        finally:
            if san is not None:
                san.exit_wait(my_global_rank)

    def wake(self) -> None:
        """Wake every thread parked in this group's rendezvous so it
        re-checks abort/done state (called by ``SpmdRuntime._wake_all``)."""
        with self._cond:
            self._cond.notify_all()

    def _check_mode(self, rnd: _Round, mode: str) -> None:
        """All ranks of a round must agree on blocking vs nonblocking: for a
        nonblocking round, *handle completion* (not issue order) defines the
        rendezvous point, so a blocking caller mixed into it would have its
        clock synced under the wrong semantics.  Fail the round for everyone
        rather than silently mis-pricing it."""
        if rnd.mode is None:
            rnd.mode = mode
        elif rnd.mode != mode:
            err: BaseException = RuntimeError(
                f"collective on group {self.ranks} mixes blocking and "
                f"nonblocking calls across ranks (round is {rnd.mode!r}, "
                f"this rank called {mode!r})"
            )
            if not rnd.done:
                rnd.error = err
                rnd.done = True
                self._cond.notify_all()
            rnd.claimed += 1
            raise err

    def rendezvous_async(self, my_global_rank: int, payload: Any,
                         finalize: FinalizeFn, spec: Any = None) -> "WorkHandle":
        """Enter a collective round without blocking.

        The round finalizes inline on whichever rank *issues* it last (per-
        rank program order makes that deterministic in simulated time); the
        collective then occupies the group's comm stream from
        ``max(async_tail, max issue times)`` for its priced cost.  No
        compute clock moves at finalize — each member reconciles when it
        waits the returned handle (max-join).  Byte/cost accounting is
        identical to the blocking rendezvous.
        """
        me = self.local_rank(my_global_rank)
        clock = self.runtime.clocks[my_global_rank]
        seq = self._take_seq(my_global_rank, spec, clock)
        with self._cond:
            rnd = self._arrive(me, seq, payload, spec, clock, "async")
            obs = self.runtime.observers
            if obs is not None:
                obs.round_issued(my_global_rank, self, seq)
            if not rnd.done and len(rnd.payloads) == self.size:
                self._complete_round(rnd, seq, finalize, blocking=False)
            return AsyncCollectiveHandle(self, seq, me, my_global_rank, spec)


class AsyncCollectiveHandle(WorkHandle):
    """One rank's handle on an in-flight nonblocking collective round."""

    __slots__ = ("_group", "_seq", "_me", "_rank", "_spec", "_done", "_result")

    def __init__(self, group: ProcessGroup, seq: int, me: int, rank: int,
                 spec: Any) -> None:
        self._group = group
        self._seq = seq
        self._me = me
        self._rank = rank
        self._spec = spec
        self._done = False
        self._result: Any = None

    def test(self) -> bool:
        if self._done:
            return True
        with self._group._cond:
            rnd = self._group._rounds.get(self._seq)
            return rnd is None or rnd.done

    def wait(self) -> Any:
        """Block (in host time) until the round completes, then max-join the
        caller's compute clock to the completion time.  Only the portion of
        the op duration the clock actually stalls on is exposed; the rest is
        accounted as overlapped."""
        if self._done:
            return self._result
        group = self._group
        runtime = group.runtime
        clock = runtime.clocks[self._rank]
        with group._cond:
            rnd = group._rounds.get(self._seq)
            if rnd is None:
                raise RuntimeError(
                    f"nonblocking collective #{self._seq} on group "
                    f"{group.ranks} has no round state (runtime reset while "
                    f"the handle was outstanding?)"
                )
            if not rnd.done:
                group._await_round(self._rank, self._seq, rnd, self._spec, clock)
            if rnd.error is not None:
                rnd.claimed += 1
                if rnd.claimed == group.size:
                    del group._rounds[self._seq]
                self._done = True
                raise rnd.error
            assert rnd.results is not None
            result = rnd.results[self._me]
            t_start, t_end, op = rnd.t_start, rnd.t_end, rnd.op
            rnd.claimed += 1
            if rnd.claimed == group.size:
                del group._rounds[self._seq]
        t_wait, exposed, overlapped = max_join(
            clock, runtime.comm_streams[self._rank], group.counters,
            op or "collective", t_end, t_end - t_start)
        obs = runtime.observers
        if obs is not None:
            obs.round_waited(self._rank, group, self._seq, op, t_wait, t_end,
                             exposed, overlapped)
        self._done = True
        self._result = result
        return result
