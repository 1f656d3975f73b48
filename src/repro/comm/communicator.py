"""Rank-facing communication API.

A :class:`Communicator` is one rank's view of a :class:`ProcessGroup`.  The
method set mirrors the standard collective vocabulary (mpi4py / NCCL):
``all_reduce``, ``all_gather``, ``reduce_scatter``, ``broadcast``,
``reduce``, ``scatter``, ``gather``, ``all_to_all``, ``barrier``,
``send``/``recv`` and ``ring_pass`` (one rotation step, the primitive under
ring self-attention and SUMMA-style algorithms).

All methods accept either real ``numpy`` arrays or :class:`SpecArray`
stand-ins and return the same kind; reductions are combined in local-rank
order so results are bitwise deterministic run-to-run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.cost import CollectiveCost
from repro.comm.group import ProcessGroup, WorkHandle, max_join
from repro.comm.payload import Payload, SpecArray, is_spec, like
from repro.runtime.errors import CollectiveTimeout

ReduceOp = str  # "sum" | "max" | "min" | "prod"

_REDUCERS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}

#: nominal wire size charged for control-plane object exchanges
_OBJECT_NBYTES = 64


def _check_same_shape(payloads: Dict[int, Payload], what: str) -> None:
    shapes = {tuple(p.shape) for p in payloads.values()}
    if len(shapes) > 1:
        raise ValueError(f"{what}: mismatched shapes across ranks: {sorted(shapes)}")


def _check_reduce_op(op: ReduceOp, what: str) -> None:
    """Reject unknown reduce ops up front, identically in both execution
    modes (spec mode never touches ``_REDUCERS``, so without this check it
    silently accepted any string while real mode raised a raw KeyError)."""
    if op not in _REDUCERS:
        raise ValueError(
            f"{what}: invalid reduce op {op!r}; valid ops: {sorted(_REDUCERS)}"
        )


def _combine(payloads: Dict[int, Payload], op: ReduceOp,
             pool: Any = None) -> Payload:
    """Reduce payloads in local-rank order (deterministic).

    With a :class:`~repro.runtime.buffer_pool.BufferPool` the accumulator is
    a pooled scratch buffer filled in place (``fn(acc, arr, out=acc)``) —
    bitwise identical to the chained ``acc = fn(acc, arr)`` when all operand
    dtypes match (elementwise ufuncs, no promotion), which is the only case
    the pooled path takes.  The caller owns the returned buffer and must
    ``adopt`` it out of the pool (reductions escape as rank results).
    """
    ordered = [payloads[i] for i in sorted(payloads)]
    first = ordered[0]
    if is_spec(first):
        dtype = np.result_type(*[p.dtype for p in ordered])
        return SpecArray(first.shape, dtype)
    fn = _REDUCERS[op]
    if pool is not None and all(p.dtype == first.dtype for p in ordered[1:]):
        acc = pool.loan(first.shape, first.dtype, f"combine:{op}")
        np.copyto(acc, first)
        for arr in ordered[1:]:
            fn(acc, arr, out=acc)
        pool.adopt(acc)
        return acc
    acc = ordered[0].copy()
    for arr in ordered[1:]:
        acc = fn(acc, arr)
    return acc


def _pooled_copy(arr: np.ndarray, pool: Any, label: str) -> np.ndarray:
    """A copy of ``arr`` drawn from (and adopted out of) the buffer pool."""
    out = pool.loan(arr.shape, arr.dtype, label)
    np.copyto(out, arr)
    pool.adopt(out)
    return out


def _split_axis(x: Payload, parts: int, axis: int, what: str) -> List[Payload]:
    if x.shape[axis] % parts != 0:
        raise ValueError(
            f"{what}: axis {axis} of shape {x.shape} not divisible into "
            f"{parts} parts"
        )
    if is_spec(x):
        shape = list(x.shape)
        shape[axis] //= parts
        return [SpecArray(tuple(shape), x.dtype) for _ in range(parts)]
    return [np.ascontiguousarray(c) for c in np.split(x, parts, axis=axis)]


def _concat_axis(chunks: List[Payload], axis: int, what: str) -> Payload:
    """Concatenate along ``axis``, validating every non-concat dimension in
    both modes (numpy rejects mismatches; spec mode must too)."""
    first = chunks[0]
    if first.ndim == 0:
        raise ValueError(f"{what}: zero-dimensional payloads cannot be concatenated")
    for c in chunks[1:]:
        if c.ndim != first.ndim or any(
            c.shape[d] != first.shape[d]
            for d in range(first.ndim) if d != axis % first.ndim
        ):
            raise ValueError(
                f"{what}: mismatched non-concat dims along axis {axis}: "
                f"{sorted({tuple(c.shape) for c in chunks})}"
            )
    if is_spec(first):
        shape = list(first.shape)
        shape[axis] = sum(c.shape[axis] for c in chunks)
        dtype = np.result_type(*[c.dtype for c in chunks])
        return SpecArray(tuple(shape), dtype)
    return np.concatenate(chunks, axis=axis)


class Communicator:
    """One rank's handle on a process group."""

    def __init__(self, group: ProcessGroup, global_rank: int) -> None:
        self.group = group
        self.global_rank = global_rank
        self.rank = group.local_rank(global_rank)
        self.size = group.size

    def _spec(self, op: str, payload: Any, **params: Any) -> Any:
        """This rank's :class:`~repro.sanitize.spec.CollectiveSpec` of a
        call, or None when no sanitizer is installed."""
        san = self.group.runtime.sanitizer
        return None if san is None else san.make_spec(op, payload, self, **params)

    # -- construction ------------------------------------------------------

    @staticmethod
    def world(ctx: Any) -> "Communicator":
        """Communicator over all ranks of the running SPMD program."""
        return Communicator(ctx.runtime.world_group, ctx.rank)

    def split(self, color: int, key: int = 0) -> "Communicator":
        """MPI_Comm_split: ranks with equal ``color`` form a subgroup ordered
        by ``(key, global rank)``.  Collective over the parent group."""

        def finalize(payloads: Dict[int, Any]):
            results: Dict[int, Any] = {}
            groups: Dict[int, List] = {}
            for local, (c, k) in payloads.items():
                groups.setdefault(c, []).append((k, self.group.global_rank(local)))
            membership: Dict[int, List[int]] = {}
            for c, members in groups.items():
                membership[c] = [g for _, g in sorted(members)]
            for local, (c, _k) in payloads.items():
                results[local] = membership[c]
            return results, CollectiveCost(self.group.cost_model.alpha, 0), "split", 1

        spec = self._spec("split", None)
        ranks = self.group.rendezvous(
            self.global_rank, (color, key), finalize, spec
        )
        return Communicator(self.group.runtime.group(ranks), self.global_rank)

    def subgroup(self, local_ranks: Sequence[int]) -> "Communicator":
        """Communicator over a subset of this group (must include self)."""
        ranks = [self.group.global_rank(lr) for lr in local_ranks]
        return Communicator(self.group.runtime.group(ranks), self.global_rank)

    # -- collectives ---------------------------------------------------------

    def _allreduce_round(self, x: Payload, op: ReduceOp):
        """Finalize closure + sanitizer spec for an all_reduce round; shared
        by the blocking and nonblocking entry points so both price and
        combine identically."""
        _check_reduce_op(op, "all_reduce")

        def finalize(payloads: Dict[int, Payload]):
            _check_same_shape(payloads, "all_reduce")
            pool = self.group.runtime.buffer_pool
            combined = _combine(payloads, op, pool)
            cost = self.group.cost_model.allreduce(self.group.ranks, int(x.nbytes))
            if is_spec(combined) or pool is None:
                results = {
                    i: (combined if i == 0 or is_spec(combined)
                        else combined.copy())
                    for i in payloads
                }
            else:
                results = {
                    i: (combined if i == 0
                        else _pooled_copy(combined, pool, "all_reduce:result"))
                    for i in payloads
                }
            return results, cost, "all_reduce", x.dtype.itemsize

        spec = self._spec("all_reduce", x, reduce_op=op)
        return finalize, spec

    def all_reduce(self, x: Payload, op: ReduceOp = "sum") -> Payload:
        """Reduce across the group; every rank receives the full result."""
        finalize, spec = self._allreduce_round(x, op)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def iallreduce(self, x: Payload, op: ReduceOp = "sum") -> "WorkHandle":
        """Nonblocking :meth:`all_reduce`: the round runs on the group's comm
        stream; ``wait()`` on the returned handle delivers this rank's result
        and max-joins its compute clock to the completion time."""
        finalize, spec = self._allreduce_round(x, op)
        return self.group.rendezvous_async(self.global_rank, x, finalize, spec)

    def all_reduce_members(self, xs: Sequence[Payload],
                           op: ReduceOp = "sum") -> List[Payload]:
        """:meth:`all_reduce` for every member of the group at once, from
        the calling thread: ``xs[i]`` is local rank ``i``'s payload and the
        results come back in local-rank order.  For programs that run a
        group's symmetric ranks on one thread (a serving replica); the round
        is priced and recorded like the threaded one
        (:meth:`ProcessGroup.rendezvous_members`)."""
        if len(xs) != self.size:
            raise ValueError(
                f"all_reduce_members: {len(xs)} payloads for a group of "
                f"{self.size}"
            )
        finalize, _ = self._allreduce_round(xs[0], op)
        group = self.group
        specs = None if group.runtime.sanitizer is None else {
            i: Communicator(group, g)._spec("all_reduce", x, reduce_op=op)
            for i, (g, x) in enumerate(zip(group.ranks, xs))
        }
        results = group.rendezvous_members(dict(enumerate(xs)), finalize, specs)
        return [results[i] for i in range(self.size)]

    def _allgather_round(self, x: Payload, axis: int):
        def finalize(payloads: Dict[int, Payload]):
            chunks = [payloads[i] for i in sorted(payloads)]
            gathered = _concat_axis(chunks, axis, "all_gather")
            cost = self.group.cost_model.allgather(self.group.ranks, int(x.nbytes))
            results = {
                i: (gathered if i == 0 or is_spec(gathered) else gathered.copy())
                for i in payloads
            }
            return results, cost, "all_gather", x.dtype.itemsize

        spec = self._spec("all_gather", x, axis=axis)
        return finalize, spec

    def all_gather(self, x: Payload, axis: int = 0) -> Payload:
        """Concatenate every rank's payload along ``axis``; all ranks receive
        the concatenation (in local-rank order)."""
        finalize, spec = self._allgather_round(x, axis)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def iall_gather(self, x: Payload, axis: int = 0) -> "WorkHandle":
        """Nonblocking :meth:`all_gather` (see :meth:`iallreduce`)."""
        finalize, spec = self._allgather_round(x, axis)
        return self.group.rendezvous_async(self.global_rank, x, finalize, spec)

    def _reduce_scatter_round(self, x: Payload, axis: int, op: ReduceOp):
        _check_reduce_op(op, "reduce_scatter")

        def finalize(payloads: Dict[int, Payload]):
            _check_same_shape(payloads, "reduce_scatter")
            # combined is adopted out of the pool by _combine: the scattered
            # chunks are axis-0 *views* of it, so it must never be restocked
            combined = _combine(payloads, op, self.group.runtime.buffer_pool)
            chunks = _split_axis(combined, self.size, axis, "reduce_scatter")
            cost = self.group.cost_model.reduce_scatter(self.group.ranks, int(x.nbytes))
            return dict(enumerate(chunks)), cost, "reduce_scatter", x.dtype.itemsize

        spec = self._spec("reduce_scatter", x, reduce_op=op, axis=axis)
        return finalize, spec

    def reduce_scatter(self, x: Payload, axis: int = 0, op: ReduceOp = "sum") -> Payload:
        """Reduce across the group, then scatter the result: rank i receives
        the i-th chunk of the reduction along ``axis``."""
        finalize, spec = self._reduce_scatter_round(x, axis, op)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def ireduce_scatter(self, x: Payload, axis: int = 0,
                        op: ReduceOp = "sum") -> "WorkHandle":
        """Nonblocking :meth:`reduce_scatter` (see :meth:`iallreduce`)."""
        finalize, spec = self._reduce_scatter_round(x, axis, op)
        return self.group.rendezvous_async(self.global_rank, x, finalize, spec)

    def broadcast(self, x: Optional[Payload], root: int = 0) -> Payload:
        """Send root's payload to every rank (``root`` is a local rank)."""

        def finalize(payloads: Dict[int, Payload]):
            src = payloads[root]
            if src is None:
                raise ValueError("broadcast: root payload is None")
            cost = self.group.cost_model.broadcast(self.group.ranks, int(src.nbytes))
            results = {
                i: (src if i == root or is_spec(src) else src.copy())
                for i in payloads
            }
            return results, cost, "broadcast", src.dtype.itemsize

        spec = self._spec("broadcast", x, root=root)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def reduce(self, x: Payload, root: int = 0, op: ReduceOp = "sum") -> Optional[Payload]:
        """Reduce to the local rank ``root``; other ranks receive ``None``."""
        _check_reduce_op(op, "reduce")

        def finalize(payloads: Dict[int, Payload]):
            _check_same_shape(payloads, "reduce")
            combined = _combine(payloads, op, self.group.runtime.buffer_pool)
            cost = self.group.cost_model.reduce(self.group.ranks, int(x.nbytes))
            results: Dict[int, Optional[Payload]] = {i: None for i in payloads}
            results[root] = combined
            return results, cost, "reduce", x.dtype.itemsize

        spec = self._spec("reduce", x, reduce_op=op, root=root)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def scatter(self, x: Optional[Payload], root: int = 0, axis: int = 0) -> Payload:
        """Split root's payload into ``size`` chunks along ``axis``; rank i
        receives chunk i."""

        def finalize(payloads: Dict[int, Payload]):
            src = payloads[root]
            if src is None:
                raise ValueError("scatter: root payload is None")
            chunks = _split_axis(src, self.size, axis, "scatter")
            cost = self.group.cost_model.scatter(
                self.group.global_rank(root), self.group.ranks, int(chunks[0].nbytes)
            )
            return dict(enumerate(chunks)), cost, "scatter", src.dtype.itemsize

        spec = self._spec("scatter", x, root=root, axis=axis)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def gather(self, x: Payload, root: int = 0, axis: int = 0) -> Optional[Payload]:
        """Concatenate payloads on local rank ``root``; others get ``None``."""

        def finalize(payloads: Dict[int, Payload]):
            chunks = [payloads[i] for i in sorted(payloads)]
            gathered = _concat_axis(chunks, axis, "gather")
            cost = self.group.cost_model.gather(
                self.group.global_rank(root), self.group.ranks, int(x.nbytes)
            )
            results: Dict[int, Optional[Payload]] = {i: None for i in payloads}
            results[root] = gathered
            return results, cost, "gather", x.dtype.itemsize

        spec = self._spec("gather", x, root=root, axis=axis)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def all_to_all(self, chunks: List[Payload]) -> List[Payload]:
        """Personalized exchange: rank i sends ``chunks[j]`` to rank j and
        receives rank j's ``chunks[i]``."""
        if len(chunks) != self.size:
            raise ValueError(
                f"all_to_all needs {self.size} chunks, got {len(chunks)}"
            )
        nbytes_local = sum(int(c.nbytes) for c in chunks)

        def finalize(payloads: Dict[int, List[Payload]]):
            results = {
                i: [payloads[j][i] for j in sorted(payloads)] for i in payloads
            }
            cost = self.group.cost_model.all_to_all(self.group.ranks, nbytes_local)
            return results, cost, "all_to_all", chunks[0].dtype.itemsize

        spec = self._spec("all_to_all", None, nchunks=len(chunks))
        return self.group.rendezvous(self.global_rank, chunks, finalize, spec)

    def barrier(self) -> None:
        def finalize(payloads: Dict[int, Any]):
            cost = self.group.cost_model.barrier(self.group.ranks)
            return {i: None for i in payloads}, cost, "barrier", 1

        spec = self._spec("barrier", None)
        self.group.rendezvous(self.global_rank, None, finalize, spec)

    def ring_pass(self, x: Payload, shift: int = 1) -> Payload:
        """One ring rotation: send to ``(rank+shift) % size``, receive from
        ``(rank-shift) % size``.  All transfers overlap, so the step costs
        the slowest ring edge."""

        def finalize(payloads: Dict[int, Payload]):
            p = self.size
            results = {i: payloads[(i - shift) % p] for i in payloads}
            cm = self.group.cost_model
            seconds = 0.0
            wire = 0
            for i in sorted(payloads):
                src = self.group.global_rank(i)
                dst = self.group.global_rank((i + shift) % p)
                c = cm.p2p(src, dst, int(payloads[i].nbytes))
                seconds = max(seconds, c.seconds)
                wire += c.wire_bytes
            cost = CollectiveCost(seconds, wire)
            return results, cost, "ring_pass", x.dtype.itemsize

        spec = self._spec("ring_pass", x, shift=shift)
        return self.group.rendezvous(self.global_rank, x, finalize, spec)

    def all_gather_object(self, obj: Any) -> List[Any]:
        """Control-plane allgather of small Python objects (OOM flags, batch
        search results).  Charged a nominal wire size."""

        def finalize(payloads: Dict[int, Any]):
            ordered = [payloads[i] for i in sorted(payloads)]
            cost = self.group.cost_model.allgather(self.group.ranks, _OBJECT_NBYTES)
            return {i: list(ordered) for i in payloads}, cost, "all_gather_object", 1

        spec = self._spec("all_gather_object", None)
        return self.group.rendezvous(self.global_rank, obj, finalize, spec)

    # -- point-to-point ---------------------------------------------------------

    def _deliver(self, x: Payload, dst: int, tag: Any,
                 kind: str) -> Optional[WorkHandle]:
        """Send ``x`` to local rank ``dst`` and return the wait handle of an
        isend (None for a blocking send).

        ``kind`` is ``"ps"`` (blocking: the sender's clock is charged the
        transfer now), ``"pse"`` (eager isend: charged on ``wait``) or
        ``"pss"`` (stream isend: the transfer occupies the sender's p2p
        stream from max(issue time, stream tail) and the clock is not
        charged).  Each dropped/corrupted attempt first charges the failed
        transfer plus backoff to the sender's clock and counts the
        retransmitted bytes; a permanently dead link exhausts the retry
        budget and raises :class:`CollectiveTimeout`.
        """
        group = self.group
        src_g = self.global_rank
        dst_g = group.global_rank(dst)
        runtime = group.runtime
        clock = runtime.clocks[src_g]
        obs = runtime.observers
        t0 = clock.time
        start = max(t0, group._p2p_tails[src_g])
        cost = group.cost_model.p2p(src_g, dst_g, int(x.nbytes))
        injector = runtime.fault_injector
        if injector is not None:
            injector.check_time_crash(src_g, clock.time)
            policy = runtime.retry_policy
            failures = 0
            while True:
                verdict = injector.p2p_verdict(src_g, dst_g)
                if verdict == "deliver":
                    break
                failures += 1
                t_try = clock.time
                clock.advance(cost.seconds + policy.backoff(failures), "comm")
                if obs is not None:
                    obs.p2p_retry(src_g, dst_g, failures, verdict, t_try,
                                  clock.time)
                group.counters.record_retry(
                    "p2p", cost.wire_bytes, int(x.size)
                )
                if failures > policy.max_retries:
                    raise CollectiveTimeout(
                        "p2p", (src_g, dst_g), attempts=failures
                    )
        group.counters.record("p2p", cost.wire_bytes, int(x.size))
        handle: Optional[WorkHandle] = None
        if kind == "pss":
            # injected retransmissions above advanced the clock, so the max
            # keeps availability consistent with the charged retries
            t0 = max(start, clock.time)
            t1 = t_avail = t0 + cost.seconds
            group._p2p_tails[src_g] = t1
            runtime.comm_streams[src_g].occupy(t0, t1)
            handle = StreamSendHandle(self, t1, cost.seconds)
        else:
            t_avail = clock.time + cost.seconds
            if kind == "ps":
                clock.advance(cost.seconds, "comm")
            else:
                handle = Request(kind="send", comm=self, seconds=cost.seconds)
            t1 = clock.time
        payload = x if is_spec(x) else x.copy()
        key = (src_g, dst_g, group, tag)
        if obs is not None:
            obs.sent(kind, key, payload, cost, t0, t1, handle)
        runtime.mailboxes.put(key, (payload, t_avail))
        return handle

    def send(self, x: Payload, dst: int, tag: Any = 0) -> None:
        """Send ``x`` to local rank ``dst``.  Returns once the payload is
        enqueued; the sender's clock is charged the full transfer (eager
        synchronous model), plus retransmissions under injected faults."""
        self._deliver(x, dst, tag, "ps")

    def recv(self, src: int, tag: Any = 0) -> Payload:
        """Blocking receive from local rank ``src``."""
        src_g = self.group.global_rank(src)
        dst_g = self.global_rank
        runtime = self.group.runtime
        clock = runtime.clocks[dst_g]
        if runtime.fault_injector is not None:
            runtime.fault_injector.check_time_crash(dst_g, clock.time)
        t0 = clock.time
        key = (src_g, dst_g, self.group, tag)
        payload, t_avail = runtime.mailboxes.get(key, runtime.aborting)
        clock.sync_to(t_avail, "comm")
        obs = runtime.observers
        if obs is not None:
            obs.received(key, payload, t0, clock.time)
        return payload

    def sendrecv(self, x: Payload, dst: int, src: int, tag: Any = 0) -> Payload:
        """Combined send+recv (deadlock-free pairwise exchange)."""
        self.send(x, dst, tag)
        return self.recv(src, tag)

    def isend(self, x: Payload, dst: int, tag: Any = 0) -> WorkHandle:
        """Non-blocking send (mpi4py style).

        With ``runtime.comm_overlap`` enabled the transfer runs on the
        sender's p2p comm stream: it starts at max(issue time, stream tail),
        the sender's clock is not charged, and ``wait()`` max-joins to the
        transfer completion (charging only the exposed remainder).  With
        overlap disabled the legacy eager semantics apply: the payload is
        immediately available and the sender's clock is charged the full
        transfer on ``wait()`` (retransmission charges land immediately).
        """
        kind = "pss" if self.group.runtime.comm_overlap else "pse"
        return self._deliver(x, dst, tag, kind)

    def irecv(self, src: int, tag: Any = 0) -> "Request":
        """Non-blocking receive; ``wait()`` blocks until the message lands."""
        return Request(kind="recv", comm=self, src=src, tag=tag)

    def __repr__(self) -> str:
        return (f"Communicator(rank={self.rank}/{self.size}, "
                f"group={self.group.ranks})")


class StreamSendHandle(WorkHandle):
    """Handle for an overlap-mode ``isend`` running on the sender's p2p
    stream; ``wait()`` max-joins the sender's clock to transfer completion."""

    __slots__ = ("_comm", "_t_end", "_seconds", "_done")

    def __init__(self, comm: "Communicator", t_end: float,
                 seconds: float) -> None:
        self._comm = comm
        self._t_end = t_end
        self._seconds = seconds
        self._done = False

    def test(self) -> bool:
        # the payload is enqueued at issue; completion is purely a simulated-
        # time question, answered at wait()
        return True

    def wait(self) -> None:
        if self._done:
            return None
        runtime = self._comm.group.runtime
        rank = self._comm.global_rank
        t_wait, exposed, overlapped = max_join(
            runtime.clocks[rank], runtime.comm_streams[rank],
            self._comm.group.counters, "p2p", self._t_end, self._seconds)
        obs = runtime.observers
        if obs is not None:
            obs.stream_waited(rank, self, t_wait, self._t_end, exposed,
                              overlapped)
        self._done = True
        return None


class Request(WorkHandle):
    """Handle for a non-blocking operation (``Request.wait`` completes it)."""

    def __init__(self, kind: str, comm: "Communicator", seconds: float = 0.0,
                 src: int = -1, tag: Any = 0) -> None:
        self._kind = kind
        self._comm = comm
        self._seconds = seconds
        self._src = src
        self._tag = tag
        self._done = False
        self._result: Optional[Payload] = None

    def test(self) -> bool:
        """True once the operation can complete without blocking."""
        if self._done or self._kind == "send":
            return True
        comm = self._comm
        key = (comm.group.global_rank(self._src), comm.global_rank,
               comm.group, self._tag)
        mailboxes = comm.group.runtime.mailboxes
        with mailboxes._cond:
            return bool(mailboxes._boxes.get(key))

    def wait(self) -> Optional[Payload]:
        """Complete the op: send charges the transfer time, recv blocks for
        and returns the payload."""
        if self._done:
            return self._result
        if self._kind == "send":
            runtime = self._comm.group.runtime
            rank = self._comm.global_rank
            runtime.clocks[rank].advance(self._seconds, "comm")
            obs = runtime.observers
            if obs is not None:
                obs.eager_waited(rank, self._seconds)
        else:
            self._result = self._comm.recv(self._src, self._tag)
        self._done = True
        return self._result
