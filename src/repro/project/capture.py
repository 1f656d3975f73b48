"""Per-rank op-stream capture for projection.

A :class:`CaptureRecorder` is a runtime observer
(:mod:`repro.runtime.observer`) that records, per rank, the ordered stream
of *simulated-time effects* the program produced:

* non-comm clock advances with the **exact** post-slowdown ``dt`` — so a
  replay reproduces every clock reading bit-for-bit, which ``t1 - t0``
  cannot under IEEE-754 — and non-comm forward syncs (serving's idle and
  recovery waits) with their absolute target time;
* collective participation events keyed by ``(group, seq)``, with the
  round's finalize facts (op, priced cost, per-rank payload sizes,
  algorithm) stored once in a shared rounds table;
* point-to-point sends/receives and stream-send issue/wait pairs, carrying
  the priced cost inline.

All ``comm``-category clock movement is *excluded* from the advance stream:
it is regenerated by the replay engine from the collective/p2p events, which
is what lets :func:`repro.project.project` re-price the same op stream for a
different world size or fabric.

Capture is incompatible with fault injection (injected retries and
slowdowns are host-nondeterministic control flow the trace does not model);
:meth:`CaptureRecorder.install` rejects a runtime with an injector armed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.observer import Observer

# Event tags (first tuple element) in a rank's stream:
#   ("a",  category, dt, label)                     non-comm clock advance
#   ("s",  category, t)                             non-comm forward sync
#   ("c",  gid, seq)                                blocking collective
#   ("c1", gid, info)                               size-1-group collective
#   ("ic", gid, seq)                                nonblocking collective issue
#   ("cw", gid, seq)                                nonblocking collective wait
#   ("ps", gid, dst, tag, nbytes, wire, elems, s)   blocking send
#   ("pse", gid, dst, tag, nbytes, wire, elems, s)  eager isend (no overlap)
#   ("pw", seconds)                                 eager isend wait
#   ("pss", gid, sid, dst, tag, nbytes, wire, elems, s)  stream isend
#   ("psw", sid)                                    stream isend wait
#   ("pr", gid, src, tag)                           receive
Event = Tuple[Any, ...]


def _payload_nbytes(payload: Any) -> int:
    """Wire-relevant byte size of one rank's rendezvous payload: arrays /
    SpecArrays report ``nbytes``; ``all_to_all`` passes a chunk list
    (summed); control payloads (``split`` colour tuples, ``None``) are 0."""
    if payload is None:
        return 0
    if isinstance(payload, (list, tuple)):
        return sum(
            int(c.nbytes) for c in payload if hasattr(c, "nbytes")
        )
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    return 0


@dataclass
class OpTrace:
    """Immutable-by-convention snapshot of one captured SPMD run."""

    world_size: int
    comm_algorithm: str
    comm_overlap: bool
    island_ratio: float
    cluster: Any
    #: per-gid member tuples (global ranks)
    groups: List[Tuple[int, ...]] = field(default_factory=list)
    #: per-rank event streams
    streams: List[List[Event]] = field(default_factory=list)
    #: (gid, seq) -> round facts dict
    rounds: Dict[Tuple[int, int], Dict[str, Any]] = field(default_factory=dict)
    #: per-rank device memory peaks (bytes) at end of run
    peak_memory: List[int] = field(default_factory=list)
    #: simulated makespan of the captured run
    max_time: float = 0.0
    #: named parallel-axis layout of the captured run: axis name (``dp`` /
    #: ``tp`` / ``pp``) -> family of captured rank tuples.  Populated by
    #: :func:`repro.project.project_launch` from the Config's DP x TP x PP
    #: grid so a hybrid :class:`~repro.project.replay.ScalePlan` can
    #: resolve ``axes={...}`` by name; empty for bare ``capture_run``
    #: traces (pass explicit ``ScaleAxis.groups`` there).
    axes: Dict[str, Tuple[Tuple[int, ...], ...]] = field(default_factory=dict)

    def group_ranks(self, gid: int) -> Tuple[int, ...]:
        return self.groups[gid]

    def event_count(self) -> int:
        return sum(len(s) for s in self.streams)

    def to_golden(self) -> Dict[str, Any]:
        """Flatten the per-rank streams into the sanitizer golden-record
        format (version 1), so replay stability can be asserted with
        :func:`repro.sanitize.replay.first_divergence` and goldens saved
        with :func:`repro.sanitize.replay.save_golden`."""
        import zlib

        from repro.sanitize.replay import make_record

        streams: Dict[int, List[Dict[str, Any]]] = {}
        for rank, events in enumerate(self.streams):
            recs = []
            for ev in events:
                tag = ev[0]
                if tag == "a":
                    op = str(ev[3] or ev[1])
                    sig = f"a({ev[1]}, dt={ev[2]!r})"
                    group, seq = None, None
                elif tag in ("c", "ic", "cw"):
                    gid, seq = ev[1], ev[2]
                    rnd = self.rounds.get((gid, seq), {})
                    op = str(rnd.get("op", "collective"))
                    sig = f"{tag}(op={op}, wire={rnd.get('wire_bytes')})"
                    group = list(self.groups[gid])
                elif tag == "c1":
                    info = ev[2]
                    op, seq = str(info["op"]), None
                    sig = f"c1(op={op}, seconds={info['seconds']!r})"
                    group = list(self.groups[ev[1]])
                else:
                    op, seq, group = tag, None, None
                    sig = f"{tag}{ev[1:]!r}"
                recs.append(
                    make_record(
                        "projection", op, sig, group=group, seq=seq,
                        crc=zlib.crc32(repr(ev).encode()),
                    )
                )
            streams[rank] = recs
        return {"version": 1, "world_size": self.world_size,
                "streams": {r: s for r, s in streams.items()}}


class CaptureRecorder(Observer):
    """Records one SPMD run's per-rank op streams into an :class:`OpTrace`.

    Usage::

        rec = CaptureRecorder()
        rt = SpmdRuntime(cluster, world, capture=rec)   # or rec.install(rt)
        rt.run(fn, materialize=False)
        trace = rec.trace()
    """

    slot = "capture"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: List[List[Event]] = []
        self._rounds: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._groups: List[Tuple[int, ...]] = []
        self._gid_by_key: Dict[Tuple[int, ...], int] = {}
        self._pending_label: List[Optional[str]] = []
        self._sids: List[int] = []
        #: stream-send handle -> its per-rank id, until the handle is waited
        self._open_sends: Dict[Any, int] = {}
        self._trace: Optional[OpTrace] = None

    # -- lifecycle ---------------------------------------------------------

    def install(self, runtime: Any) -> "CaptureRecorder":
        if runtime.fault_injector is not None:
            raise RuntimeError(
                "capture cannot run under fault injection: injected retries "
                "and slowdowns are host-nondeterministic control flow the "
                "projected op stream does not model"
            )
        return super().install(runtime)

    def begin_run(self, runtime: Any) -> None:
        world = runtime.world_size
        with self._lock:
            self._streams = [[] for _ in range(world)]
            self._rounds = {}
            self._groups = []
            self._gid_by_key = {}
            self._pending_label = [None] * world
            self._sids = [0] * world
            self._open_sends = {}
            self._trace = None

    def end_run(self, runtime: Any, ok: bool) -> None:
        if not ok:
            return
        with self._lock:
            self._trace = OpTrace(
                world_size=runtime.world_size,
                comm_algorithm=runtime.comm_algorithm,
                comm_overlap=runtime.comm_overlap,
                island_ratio=runtime.comm_island_ratio,
                cluster=runtime.cluster,
                groups=list(self._groups),
                streams=[list(s) for s in self._streams],
                rounds=dict(self._rounds),
                peak_memory=[
                    runtime.cluster.device(r).memory.peak
                    for r in range(runtime.world_size)
                ],
                max_time=runtime.max_time(),
            )

    def trace(self) -> OpTrace:
        """The :class:`OpTrace` of the last completed run."""
        if self._trace is None:
            raise RuntimeError(
                "no completed capture: run the program to completion first"
            )
        return self._trace

    # -- interning ---------------------------------------------------------

    def _gid(self, group: Any) -> int:
        key = tuple(group.ranks)
        with self._lock:
            gid = self._gid_by_key.get(key)
            if gid is None:
                gid = len(self._groups)
                self._groups.append(key)
                self._gid_by_key[key] = gid
            return gid

    def note_op(self, rank: int, name: str) -> None:
        """Label the next compute advance on ``rank`` with an op name
        (called by ``Function.apply`` / the autograd engine)."""
        self._pending_label[rank] = name

    # -- observer events ---------------------------------------------------

    def clock(self, rank: int, category: str, t0: float, t1: float,
              dt: Optional[float]) -> None:
        # comm movement is regenerated by replay from the comm events
        if category == "comm":
            return
        if dt is None:
            self._streams[rank].append(("s", category, t1))
            return
        label = self._pending_label[rank]
        if label is not None:
            self._pending_label[rank] = None
        self._streams[rank].append(("a", category, dt, label))

    def round_done(self, group: Any, seq: int, rnd: Any, mode: str) -> None:
        """Round facts, written once by the finalizing thread (under the
        group's condition lock, so per-(gid, seq) writes never race).  A
        size-1 round has no shared state, so its facts ride inline on its
        ``"c1"`` event."""
        gid = self._gid(group)
        cost = rnd.cost
        nbytes = [_payload_nbytes(rnd.payloads[i]) for i in sorted(rnd.payloads)]
        if mode == "solo":
            self._streams[group.ranks[0]].append(("c1", gid, {
                "op": rnd.op,
                "seconds": cost.seconds,
                "wire_bytes": cost.wire_bytes,
                "elements": cost.wire_elements(rnd.itemsize),
                "algorithm": cost.algorithm,
                "itemsize": rnd.itemsize,
                "nbytes": nbytes,
            }))
            return
        with self._lock:
            self._rounds[(gid, seq)] = {
                "op": rnd.op,
                "mode": mode,
                "seconds": cost.seconds,
                "wire_bytes": cost.wire_bytes,
                "algorithm": cost.algorithm,
                "itemsize": rnd.itemsize,
                "nbytes": nbytes,
            }
        if mode == "sync":
            for g in group.ranks:
                self._streams[g].append(("c", gid, seq))

    def round_issued(self, rank: int, group: Any, seq: int) -> None:
        self._streams[rank].append(("ic", self._gid(group), seq))

    def round_waited(self, rank: int, group: Any, seq: int, op: str,
                     t_wait: float, t_end: float, exposed: float,
                     overlapped: float) -> None:
        self._streams[rank].append(("cw", self._gid(group), seq))

    def sent(self, kind: str, key: Any, payload: Any, cost: Any,
             t0: float, t1: float, handle: Any) -> None:
        rank, dst, group, tag = key
        facts = (dst, tag, int(payload.nbytes), cost.wire_bytes,
                 int(payload.size), cost.seconds)
        if kind == "pss":
            sid = self._sids[rank]
            self._sids[rank] = sid + 1
            self._open_sends[handle] = sid
            self._streams[rank].append(("pss", self._gid(group), sid) + facts)
        else:
            self._streams[rank].append((kind, self._gid(group)) + facts)

    def stream_waited(self, rank: int, handle: Any, t_wait: float,
                      t_end: float, exposed: float,
                      overlapped: float) -> None:
        sid = self._open_sends.pop(handle, None)
        if sid is not None:
            self._streams[rank].append(("psw", sid))

    def eager_waited(self, rank: int, seconds: float) -> None:
        self._streams[rank].append(("pw", seconds))

    def received(self, key: Any, payload: Any, t0: float, t1: float) -> None:
        src, rank, group, tag = key
        self._streams[rank].append(("pr", self._gid(group), src, tag))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = sum(len(s) for s in self._streams)
        return f"CaptureRecorder(ranks={len(self._streams)}, events={n})"
