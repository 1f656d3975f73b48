"""Outside-in layer tracer for the benchmark's traced run.

:meth:`LayerTracer.install` replaces public functions and methods of the
``repro`` modules with thin wrappers; :meth:`LayerTracer.uninstall` puts
the originals back.  Nothing in ``src/repro`` is edited and the timed run
never installs the wrappers.

Each wrapper records a span (family name, start, end, parent span, op id)
on the calling thread.  Per-thread accumulators keep, for every family:

* ``calls`` -- outermost calls of the family (a family nested in itself,
  such as ``CostModel.gather`` calling ``CostModel.scatter``, counts once);
* ``s`` -- time inside the family's outermost spans;
* ``self_s`` -- ``s`` minus the time of nested spans of other families.

Rendezvous wait is attributed by matching rounds: a round is one
``(process group, per-rank call index)`` pair, and a rank's wait is the
time from its own entry until the last member entered.  Spans of the first
:attr:`LayerTracer.keep_span_ops` ops are kept for the JSON dump; later
ops only feed the accumulators.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class _ThreadState:
    __slots__ = ("name", "stack", "depth", "totals", "spans", "entries",
                 "round_index", "wire_bytes", "retries", "extra")

    def __init__(self, name: str) -> None:
        self.name = name
        #: open frames: [family, start, child_seconds, span_index]
        self.stack: List[list] = []
        #: family -> open nesting depth on this thread
        self.depth: Dict[str, int] = {}
        #: family -> [calls, s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        #: (group, round index, enter) per blocking rendezvous; holding the
        #: group keeps its id unique until the op is collected
        self.entries: List[tuple] = []
        #: id(group) -> calls made on it by this thread (== round seq)
        self.round_index: Dict[int, int] = {}
        self.wire_bytes = 0
        self.retries = 0
        #: free-form per-thread counters filled by observers
        self.extra: Dict[str, float] = {}


class LayerTracer:
    """Wrap the simulator's layer boundaries and aggregate per op."""

    def __init__(self, keep_span_ops: int = 2) -> None:
        self.keep_span_ops = keep_span_ops
        self.op_id = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.spans: List[dict] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, family: str) -> Tuple[_ThreadState, list]:
        st = self._state()
        parent = st.stack[-1][3] if st.stack else -1
        idx = -1
        if self.op_id < self.keep_span_ops:
            idx = len(st.spans)
            st.spans.append([family, 0.0, 0.0, parent, self.op_id])
        frame = [family, _now(), 0.0, idx]
        st.stack.append(frame)
        st.depth[family] = st.depth.get(family, 0) + 1
        return st, frame

    def _exit(self, st: _ThreadState, frame: list, counted: bool) -> None:
        end = _now()
        family, start, child, idx = frame
        st.stack.pop()
        dur = end - start
        depth = st.depth[family] - 1
        st.depth[family] = depth
        tot = st.totals.get(family)
        if tot is None:
            tot = st.totals[family] = [0, 0.0, 0.0]
        if depth == 0:
            tot[0] += counted
            tot[1] += dur
        tot[2] += dur - child
        if st.stack:
            st.stack[-1][2] += dur
        if idx >= 0:
            span = st.spans[idx]
            span[1], span[2] = start, end

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner: Any, attr: str, family: str, counted: bool = True,
             before: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``owner.attr`` (a function, method, staticmethod or
        classmethod) in a ``family`` span.  ``counted=False`` adds the
        time but not the call.  ``before(state, args)`` runs ahead of the
        call and ``after(state, args, result, token)`` after a return,
        ``token`` being what ``before`` returned."""
        raw = owner.__dict__[attr]
        kind = type(raw)
        fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(tracer._state(), args) if before else None
            st, frame = tracer._enter(family)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame, counted)
            if after is not None:
                after(st, args, result, token)
            return result

        self._patch(owner, attr, kind(wrapper) if kind in
                    (staticmethod, classmethod) else wrapper)

    def observe(self, owner: Any, attr: str,
                before: Callable[..., None]) -> None:
        """Call ``before(state, args, kwargs)`` ahead of ``owner.attr``
        without opening a span (exact counters)."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before(tracer._state(), args, kwargs)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_rendezvous(self, owner: Any, attr: str, blocking: bool) -> None:
        """Wrap a ``ProcessGroup`` rendezvous entry point: a
        ``comm.rendezvous`` span plus the round bookkeeping the wait
        attribution needs."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(group: Any, *args: Any, **kwargs: Any) -> Any:
            st, frame = tracer._enter("comm.rendezvous")
            key = id(group)
            seq = st.round_index.get(key, 0)
            st.round_index[key] = seq + 1
            try:
                return fn(group, *args, **kwargs)
            finally:
                tracer._exit(st, frame, True)
                if blocking:
                    st.entries.append((group, seq, frame[1]))

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- per-op aggregation ---------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """Fold every thread's accumulators for the op that just ended into
        one record and reset them; call once per op, after it returned."""
        with self._lock:
            states = list(self._states)
            me = getattr(self._tls, "st", None)
            self._states = [me] if me is not None else []
        fam: Dict[str, List[float]] = {}
        rounds: Dict[Tuple[int, int], List[float]] = {}
        wire = retries = 0
        extra: Dict[str, float] = {}
        for st in states:
            for name, (c, s, self_s) in st.totals.items():
                acc = fam.setdefault(name, [0, 0.0, 0.0])
                acc[0] += c
                acc[1] += s
                acc[2] += self_s
            for group, seq, enter in st.entries:
                rounds.setdefault((id(group), seq), []).append(enter)
            wire += st.wire_bytes
            retries += st.retries
            for k, v in st.extra.items():
                extra[k] = extra.get(k, 0.0) + v
            base = len(self.spans)
            for i, (name, start, end, parent, op) in enumerate(st.spans):
                self.spans.append({
                    "id": base + i,
                    "name": name, "start": start, "end": end,
                    "parent": base + parent if parent >= 0 else None,
                    "op": op, "thread": st.name,
                })
            st.totals = {}
            st.spans = []
            st.entries = []
            st.round_index = {}
            st.wire_bytes = st.retries = 0
            st.extra = {}
        wait = 0.0
        for enters in rounds.values():
            last = max(enters)
            wait += sum(last - e for e in enters)
        self.op_id += 1
        return {
            "families": {k: {"calls": int(v[0]), "s": v[1], "self_s": v[2]}
                         for k, v in fam.items()},
            "rendezvous_wait_s": wait,
            "wire_bytes": wire,
            "retries": retries,
            "extra": extra,
        }
