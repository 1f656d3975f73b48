"""Which ``repro`` boundaries the traced run wraps, and the per-layer
metrics computed from what the wrappers recorded.

Each family is named after the ``src/repro`` module it times.  The
mapping from family to the end-to-end metric it should move is in
``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from tracer import LayerTracer

#: the Communicator collectives (blocking and nonblocking)
_COLLECTIVES = (
    "all_reduce", "iallreduce", "all_gather", "iall_gather", "reduce_scatter",
    "ireduce_scatter", "broadcast", "reduce", "scatter", "gather",
    "all_to_all", "barrier", "ring_pass", "all_gather_object",
)
_P2P = ("send", "recv", "sendrecv", "isend", "irecv")

#: every per-layer metric, in report order
PER_LAYER = (
    ("runtime.run.calls", "count"),
    ("runtime.run.s", "s"),
    ("runtime.pool.reuse_ratio", "ratio"),
    ("runtime.world1_op_s", "s"),
    ("comm.collective.calls", "count"),
    ("comm.rendezvous.self_s", "s"),
    ("comm.rendezvous.wait_s", "s"),
    ("comm.rendezvous.work_s", "s"),
    ("comm.async_wait.s", "s"),
    ("comm.p2p.calls", "count"),
    ("comm.p2p.s", "s"),
    ("comm.wire_bytes", "bytes"),
    ("comm.retries", "count"),
    ("comm.cost.calls", "count"),
    ("comm.cost.s", "s"),
    ("autograd.backward.calls", "count"),
    ("autograd.backward.self_s", "s"),
    ("autograd.ops.calls", "count"),
    ("autograd.ops.s", "s"),
    ("optim.step.calls", "count"),
    ("optim.step.s", "s"),
    ("cluster.mem.calls", "count"),
    ("cluster.mem.s", "s"),
    ("parallel.pipeline.self_s", "s"),
    ("parallel.ddp_sync.s", "s"),
    ("serve.scheduler.calls", "count"),
    ("serve.scheduler.self_s", "s"),
    ("serve.kvcache.calls", "count"),
    ("serve.kvcache.s", "s"),
    ("serve.steps", "count"),
    ("serve.batch_tokens.mean", "tokens"),
    ("serve.preempt_ratio", "ratio"),
    ("project.capture.s", "s"),
    ("project.replay.s", "s"),
    ("autopar.score.calls", "count"),
    ("autopar.score.self_s", "s"),
    ("autopar.refine.s", "s"),
    ("autopar.refined_ratio", "ratio"),
    ("host.calib_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: layer groups compared by self time in the design check (README)
GROUPS = {
    "autograd": ("autograd.backward", "autograd.ops"),
    "rendezvous": ("comm.rendezvous", "comm.async_wait"),
    "cost_and_score": ("comm.cost", "autopar.score"),
    "p2p": ("comm.p2p",),
    "collective": ("comm.collective",),
    "optim": ("optim.step",),
    "cluster": ("cluster.mem",),
    "parallel": ("parallel.pipeline", "parallel.ddp_sync"),
    "serve": ("serve.scheduler", "serve.kvcache"),
    "project": ("project.capture", "project.replay"),
    "autopar_refine": ("autopar.refine",),
}


def _public_methods(cls: Any) -> List[str]:
    return [n for n, v in vars(cls).items()
            if not n.startswith("_") and callable(v)]


def install(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import importlib

    import repro.project as rp
    from repro.autograd.function import Function
    from repro.autopar import compiler
    from repro.cluster.device import MemoryPool
    from repro.comm.communicator import Communicator, Request, StreamSendHandle
    from repro.comm.cost import CostModel
    from repro.comm.counters import CommCounters
    from repro.comm.group import AsyncCollectiveHandle, ProcessGroup
    from repro.optim.hybrid_adam import HybridAdam
    from repro.optim.optimizer import Optimizer
    from repro.parallel import data as par_data
    from repro.parallel.pipeline.schedule import (
        GPipeSchedule, OneFOneBSchedule,
    )
    from repro.project.fabric import ProjectedCostModel
    from repro.runtime.spmd import SpmdRuntime, current_rank_context, in_spmd
    from repro.serve.kvcache import BlockPool
    from repro.serve.scheduler import ContinuousBatchingScheduler

    def pool_before(st: Any, args: Any) -> Any:
        pool = args[0].buffer_pool
        return (pool.loans, pool.reuses) if pool is not None else (0, 0)

    def pool_after(st: Any, args: Any, result: Any, token: Any) -> None:
        pool = args[0].buffer_pool
        if pool is not None:
            _add(st.extra, "pool_loans", pool.loans - token[0])
            _add(st.extra, "pool_reuses", pool.reuses - token[1])

    tracer.wrap(SpmdRuntime, "run", "runtime.run",
                before=pool_before, after=pool_after)

    for name in _COLLECTIVES:
        tracer.wrap(Communicator, name, "comm.collective")
    tracer.wrap_rendezvous(ProcessGroup, "rendezvous", blocking=True)
    tracer.wrap_rendezvous(ProcessGroup, "rendezvous_async", blocking=False)
    tracer.wrap(AsyncCollectiveHandle, "wait", "comm.async_wait")
    for name in _P2P:
        tracer.wrap(Communicator, name, "comm.p2p")
    tracer.wrap(Request, "wait", "comm.p2p", counted=False)
    tracer.wrap(StreamSendHandle, "wait", "comm.p2p", counted=False)

    def on_record(st: Any, args: Any, kwargs: Any) -> None:
        st.wire_bytes += args[2]

    def on_retry(st: Any, args: Any, kwargs: Any) -> None:
        st.wire_bytes += args[2]
        st.retries += args[4] if len(args) > 4 else kwargs.get("attempts", 1)

    tracer.observe(CommCounters, "record", on_record)
    tracer.observe(CommCounters, "record_retry", on_retry)
    for cls in (CostModel, ProjectedCostModel):
        for name in _public_methods(cls):
            tracer.wrap(cls, name, "comm.cost")

    # ``repro.autograd`` re-exports a function named ``checkpoint`` that
    # shadows the submodule of that name
    engine = importlib.import_module("repro.autograd.engine")
    checkpoint = importlib.import_module("repro.autograd.checkpoint")
    tracer.wrap(Function, "apply", "autograd.ops")
    tracer.wrap(engine, "backward", "autograd.backward")
    tracer.wrap(checkpoint, "run_backward", "autograd.backward")
    tracer.wrap(Optimizer, "step", "optim.step")
    tracer.wrap(HybridAdam, "step", "optim.step")
    tracer.wrap(MemoryPool, "alloc", "cluster.mem")
    tracer.wrap(MemoryPool, "free_bytes", "cluster.mem")
    tracer.wrap(GPipeSchedule, "run", "parallel.pipeline")
    tracer.wrap(OneFOneBSchedule, "run", "parallel.pipeline")
    tracer.wrap(par_data, "sync_gradients", "parallel.ddp_sync")
    tracer.wrap(par_data.DistributedDataParallel, "sync", "parallel.ddp_sync")

    def on_plan(st: Any, args: Any, plan: Any, token: Any) -> None:
        # serving iterations and their batch size, counted on rank 0 only
        if in_spmd() and current_rank_context().rank == 0:
            _add(st.extra, "serve_steps", 1)
            if plan.new_tokens:
                _add(st.extra, "serve_batches", 1)
                _add(st.extra, "serve_batch_tokens", plan.new_tokens)

    tracer.wrap(ContinuousBatchingScheduler, "step", "serve.scheduler",
                after=on_plan)
    tracer.wrap(ContinuousBatchingScheduler, "apply", "serve.scheduler",
                counted=False)
    for name in ("appended", "free_sequence", "release"):
        tracer.wrap(BlockPool, name, "serve.kvcache")

    tracer.wrap(rp, "capture_run", "project.capture")
    tracer.wrap(rp, "project", "project.replay")
    tracer.wrap(rp, "price_plan", "project.replay")
    tracer.wrap(compiler, "score_candidate", "autopar.score")
    tracer.wrap(compiler, "refine_candidate", "autopar.refine")


def _add(d: Dict[str, float], key: str, v: float) -> None:
    d[key] = d.get(key, 0.0) + v


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(rec: Dict[str, Any], outputs: Dict[str, Any]
               ) -> Dict[str, float]:
    """Per-layer metrics of one traced op (``rec`` from
    :meth:`LayerTracer.collect`, ``outputs`` the op's simulated outputs).
    ``runtime.world1_op_s``, ``host.calib_s`` and ``trace.overhead_ratio``
    are whole-run figures the caller adds."""
    fam = rec["families"]
    ex = rec["extra"]

    def f(name: str, key: str) -> float:
        return fam.get(name, {}).get(key, 0)

    rdv_self = f("comm.rendezvous", "self_s")
    wait = rec["rendezvous_wait_s"]
    return {
        "runtime.run.calls": f("runtime.run", "calls"),
        "runtime.run.s": f("runtime.run", "s"),
        "runtime.pool.reuse_ratio": _ratio(ex.get("pool_reuses", 0),
                                           ex.get("pool_loans", 0)),
        "comm.collective.calls": f("comm.collective", "calls"),
        "comm.rendezvous.self_s": rdv_self,
        "comm.rendezvous.wait_s": wait,
        "comm.rendezvous.work_s": rdv_self - wait,
        "comm.async_wait.s": f("comm.async_wait", "s"),
        "comm.p2p.calls": f("comm.p2p", "calls"),
        "comm.p2p.s": f("comm.p2p", "s"),
        "comm.wire_bytes": rec["wire_bytes"],
        "comm.retries": rec["retries"],
        "comm.cost.calls": f("comm.cost", "calls"),
        "comm.cost.s": f("comm.cost", "s"),
        "autograd.backward.calls": f("autograd.backward", "calls"),
        "autograd.backward.self_s": f("autograd.backward", "self_s"),
        "autograd.ops.calls": f("autograd.ops", "calls"),
        "autograd.ops.s": f("autograd.ops", "s"),
        "optim.step.calls": f("optim.step", "calls"),
        "optim.step.s": f("optim.step", "s"),
        "cluster.mem.calls": f("cluster.mem", "calls"),
        "cluster.mem.s": f("cluster.mem", "s"),
        "parallel.pipeline.self_s": f("parallel.pipeline", "self_s"),
        "parallel.ddp_sync.s": f("parallel.ddp_sync", "s"),
        "serve.scheduler.calls": f("serve.scheduler", "calls"),
        "serve.scheduler.self_s": f("serve.scheduler", "self_s"),
        "serve.kvcache.calls": f("serve.kvcache", "calls"),
        "serve.kvcache.s": f("serve.kvcache", "s"),
        "serve.steps": ex.get("serve_steps", 0),
        "serve.batch_tokens.mean": _ratio(ex.get("serve_batch_tokens", 0),
                                          ex.get("serve_batches", 0)),
        "serve.preempt_ratio": _ratio(outputs.get("preemptions", 0),
                                      outputs.get("issued", 0)),
        "project.capture.s": f("project.capture", "s"),
        "project.replay.s": f("project.replay", "s"),
        "autopar.score.calls": f("autopar.score", "calls"),
        "autopar.score.self_s": f("autopar.score", "self_s"),
        "autopar.refine.s": f("autopar.refine", "s"),
        "autopar.refined_ratio": _ratio(f("autopar.refine", "calls"),
                                        f("autopar.score", "calls")),
    }


def group_self_seconds(recs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median per-op self seconds of each :data:`GROUPS` entry."""
    out = {}
    for group, fams in GROUPS.items():
        out[group] = statistics.median(
            sum(r["families"].get(fm, {}).get("self_s", 0.0) for fm in fams)
            for r in recs)
    return out
