"""The tensor-parallel serving engine on the simulated SPMD substrate.

Every rank of the runtime is one member of a single TP replica.  Its
members run identical programs, so the replica runs once, on one thread
(:meth:`SpmdRuntime.run_collapsed`): one continuous-batching scheduler
and one paged KV block pool serve every member.  Each iteration prices
one model step (prefill chunks + one decode token per running sequence)
on every member's device clock, then runs one fused tensor-parallel
all-reduce of the step's activations as a single
:meth:`ProcessGroup.rendezvous_members` round for all members — so
decode latency carries the comm cost model (algorithm, topology,
islands), fault verdicts, counters, sanitizer and trace spans exactly as
a threaded blocking rendezvous would, and the round re-synchronizes
every member's clock.  Every scheduling decision is a pure function of
the synced clock, the queue and the seed.

Step cost is the max of a compute term (``2 * params / tp`` FLOPs per
token through ``Device.compute_seconds``) and a memory term (one weight
read per step plus the KV context read at ``ModelSpec.hbm_bandwidth``).
The weight read amortizes over the batch — that is the continuous
batching win the goodput curves show.

Fault tolerance: an injected :class:`RankFailure` surfaces at the
all-reduce (members are checked in local-rank order), aborts the
replica, and the driver loop in :meth:`ServeEngine.run` records a typed
:class:`FailureEvent`, charges ``recovery_seconds`` of downtime to every
clock, rebuilds the outstanding workload from the completion records
(``traffic.outstanding``) and re-runs — in-flight requests lose their KV
and replay from scratch, so rank loss shows up in the report as a
p99/goodput hit, not a crash.  A crash is attributed to the crashed
rank; an error of the whole round (a permanent ``blackout`` timeout) to
local rank 0, the replica's lead.  Completion records go into a
driver-owned dict that survives restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.comm.communicator import Communicator
from repro.comm.payload import SpecArray
from repro.runtime.errors import (
    CollectiveTimeout, RankFailure, RemoteRankError,
)
from repro.serve.kvcache import BlockPool
from repro.serve.request import Request, RequestRecord
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.traffic import FailureEvent, TrafficReport


@dataclass(frozen=True)
class ModelSpec:
    """The decoder model being served, as the cost model sees it."""

    n_layers: int = 4
    hidden: int = 1024
    n_heads: int = 16
    vocab: int = 50257
    bytes_per_elem: int = 2
    #: serving-side device memory bandwidth (bytes/s); the cluster's
    #: Device models FLOPs only, and decode is bandwidth-bound
    hbm_bandwidth: float = 1.5e12

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.hidden < 1 or self.n_heads < 1:
            raise ValueError("model dimensions must be >= 1")
        if self.hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")

    @property
    def params(self) -> int:
        """Transformer decoder weights, the standard 12·L·H² estimate."""
        return 12 * self.n_layers * self.hidden * self.hidden

    def kv_bytes_per_token(self, tp: int) -> int:
        """K+V across all layers, sharded over tensor-parallel ranks."""
        return 2 * self.n_layers * self.hidden * self.bytes_per_elem // tp

    def wire_elems_per_token(self) -> int:
        """Activation elements all-reduced per token per step (the two
        Megatron row-parallel reductions per layer, fused)."""
        return 2 * self.n_layers * self.hidden

    def step_seconds(self, device: Any, new_tokens: int,
                     context_tokens: int, tp: int) -> float:
        """One serving iteration: max of compute- and bandwidth-bound."""
        if new_tokens <= 0:
            return 0.0
        flops = 2.0 * self.params / tp * new_tokens
        t_compute = device.compute_seconds(flops, "float16")
        weight_bytes = self.params * self.bytes_per_elem / tp
        kv_bytes = context_tokens * self.kv_bytes_per_token(tp)
        t_memory = (weight_bytes + kv_bytes) / self.hbm_bandwidth
        return max(t_compute, t_memory)

    def describe(self) -> Dict[str, Any]:
        return {
            "n_layers": self.n_layers,
            "hidden": self.hidden,
            "n_heads": self.n_heads,
            "vocab": self.vocab,
            "bytes_per_elem": self.bytes_per_elem,
            "hbm_bandwidth": self.hbm_bandwidth,
        }


class ServeEngine:
    """Drives one TP replica of ``model`` through ``traffic``."""

    def __init__(self, runtime: Any, model: ModelSpec, traffic: Any, *,
                 block_size: int = 16,
                 kv_blocks: Optional[int] = None,
                 kv_fraction: float = 0.3,
                 max_batch_tokens: int = 256,
                 prefill_chunk: int = 64,
                 recovery_seconds: float = 0.5,
                 max_recoveries: int = 16,
                 gen_seed: Optional[int] = None) -> None:
        self.runtime = runtime
        self.model = model
        self.traffic = traffic
        self.block_size = int(block_size)
        self.kv_blocks = kv_blocks if kv_blocks is None else int(kv_blocks)
        self.kv_fraction = float(kv_fraction)
        self.max_batch_tokens = int(max_batch_tokens)
        self.prefill_chunk = int(prefill_chunk)
        self.recovery_seconds = float(recovery_seconds)
        self.max_recoveries = int(max_recoveries)
        seed = getattr(traffic, "seed", 0) if gen_seed is None else gen_seed
        self.gen_seed = int(seed)
        if not 0.0 < self.kv_fraction <= 1.0:
            raise ValueError(
                f"kv_fraction must be in (0, 1], got {self.kv_fraction}")

    # -- driver ----------------------------------------------------------

    def run(self) -> TrafficReport:
        records: Dict[int, RequestRecord] = {}
        failures: List[FailureEvent] = []
        restarts = 0
        while True:
            try:
                self.runtime.run_collapsed(
                    self._replica, dict(records), records,
                    materialize=False, reset_clocks=(restarts == 0),
                    seed=self.gen_seed)
                break
            except RemoteRankError as err:
                if not isinstance(err.cause, (RankFailure, CollectiveTimeout)):
                    raise
                if restarts >= self.max_recoveries:
                    raise
                restarts += 1
                t_fail = self.runtime.max_time()
                failures.append(FailureEvent(
                    t=t_fail, rank=err.rank, kind=type(err.cause).__name__))
                # replica down while the failed rank is replaced: every
                # survivor idles, and the requeued work restarts after it
                for clock in self.runtime.clocks:
                    clock.sync_to(t_fail + self.recovery_seconds, "wait")
        return TrafficReport(
            records,
            traffic=self.traffic.describe(),
            world=self.runtime.world_size,
            makespan=self.runtime.max_time(),
            restarts=restarts,
            failures=failures,
        )

    # -- the replica -----------------------------------------------------

    def _num_blocks(self, devices: List[Any], tp: int) -> int:
        """``kv_blocks``, or the most blocks every member's free memory
        holds: one pool serves the whole replica, so its smallest budget
        bounds it."""
        if self.kv_blocks is not None:
            return self.kv_blocks
        bytes_per_block = (
            self.model.kv_bytes_per_token(tp) * self.block_size)
        budget = min(int(d.memory.free * self.kv_fraction) for d in devices)
        blocks = budget // max(1, bytes_per_block)
        if blocks < 1:
            raise ValueError(
                "kv_fraction leaves no room for a single KV block "
                f"(budget={budget}B, block={bytes_per_block}B)")
        return blocks

    def _replica(self, ctx: Any, snapshot: Dict[int, RequestRecord],
                 records: Dict[int, RequestRecord]) -> None:
        """Serve the outstanding requests on the whole replica.  Runs
        once, on one thread: one scheduler and one block pool for all TP
        members."""
        model, traffic = self.model, self.traffic
        runtime = ctx.runtime
        tp = runtime.world_size
        devices = [runtime.cluster.device(r) for r in range(tp)]
        clocks = runtime.clocks
        clock = clocks[0]
        comm = Communicator(runtime.world_group, 0) if tp > 1 else None
        pool = BlockPool(
            self.block_size, self._num_blocks(devices, tp),
            memories=[d.memory for d in devices],
            bytes_per_block=model.kv_bytes_per_token(tp) * self.block_size)
        try:
            tracer = runtime.tracer
            sched = ContinuousBatchingScheduler(
                pool, self.max_batch_tokens, prefill_chunk=self.prefill_chunk,
                gen_seed=self.gen_seed, vocab=model.vocab)
            for req in sorted(traffic.outstanding(snapshot),
                              key=lambda r: (r.arrival, r.req_id)):
                sched.submit(req)

            while True:
                # every member's clock is equal here: the all-reduce and
                # the idle sync below leave them all at the same time
                now = clock.time
                plan = sched.step(now)
                if plan.empty and not plan.preempted:
                    nxt = sched.next_arrival()
                    if nxt is None:
                        break  # drained
                    for c in clocks:
                        c.sync_to(max(nxt, now), "wait")
                    continue

                new_tokens = plan.new_tokens
                if new_tokens > 0:
                    for device, c in zip(devices, clocks):
                        c.advance(model.step_seconds(
                            device, new_tokens, plan.context_tokens, tp),
                            "compute")
                    if comm is not None:
                        # fused TP all-reduce of the step's activations,
                        # priced for every member in one round; it is also
                        # the clock barrier that lets one schedule serve
                        # every member
                        x = SpecArray(
                            (new_tokens, model.wire_elems_per_token()),
                            "float16")
                        comm.all_reduce_members([x] * tp)

                t = clock.time
                finished, prefilled = sched.apply(plan, t)

                if tracer is not None:
                    self._emit_spans(tracer, plan, finished, prefilled, now, t)
                for req in plan.failed + finished:
                    records[req.req_id] = req.record()
                    nxt_req = traffic.next_request(req, t)
                    if nxt_req is not None:
                        sched.submit(nxt_req)
        finally:
            pool.release()

    @staticmethod
    def _emit_spans(tracer: Any, plan: Any, finished: List[Request],
                    prefilled: List[Request], now: float, t: float) -> None:
        for req in plan.admitted:
            if req.preemptions > 0 and req.t_last_preempt is not None:
                tracer.annotate(0, "serve", f"preempted/req{req.req_id}",
                                req.t_last_preempt, now,
                                preemptions=req.preemptions)
            else:
                tracer.annotate(0, "serve", f"queued/req{req.req_id}",
                                req.arrival, now)
        for req in prefilled:
            tracer.annotate(0, "serve", f"prefill/req{req.req_id}",
                            req.t_admitted, t, tokens=req.prompt_tokens)
        for req in finished:
            t0 = req.t_prefill_done if req.t_prefill_done is not None else now
            tracer.annotate(0, "serve", f"decode/req{req.req_id}",
                            t0, t, tokens=len(req.output))


def serve_traffic(model: ModelSpec, traffic: Any, *,
                  cluster: Any = None, world_size: int = 2,
                  runtime: Any = None, fault_plan: Any = None,
                  tracer: Any = None, comm_algorithm: str = "ring",
                  **engine_kwargs: Any) -> TrafficReport:
    """Serve ``traffic`` on a TP replica and return the traffic report.

    Builds a uniform cluster/runtime when none is given; any
    ``ServeEngine`` knob (``kv_blocks``, ``max_batch_tokens``, ...)
    passes through ``engine_kwargs``.
    """
    if runtime is None:
        from repro.cluster import uniform_cluster
        from repro.runtime.spmd import SpmdRuntime

        if cluster is None:
            cluster = uniform_cluster(world_size)
        runtime = SpmdRuntime(
            cluster, world_size, fault_plan=fault_plan, tracer=tracer,
            comm_algorithm=comm_algorithm)
    engine = ServeEngine(runtime, model, traffic, **engine_kwargs)
    return engine.run()


def serve_launch(cfg: Any, cluster: Any, world_size: Optional[int] = None,
                 runtime: Any = None, tracer: Any = None) -> TrafficReport:
    """The ``launch()`` entry point for a ``serve.*`` config section."""
    from repro.serve.traffic import ClosedLoopTraffic, OpenLoopTraffic

    sv = cfg.serve
    model = ModelSpec(**sv.model)
    td = dict(sv.traffic)
    kind = td.pop("kind")
    for key in ("prompt_tokens", "max_new_tokens"):
        if key in td:
            td[key] = tuple(td[key])
    traffic = (OpenLoopTraffic(**td) if kind == "open"
               else ClosedLoopTraffic(**td))
    return serve_traffic(
        model, traffic,
        cluster=cluster,
        world_size=world_size or cluster.world_size,
        runtime=runtime,
        tracer=tracer,
        comm_algorithm=cfg.comm.algorithm or "ring",
        block_size=sv.block_size,
        kv_blocks=sv.kv_blocks,
        kv_fraction=sv.kv_fraction,
        max_batch_tokens=sv.max_batch_tokens,
        prefill_chunk=sv.prefill_chunk,
        recovery_seconds=sv.recovery_seconds,
        max_recoveries=sv.max_recoveries,
    )
