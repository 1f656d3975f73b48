"""Analytic scoring stage of the strategy compiler (fast pruning).

Every enumerated :class:`~repro.autopar.search.StrategyCandidate` is priced
with the closed-form models (``repro.analytic`` + ``repro.comm.cost``)
before anything touches the simulator: memory feasibility (ZeRO-aware, via
:func:`~repro.analytic.memory_model.model_data_bytes_per_rank`), compute,
tensor-parallel traffic on the *actual* subgroup topologies (rows on
NVLink pairs vs columns over PCIe is what flips Fig 11), ZeRO-staged
gradient synchronization, overlap hiding and the pipeline bubble.

The communication *pattern* a candidate implies is materialized once as a
list of :class:`TpOp` / :class:`DpOp` records.  The analytic stage prices
those records with :class:`~repro.comm.cost.CostModel`; the probe stage
(:mod:`repro.autopar.probe`) *issues the very same records* as real
collectives on the simulator — one source of truth, two evaluators, which
is what makes the two-stage search comparable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytic.memory_model import (
    model_data_bytes_per_rank,
    transformer_activation_bytes,
    transformer_param_count,
    zero_partitioned_bytes,
)
from repro.analytic.perf_model import (
    overlap_exposed_seconds,
    transformer_layer_flops,
)
from repro.autopar.search import StrategyCandidate, Workload
from repro.cluster.machine import ClusterSpec
from repro.comm.cost import CostModel

#: fraction of a step's compute that is backward work (the window overlap
#: schedulers can hide gradient traffic behind): bwd = 2x fwd flops
BACKWARD_FRACTION = 2.0 / 3.0


def _tp_volume_per_layer(
    mode: str, tensor: int, depth: int, batch: int, seq: int, hidden: int, mlp: int
) -> Tuple[float, float]:
    """(activation wire elements, weight wire elements) per Transformer
    layer fwd+bwd, from the Table 1 forms applied to the layer's 4 linears
    (QKV, out, MLP up/down)."""
    if tensor == 1:
        return 0.0, 0.0
    matmuls = [
        (hidden, 3 * hidden),
        (hidden, hidden),
        (hidden, mlp * hidden),
        (mlp * hidden, hidden),
    ]
    act = wgt = 0.0
    for k, n in matmuls:
        sx = batch * seq * k
        sw = k * n
        if mode == "1d":
            continue  # handled once per layer below
        if mode == "2d":
            j = math.isqrt(tensor)
            act += 3 * (j - 1) * sx
            wgt += 3 * (j - 1) * sw
        elif mode == "2.5d":
            kk = math.isqrt(tensor // depth)
            act += 3 * (kk - 1) * sx
            wgt += 3 * (kk - 1) * depth * sw
        else:  # 3d
            l = round(tensor ** (1 / 3))
            sy = batch * seq * n
            act += 2 * (l - 1) * (sx + sy)
            wgt += 2 * (l - 1) * sw
    if mode == "1d":
        sx = batch * seq * hidden
        act = 2 * (2 * (tensor - 1) * sx)  # 2 allreduce pairs (attn + MLP)
    return act, wgt


@dataclass(frozen=True)
class TpOp:
    """Aggregate tensor-parallel traffic one candidate issues per layer,
    per microbatch, per phase.

    ``group`` names a subgroup family of the tensor group (see
    :func:`tp_subgroups`); ``nbytes`` is the *per-rank wire volume* on that
    family's links, derived from the Table-1 forms
    (:func:`_tp_volume_per_layer`).  Both evaluators
    realize a record as one broadcast of ``nbytes`` over each subgroup —
    the wire bytes per bottleneck link are what the Fig-11 hardware
    argument turns on, not the op taxonomy, so a single collective kind
    keeps the analytic price and the simulated probe exactly comparable."""

    phase: str
    group: str  # "tp" | "row" | "col"
    op: str  # "broadcast"
    nbytes: int


@dataclass(frozen=True)
class DpOp:
    """One data-parallel/ZeRO synchronization collective per step."""

    op: str  # "all_reduce" | "reduce_scatter" | "all_gather"
    elements: int


@dataclass
class CandidateScore:
    """Analytic estimate for one candidate, with the rejection reason when
    the candidate is infeasible (the compiler's observability contract:
    every enumerated candidate appears in the report with *why* it was
    dropped, never silently)."""

    candidate: StrategyCandidate
    feasible: bool
    reason: str = ""
    step_seconds: float = math.inf
    compute_seconds: float = 0.0
    tp_comm_seconds: float = 0.0
    dp_comm_seconds: float = 0.0  # exposed (after overlap hiding)
    dp_comm_raw_seconds: float = 0.0  # before overlap hiding
    bubble_fraction: float = 0.0
    memory_bytes: int = 0
    notes: str = ""


def micro_batch_size(cand: StrategyCandidate, global_batch: int) -> int:
    return max(global_batch // (cand.data * cand.microbatches), 1)


def local_layers(work: Workload, cand: StrategyCandidate) -> int:
    return math.ceil(work.n_layers / cand.pipeline)


def local_params(work: Workload, cand: StrategyCandidate) -> int:
    params = transformer_param_count(
        work.n_layers, work.hidden, mlp_ratio=work.mlp_ratio
    )
    return max(params // (cand.tensor * cand.pipeline), 1)


def tp_subgroups(cand: StrategyCandidate) -> Dict[str, List[List[int]]]:
    """Subgroup families (local tensor-rank lists) of a candidate's tensor
    group placed on consecutive GPUs: SUMMA rows are consecutive ranks and
    columns strided, so row traffic lands on the adjacent pairs and column
    traffic on the cross-pair links — the placement Fig 11 turns on."""
    t, mode, depth = cand.tensor, cand.mode, cand.depth
    ranks = list(range(t))
    if t == 1:
        return {}
    if mode in ("1d", "sequence"):
        return {"tp": [ranks]}
    if mode == "2d":
        q = math.isqrt(t)
        rows = [ranks[i * q:(i + 1) * q] for i in range(q)]
        cols = [[i * q + j for i in range(q)] for j in range(q)]
        return {"row": rows, "col": cols}
    if mode == "2.5d":
        q = math.isqrt(t // depth)
        rows, cols = [], []
        for dd in range(depth):
            base = dd * q * q
            for i in range(q):
                rows.append([base + i * q + j for j in range(q)])
                cols.append([base + j * q + i for j in range(q)])
        return {"row": rows, "col": cols}
    # 3d: activation broadcasts along one cube axis, weight traffic along
    # another
    l = round(t ** (1 / 3))
    rows, cols = [], []
    for i in range(l):
        for j in range(l):
            rows.append([i * l * l + j * l + k for k in range(l)])
            cols.append([jj * l * l + i * l + j for jj in range(l)])
    return {"row": rows, "col": cols}


def tp_layer_ops(
    work: Workload, cand: StrategyCandidate, micro_batch: int
) -> List[TpOp]:
    """The tensor-parallel traffic one Transformer layer moves for one
    microbatch under this candidate, as per-rank wire-byte records.

    Volumes come straight from the Table-1 forms
    (:func:`_tp_volume_per_layer`), split between
    the activation family (rows / the full 1D group) and the weight family
    (columns) and halved across fwd/bwd — so the probe and the analytic
    stage move byte-identical traffic on identical subgroups."""
    t, mode = cand.tensor, cand.mode
    if t == 1:
        return []
    ops: List[TpOp] = []
    if mode == "sequence":
        # ring self-attention: each rank circulates its k/v blocks around
        # the sequence group, (t-1) rounds of 2 blocks fwd and twice that
        # bwd; the replicated weights add one gradient all-reduce per step,
        # amortized here per layer/microbatch
        bsh = micro_batch * work.seq_len * work.hidden
        kv_rank = 6 * (t - 1) * bsh // t
        layer_params = transformer_param_count(
            1, work.hidden, mlp_ratio=work.mlp_ratio
        )
        wgt_rank = (
            2 * (t - 1) * layer_params // t // max(cand.microbatches, 1)
        )
        for phase, frac in (("fwd", 1), ("bwd", 2)):
            nb = max(kv_rank * frac // 3 * work.bytes_per_elem, 1)
            ops.append(TpOp(phase, "tp", "broadcast", nb))
        ops.append(
            TpOp("bwd", "tp", "broadcast",
                 max(wgt_rank * work.bytes_per_elem, 1))
        )
        return ops
    act_v, wgt_v = _tp_volume_per_layer(
        mode, t, cand.depth, micro_batch, work.seq_len, work.hidden,
        work.mlp_ratio,
    )
    act_rank = int(act_v * work.bytes_per_elem / t)
    wgt_rank = int(wgt_v * work.bytes_per_elem / t)
    act_group = "tp" if mode == "1d" else "row"
    for phase in ("fwd", "bwd"):
        if act_rank:
            ops.append(TpOp(phase, act_group, "broadcast",
                            max(act_rank // 2, 1)))
        if wgt_rank:
            ops.append(TpOp(phase, "col", "broadcast",
                            max(wgt_rank // 2, 1)))
    return ops


def dp_step_ops(work: Workload, cand: StrategyCandidate) -> List[DpOp]:
    """The data-parallel/ZeRO synchronization collectives one training step
    issues over the DP group (gradient elements of this rank's model
    shard)."""
    if cand.data <= 1:
        return []
    grad_elems = local_params(work, cand)
    if cand.zero_stage == 0:
        return [DpOp("all_reduce", grad_elems)]
    shard = max(grad_elems // cand.data, 1)
    ops = [DpOp("reduce_scatter", grad_elems), DpOp("all_gather", shard)]
    if cand.zero_stage >= 3:
        # partitioned parameters are re-gathered before fwd and bwd
        ops.append(DpOp("all_gather", shard))
        ops.append(DpOp("all_gather", shard))
    return ops


def axis_rank_lists(cand: StrategyCandidate) -> Dict[str, List[int]]:
    """Representative global rank lists under the ParallelContext layout
    ``rank = dp*(pp*tp) + pp*tp + tp`` — the first group of each family,
    which is what the analytic stage prices."""
    t, p = cand.tensor, cand.pipeline
    return {
        "tp": list(range(t)),
        "pp": [s * t for s in range(p)],
        "dp": [d * t * p for d in range(cand.data)],
    }


class _CostCache:
    """Memoized CostModel queries keyed on (algorithm, op, ranks, bytes):
    thousands of candidates share a handful of distinct groups."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self._models: Dict[str, CostModel] = {}
        self._cache: Dict[Tuple, float] = {}

    def model(self, algorithm: str) -> CostModel:
        m = self._models.get(algorithm)
        if m is None:
            m = self._models[algorithm] = CostModel(
                self.cluster, algorithm=algorithm
            )
        return m

    def seconds(
        self, algorithm: str, op: str, ranks: Sequence[int], nbytes: int
    ) -> float:
        key = (algorithm, op, tuple(ranks), nbytes)
        val = self._cache.get(key)
        if val is None:
            model = self.model(algorithm)
            fn = {
                "all_reduce": model.allreduce,
                "broadcast": model.broadcast,
                "all_gather": model.allgather,
                "reduce_scatter": model.reduce_scatter,
            }[op]
            val = self._cache[key] = fn(list(ranks), nbytes).seconds
        return val

    def p2p_seconds(self, src: int, dst: int, nbytes: int) -> float:
        key = ("p2p", src, dst, nbytes)
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = self.model("ring").p2p(
                src, dst, nbytes
            ).seconds
        return val


def score_candidate(
    cluster: ClusterSpec,
    work: Workload,
    cand: StrategyCandidate,
    global_batch: int,
    cache: Optional[_CostCache] = None,
) -> CandidateScore:
    """Price one candidate analytically; infeasible candidates come back
    with ``feasible=False`` and a human-readable ``reason``."""
    cache = cache or _CostCache(cluster)
    dev = cluster.gpus[0]
    mb = micro_batch_size(cand, global_batch)
    layers = local_layers(work, cand)
    params_local = local_params(work, cand)

    # ---- memory: ZeRO-partitioned model data + live-microbatch activations
    model_bytes = model_data_bytes_per_rank(
        params_local, data=cand.data, zero_stage=cand.zero_stage
    )
    seq_share = cand.tensor if cand.mode == "sequence" else 1
    act_micro = transformer_activation_bytes(
        mb, work.seq_len // seq_share, work.hidden, work.n_heads,
        layers, work.mlp_ratio, work.bytes_per_elem,
    ) // (cand.tensor if cand.mode != "sequence" else 1)
    # in-flight microbatches: GPipe holds all m, 1F1B at most the stage count
    live = 1
    if cand.pipeline > 1:
        live = (
            cand.microbatches if cand.schedule == "gpipe"
            else min(cand.pipeline, cand.microbatches)
        )
    act_plain = act_micro * live
    ckpt_micro = transformer_activation_bytes(
        mb, work.seq_len // seq_share, work.hidden, work.n_heads,
        layers, work.mlp_ratio, work.bytes_per_elem, checkpoint=True,
    ) // (cand.tensor if cand.mode != "sequence" else 1)
    act_ckpt = ckpt_micro * live + act_micro // max(layers, 1)
    use_ckpt = model_bytes + act_plain > dev.memory_capacity
    act_bytes = act_ckpt if use_ckpt else act_plain
    mem = model_bytes + act_bytes
    if mem > dev.memory_capacity:
        return CandidateScore(
            candidate=cand, feasible=False,
            reason=(
                f"out of memory: needs {mem / 2**30:.2f} GiB "
                f"({model_bytes / 2**30:.2f} model + "
                f"{act_bytes / 2**30:.2f} activations) > "
                f"{dev.memory_capacity / 2**30:.2f} GiB device"
            ),
            memory_bytes=int(mem),
        )

    # ---- compute: 6*params*tokens over the ranks (+ checkpoint re-forward)
    params = transformer_param_count(
        work.n_layers, work.hidden, mlp_ratio=work.mlp_ratio
    )
    tokens = global_batch * work.seq_len
    flops_per_rank = 6.0 * params * tokens / cand.world
    if use_ckpt:
        flops_per_rank *= 4.0 / 3.0
    compute_s = dev.compute_seconds(flops_per_rank, "float16")

    # ---- tensor-parallel comm: price the exact op records the probe issues
    groups = tp_subgroups(cand)
    tp_s = 0.0
    if cand.tensor > 1:
        for op in tp_layer_ops(work, cand, mb):
            fam = groups[op.group]
            # slowest subgroup of the family bounds the phase
            worst = max(
                cache.seconds(cand.algorithm, op.op, sub, op.nbytes)
                for sub in fam
            )
            tp_s += worst
        tp_s *= work.n_layers * cand.microbatches / cand.pipeline

    # ---- pipeline: bubble + boundary p2p traffic
    bubble = (
        (cand.pipeline - 1) / (cand.microbatches + cand.pipeline - 1)
        if cand.pipeline > 1 else 0.0
    )
    pp_s = 0.0
    if cand.pipeline > 1:
        boundary = mb * work.seq_len * work.hidden * work.bytes_per_elem
        hop = cache.p2p_seconds(0, cand.tensor, boundary)
        pp_s = 2.0 * cand.microbatches * hop  # activations fwd + grads bwd

    # ---- data-parallel / ZeRO sync, with overlap hiding
    ranks = axis_rank_lists(cand)
    dp_raw = 0.0
    for op in dp_step_ops(work, cand):
        dp_raw += cache.seconds(
            cand.algorithm, op.op, ranks["dp"], op.elements * work.bytes_per_elem
        )
    dp_s = (
        overlap_exposed_seconds(dp_raw, BACKWARD_FRACTION * compute_s)
        if cand.overlap else dp_raw
    )

    step = (compute_s + tp_s + pp_s) / (1.0 - bubble) + dp_s
    notes = []
    if use_ckpt:
        notes.append("checkpointing")
    if cand.zero_stage:
        notes.append(f"zero{cand.zero_stage}")
    return CandidateScore(
        candidate=cand,
        feasible=True,
        step_seconds=step,
        compute_seconds=compute_s,
        tp_comm_seconds=tp_s,
        dp_comm_seconds=dp_s,
        dp_comm_raw_seconds=dp_raw,
        bubble_fraction=bubble,
        memory_bytes=int(mem),
        notes="+".join(notes),
    )
