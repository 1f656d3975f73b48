"""Microbatch schedules: GPipe and 1F1B.

A schedule drives one training step on one pipeline stage: it splits the
global batch into microbatches, runs the stage module on each, moves
activations/gradients over the PIPELINE communicator, and returns the
(microbatch-averaged) loss on the last stage.

The loss of each microbatch is scaled by ``1/num_microbatches`` before
backward so accumulated parameter gradients equal those of the equivalent
single large batch.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.autograd import ops
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn.module import Module
from repro.tensor.sharding import shard_payload
from repro.tensor.tensor import Tensor

Criterion = Callable[[Tensor, Any], Tensor]


def _split_micro(batch, m: int):
    """Split an array/SpecArray (or None) into m microbatches along axis 0."""
    if batch is None:
        return [None] * m
    if is_spec(batch):
        return [
            SpecArray((batch.shape[0] // m,) + tuple(batch.shape[1:]), batch.dtype)
            for _ in range(m)
        ]
    arr = np.asarray(batch)
    if arr.shape[0] % m != 0:
        raise ValueError(f"batch {arr.shape[0]} not divisible into {m} microbatches")
    return [np.ascontiguousarray(c) for c in np.split(arr, m, axis=0)]


class PipelineSchedule:
    """Base class holding stage topology helpers."""

    def __init__(self, pc: ParallelContext, num_microbatches: int) -> None:
        self.pc = pc
        self.num_microbatches = num_microbatches
        self.comm = pc.comm(ParallelMode.PIPELINE)
        self.stage = pc.pp_rank
        self.n_stages = pc.pipeline_size
        runtime = self.comm.group.runtime
        self._tracer = runtime.tracer
        self._clock = runtime.clocks[self.comm.global_rank]
        # overlap mode: activation/gradient sends run on the sender's p2p
        # stream (isend) so the next microbatch's compute starts immediately;
        # handles are drained (max-joined) at the end of the step
        self._overlap = runtime.comm_overlap and self.n_stages > 1
        self._pending_sends: List[Any] = []

    @property
    def is_first(self) -> bool:
        return self.stage == 0

    @property
    def is_last(self) -> bool:
        return self.stage == self.n_stages - 1

    def _recv_fwd(self, mb: int) -> Tensor:
        payload = self._traced_recv(self.stage - 1, ("fwd", mb))
        return Tensor(payload, requires_grad=True)

    def _send_fwd(self, mb: int, out: Tensor) -> None:
        if self._overlap:
            self._pending_sends.append(
                self.comm.isend(out.payload, self.stage + 1, tag=("fwd", mb))
            )
        else:
            self.comm.send(out.payload, self.stage + 1, tag=("fwd", mb))

    def _recv_bwd(self, mb: int) -> Tensor:
        payload = self._traced_recv(self.stage + 1, ("bwd", mb))
        return Tensor(payload)

    def _traced_recv(self, src_stage: int, tag) -> Payload:
        """Receive a stage boundary payload; the time this rank sits blocked
        (upstream still busy + wire time) is recorded as a ``bubble`` span."""
        if self._tracer is None:
            return self.comm.recv(src_stage, tag=tag)
        t0 = self._clock.time
        payload = self.comm.recv(src_stage, tag=tag)
        if self._clock.time > t0:
            self._tracer.annotate(
                self.comm.global_rank, "bubble", f"{tag[0]}_stall/mb{tag[1]}",
                t0, self._clock.time,
            )
        return payload

    def _send_bwd(self, mb: int, x: Tensor) -> None:
        if x.grad is None:
            raise RuntimeError("no gradient flowed to the stage input")
        if self._overlap:
            self._pending_sends.append(
                self.comm.isend(x.grad.payload, self.stage - 1, tag=("bwd", mb))
            )
        else:
            self.comm.send(x.grad.payload, self.stage - 1, tag=("bwd", mb))

    def _drain_sends(self) -> None:
        """Wait outstanding stream sends (end of step): max-joins the stage
        clock to the last transfer so step time includes the wire."""
        for handle in self._pending_sends:
            handle.wait()
        self._pending_sends.clear()

    # -- per-microbatch work ---------------------------------------------------

    def _forward_micro(
        self,
        module: Module,
        mb: int,
        data_mb,
        target_mb,
        criterion: Optional[Criterion],
    ) -> Tuple[Optional[Tensor], Optional[Tensor], Optional[Tensor]]:
        """Returns (stage_input, stage_output, loss)."""
        t0 = self._clock.time
        if self.is_first:
            x = Tensor(data_mb) if not isinstance(data_mb, Tensor) else data_mb
        else:
            x = self._recv_fwd(mb)
        out = module(x)
        loss = None
        if self.is_last:
            if criterion is not None:
                loss = criterion(out, target_mb)
                loss = ops.mul(loss, 1.0 / self.num_microbatches)
        else:
            self._send_fwd(mb, out)
        if self._tracer is not None:
            self._tracer.annotate(
                self.comm.global_rank, "pipeline", f"fwd/mb{mb}",
                t0, self._clock.time, stage=self.stage,
            )
        return x, out, loss

    def _backward_micro(
        self, mb: int, x: Optional[Tensor], out: Tensor, loss: Optional[Tensor]
    ) -> None:
        t0 = self._clock.time
        if self.is_last:
            if loss is None:
                raise RuntimeError("last stage needs a criterion to run backward")
            loss.backward()
        else:
            grad = self._recv_bwd(mb)
            out.backward(grad)
        if not self.is_first and x is not None:
            self._send_bwd(mb, x)
        if self._tracer is not None:
            self._tracer.annotate(
                self.comm.global_rank, "pipeline", f"bwd/mb{mb}",
                t0, self._clock.time, stage=self.stage,
            )

    def run(
        self,
        module: Module,
        data,
        targets=None,
        criterion: Optional[Criterion] = None,
    ) -> Optional[float]:
        raise NotImplementedError


class GPipeSchedule(PipelineSchedule):
    """All microbatch forwards, then all backwards (Huang et al. [16]).

    Peak activation memory grows with the number of in-flight microbatches;
    bubble fraction is ``(p-1)/(m+p-1)``.
    """

    def run(self, module, data, targets=None, criterion=None) -> Optional[float]:
        m = self.num_microbatches
        data_mbs = _split_micro(data, m) if self.is_first else [None] * m
        target_mbs = _split_micro(targets, m) if self.is_last else [None] * m

        states: List[Tuple[Optional[Tensor], Tensor, Optional[Tensor]]] = []
        for mb in range(m):
            states.append(
                self._forward_micro(module, mb, data_mbs[mb], target_mbs[mb], criterion)
            )
        total = 0.0
        have_loss = False
        for mb in range(m - 1, -1, -1):
            x, out, loss = states[mb]
            self._backward_micro(mb, x, out, loss)
            if loss is not None and loss.materialized:
                total += loss.item()
                have_loss = True
            states[mb] = (None, out, None)  # free input/loss refs eagerly
        self._drain_sends()
        return total if have_loss else None


class OneFOneBSchedule(PipelineSchedule):
    """1F1B (PipeDream-flush, Narayanan et al. [25]).

    Same bubble as GPipe but peak activations bounded by the number of
    warm-up microbatches (at most the stage count) instead of all of them.
    """

    def run(self, module, data, targets=None, criterion=None) -> Optional[float]:
        m = self.num_microbatches
        data_mbs = _split_micro(data, m) if self.is_first else [None] * m
        target_mbs = _split_micro(targets, m) if self.is_last else [None] * m

        warmup = min(self.n_stages - self.stage - 1, m)
        pending: List[Tuple[int, Optional[Tensor], Tensor, Optional[Tensor]]] = []
        total = 0.0
        have_loss = False
        fwd_mb = 0
        bwd_mb = 0

        def fwd_one() -> None:
            nonlocal fwd_mb
            x, out, loss = self._forward_micro(
                module, fwd_mb, data_mbs[fwd_mb], target_mbs[fwd_mb], criterion
            )
            pending.append((fwd_mb, x, out, loss))
            fwd_mb += 1

        def bwd_one() -> None:
            nonlocal bwd_mb, total, have_loss
            mb, x, out, loss = pending.pop(0)
            assert mb == bwd_mb, "1F1B backward order violated"
            self._backward_micro(mb, x, out, loss)
            if loss is not None and loss.materialized:
                total += loss.item()
                have_loss = True
            bwd_mb += 1

        for _ in range(warmup):
            fwd_one()
        for _ in range(m - warmup):  # steady state
            fwd_one()
            bwd_one()
        for _ in range(warmup):  # drain
            bwd_one()
        self._drain_sends()
        return total if have_loss else None
