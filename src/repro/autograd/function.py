"""Function/Node machinery for reverse-mode autodiff.

A :class:`Function` subclass implements ``forward(ctx, *tensors, **params)``
returning a payload (or tuple of payloads) and ``backward(ctx, *out_grads)``
returning per-input payload gradients.  ``Function.apply`` wires the call
into the graph, wraps outputs in Tensors, and charges the op's FLOPs to the
calling rank's simulated clock (forward now, backward when the engine runs
the node).
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.payload import Payload
from repro.runtime.spmd import current_rank_context, in_spmd
from repro.tensor.tensor import Tensor

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph construction (thread-local, so each
    SPMD rank has independent state)."""

    def __enter__(self) -> None:
        self._prev = grad_enabled()
        _state.grad_enabled = False

    def __exit__(self, *exc) -> None:
        _state.grad_enabled = self._prev


# np.dtype.name builds a fresh string on every access; memoize per dtype
# (builtin dtypes are singletons, so an id-free dict keyed by dtype is safe)
_DTYPE_NAMES: dict = {}


def _dtype_name(dtype: np.dtype) -> str:
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        name = _DTYPE_NAMES[dtype] = dtype.name
        return name


def _charge(flops: float, dtype: np.dtype, op_name: Optional[str] = None) -> None:
    """Charge compute time for ``flops`` to the current rank's clock."""
    if flops <= 0 or not in_spmd():
        return
    ctx = current_rank_context()
    cap = ctx.runtime.capture
    if cap is not None and op_name is not None:
        cap.note_op(ctx.rank, op_name)
    name = _dtype_name(dtype)
    if name not in ctx.device.peak_flops:
        name = "float32"
    ctx.clock.advance(ctx.device.compute_seconds(flops, name), "compute")


class FnCtx:
    """Per-call context: saved tensors for backward + arbitrary attributes.

    ``release()`` drops saved tensors; the engine calls it as soon as a
    node's backward has run so activation memory is returned eagerly —
    this is what makes simulated peak memory faithful.
    """

    def __init__(self) -> None:
        self.saved: Tuple[Tensor, ...] = ()
        self.flops: float = 0.0
        self.backward_flops: Optional[float] = None  # default: same as forward

    def save_for_backward(self, *tensors: Tensor) -> None:
        self.saved = tensors

    @property
    def saved_tensors(self) -> Tuple[Tensor, ...]:
        return self.saved

    def release(self) -> None:
        self.saved = ()
        # drop any payloads stashed as attributes
        for k in list(self.__dict__):
            if k not in ("flops", "backward_flops"):
                self.__dict__[k] = None


class Node:
    """One executed op in the graph."""

    __slots__ = ("fn_cls", "ctx", "inputs", "outputs", "n_outputs", "__weakref__")

    def __init__(
        self,
        fn_cls: type,
        ctx: FnCtx,
        inputs: Tuple[Optional[Tensor], ...],
        outputs: Sequence[Tensor],
    ) -> None:
        self.fn_cls = fn_cls
        self.ctx = ctx
        self.inputs = inputs
        # weakrefs: the graph must not keep outputs alive (their consumers do)
        self.outputs = [weakref.ref(t) for t in outputs]
        self.n_outputs = len(outputs)

    @property
    def name(self) -> str:
        return self.fn_cls.__name__

    def parents(self) -> List["Node"]:
        return [
            t.grad_fn
            for t in self.inputs
            if isinstance(t, Tensor) and t.grad_fn is not None
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name})"


class Function:
    """Base class for differentiable ops.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *tensors_and_params) -> payload | tuple[payload]
        @staticmethod
        def backward(ctx, *grad_outputs) -> payload | tuple[payload | None]

    ``backward`` returns one gradient per *tensor* positional input, in
    order (None where not differentiable).
    """

    #: outputs share the input's storage (reshape/transpose/slice views)
    IS_VIEW = False
    #: memory-pool tag for outputs
    OUTPUT_TAG = "activation"

    @staticmethod
    def forward(ctx: FnCtx, *args: Any, **kwargs: Any):
        raise NotImplementedError

    @staticmethod
    def backward(ctx: FnCtx, *grad_outputs: Payload):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> Union[Tensor, Tuple[Tensor, ...]]:
        tensor_inputs: Tuple[Optional[Tensor], ...] = tuple(
            a if isinstance(a, Tensor) else None for a in args
        )
        needs_grad = grad_enabled() and any(
            t is not None and t.requires_grad for t in tensor_inputs
        )
        fnctx = FnCtx()
        out = cls.forward(fnctx, *args, **kwargs)
        _charge(fnctx.flops, _out_dtype(out), op_name=cls.__name__)

        multi = isinstance(out, tuple)
        payloads = out if multi else (out,)
        base = _view_base(cls, tensor_inputs)
        outputs = tuple(
            _wrap(p, needs_grad, cls.OUTPUT_TAG, base) for p in payloads
        )
        if needs_grad:
            node = Node(cls, fnctx, tensor_inputs, outputs)
            for t in outputs:
                t.grad_fn = node
        else:
            fnctx.release()
        return outputs if multi else outputs[0]


def _out_dtype(out) -> np.dtype:
    p = out[0] if isinstance(out, tuple) else out
    dt = p.dtype
    return dt if type(dt) is np.dtype else np.dtype(dt)


def _view_base(cls, tensor_inputs) -> Optional[Tensor]:
    if not cls.IS_VIEW:
        return None
    for t in tensor_inputs:
        if t is not None:
            return t
    return None


def _wrap(payload: Payload, requires_grad: bool, tag: str, base: Optional[Tensor]) -> Tensor:
    t = Tensor(payload, requires_grad=requires_grad, tag=tag, base=base)
    return t
