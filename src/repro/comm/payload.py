"""Communication payloads.

Materialized programs communicate :class:`numpy.ndarray`; spec-mode programs
communicate :class:`SpecArray` — a shape/dtype stand-in whose byte size is
accounted identically, so the cost model and counters see exactly the same
traffic in both modes.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np


# np.dtype(...) construction is measurable at SpecArray churn rates; cache
# the canonical instance per spelling (np.dtype objects are interned-like
# singletons for builtin types, so identity reuse is safe)
_DTYPE_CACHE: dict = {}


def _as_dtype(dtype) -> np.dtype:
    if type(dtype) is np.dtype:
        return dtype
    try:
        return _DTYPE_CACHE[dtype]
    except (KeyError, TypeError):
        dt = np.dtype(dtype)
        try:
            _DTYPE_CACHE[dtype] = dt
        except TypeError:
            pass
        return dt


class SpecArray:
    """A shape+dtype stand-in for an ndarray (no storage).

    Supports the handful of shape manipulations the parallel layers perform
    on communicated buffers (reshape/concat-like derivations happen in the
    communicator itself).
    """

    __slots__ = ("shape", "dtype")

    def __init__(self, shape: Tuple[int, ...], dtype: Union[str, np.dtype] = "float32") -> None:
        # plain-int tuples (the common case) pass through untouched; only
        # np.intp/list shapes pay for normalization
        if type(shape) is tuple:
            for s in shape:
                if type(s) is not int:
                    shape = tuple(int(x) for x in shape)
                    break
        else:
            shape = tuple(int(s) for s in shape)
        self.shape = shape
        self.dtype = _as_dtype(dtype)

    @property
    def size(self) -> int:
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def reshape(self, *shape) -> "SpecArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shape = tuple(int(s) for s in shape)
        if -1 in shape:
            known = math.prod(s for s in shape if s != -1)
            shape = tuple(self.size // known if s == -1 else s for s in shape)
        if math.prod(shape) != self.size:
            raise ValueError(f"cannot reshape {self.shape} -> {shape}")
        return SpecArray(shape, self.dtype)

    def astype(self, dtype) -> "SpecArray":
        return SpecArray(self.shape, dtype)

    def copy(self) -> "SpecArray":
        return SpecArray(self.shape, self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecArray(shape={self.shape}, dtype={self.dtype.name})"


Payload = Union[np.ndarray, SpecArray]


def is_spec(x: Payload) -> bool:
    return isinstance(x, SpecArray)


def like(x: Payload, shape: Tuple[int, ...]) -> SpecArray:
    """A SpecArray with ``shape`` and ``x``'s dtype."""
    return SpecArray(shape, x.dtype)
