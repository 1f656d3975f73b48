"""Dual-mode payload primitives: spec shape inference must match numpy."""

import numpy as np
import pytest

from repro.autograd import payload_ops as P
from repro.comm.payload import SpecArray


def both(shape, dtype="float32", seed=0):
    arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return arr, SpecArray(shape, dtype)


class TestShapeParity:
    """For every primitive: spec output shape == numpy output shape."""

    def test_binary_broadcast(self):
        a, sa = both((3, 1, 4))
        b, sb = both((2, 4), seed=1)
        for fn in (P.padd, P.psub, P.pmul, P.pdiv, P.pmaximum):
            assert fn(sa, sb).shape == fn(a, b).shape

    def test_unary(self):
        a, sa = both((2, 3))
        a = np.abs(a) + 0.5
        for fn in (P.pneg, P.pexp, P.plog, P.ptanh, P.psqrt, P.psigmoid, P.prelu, P.pgelu):
            assert fn(sa).shape == fn(a).shape

    def test_matmul_batched(self):
        a, sa = both((2, 3, 4))
        b, sb = both((4, 5), seed=1)
        assert P.pmatmul(sa, sb).shape == P.pmatmul(a, b).shape == (2, 3, 5)

    def test_matmul_mismatch_raises(self):
        _, sa = both((2, 3))
        _, sb = both((4, 5))
        with pytest.raises(ValueError):
            P.pmatmul(sa, sb)
        with pytest.raises(ValueError):
            P.matmul_shape((3,), (3, 4))

    def test_matmul_flops(self):
        assert P.matmul_flops((2, 3), (3, 4)) == 2 * 2 * 3 * 4
        assert P.matmul_flops((5, 2, 3), (5, 3, 4)) == 5 * 2 * 2 * 3 * 4

    def test_reshape_transpose(self):
        a, sa = both((2, 3, 4))
        assert P.preshape(sa, (6, 4)).shape == (6, 4)
        assert P.ptranspose(sa, (2, 0, 1)).shape == (4, 2, 3)
        assert P.ptranspose(sa).shape == (4, 3, 2)
        assert P.pswapaxes(sa, -1, -2).shape == (2, 4, 3)

    def test_concat_split(self):
        a, sa = both((2, 4))
        assert P.pconcat([sa, sa], 1).shape == (2, 8)
        parts = P.psplit(sa, 2, 1)
        assert len(parts) == 2 and parts[0].shape == (2, 2)
        with pytest.raises(ValueError):
            P.psplit(sa, 3, 1)

    def test_slice(self):
        a, sa = both((4, 5))
        idx = (slice(1, 3), slice(None, None, 2))
        assert P.pslice(sa, idx).shape == a[idx].shape

    def test_reductions(self):
        a, sa = both((2, 3, 4))
        for fn, np_fn in ((P.psum, np.sum), (P.pmean, np.mean), (P.pmax, np.max)):
            for axis, kd in ((None, False), (1, True), ((0, 2), False), (-1, False)):
                assert fn(sa, axis=axis, keepdims=kd).shape == np_fn(a, axis=axis, keepdims=kd).shape

    def test_softmax_numerics(self):
        a, _ = both((3, 4))
        out = P.psoftmax(a * 100)  # large logits: stability check
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        a, _ = both((3, 4))
        np.testing.assert_allclose(
            P.plog_softmax(a), np.log(P.psoftmax(a)), atol=1e-6
        )

    def test_unbroadcast(self):
        g = np.ones((2, 3, 4))
        out = P.unbroadcast(g, (3, 4))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, np.full((3, 4), 2.0))
        out2 = P.unbroadcast(g, (1, 3, 1))
        assert out2.shape == (1, 3, 1)
        assert out2[0, 0, 0] == 8.0
        s = P.unbroadcast(SpecArray((2, 3, 4)), (3, 4))
        assert s.shape == (3, 4)


class TestSpecArrayAPI:
    def test_nbytes_fp16(self):
        assert SpecArray((4, 4), "float16").nbytes == 32

    def test_astype(self):
        s = SpecArray((2,), "float32").astype("float16")
        assert s.dtype == np.float16 and s.nbytes == 4

    def test_scalar_shape(self):
        s = SpecArray(())
        assert s.size == 1 and s.ndim == 0

    def test_copy_independent(self):
        s = SpecArray((2, 2))
        c = s.copy()
        assert c.shape == s.shape and c is not s
