"""Gradient correctness for matmul, linear, convolution and pooling ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd.ops_conv import conv_output_shape


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestMatMul:
    def test_2d_forward_matches_numpy(self):
        a, b = t((3, 4), 1), t((4, 5), 2)
        assert np.allclose((a @ b).numpy(), a.numpy() @ b.numpy())

    def test_2d_gradcheck(self):
        a, b = t((3, 4), 3), t((4, 2), 4)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched_gradcheck(self):
        a, b = t((2, 3, 4), 5), t((2, 4, 2), 6)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_matrix(self):
        a, b = t((4,), 7), t((4, 3), 8)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_matrix_vector(self):
        a, b = t((3, 4), 9), t((4,), 10)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_inner_product(self):
        a, b = t((5,), 11), t((5,), 12)
        assert gradcheck(lambda x, y: x @ y, [a, b])


class TestLinearOp:
    def test_matches_manual_affine(self):
        x, w, b = t((4, 6), 20), t((3, 6), 21), t((3,), 22)
        out = x.linear(w, b)
        assert np.allclose(out.numpy(), x.numpy() @ w.numpy().T + b.numpy())

    def test_gradcheck_with_bias(self):
        x, w, b = t((3, 4), 23), t((2, 4), 24), t((2,), 25)
        assert gradcheck(lambda a, b_, c: a.linear(b_, c), [x, w, b])

    def test_gradcheck_without_bias(self):
        x, w = t((3, 4), 26), t((2, 4), 27)
        assert gradcheck(lambda a, b_: a.linear(b_, None), [x, w])


class TestConv2d:
    def test_output_shape_helper(self):
        assert conv_output_shape(32, 32, 3, 1, 1) == (32, 32)
        assert conv_output_shape(32, 32, 3, 1, 0) == (30, 30)
        assert conv_output_shape(8, 8, 2, 2, 0) == (4, 4)

    def test_matches_scipy_correlate(self):
        from scipy import signal

        rng = np.random.default_rng(40)
        x = rng.standard_normal((1, 1, 6, 6))
        w = rng.standard_normal((1, 1, 3, 3))
        out = Tensor(x).conv2d(Tensor(w), None, stride=1, padding=0).numpy()
        expected = signal.correlate(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out[0, 0], expected, atol=1e-5)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = x.conv2d(w, b, padding=1).numpy()
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_gradcheck_no_padding(self):
        x, w, b = t((2, 2, 5, 5), 41, 0.5), t((3, 2, 3, 3), 42, 0.5), t((3,), 43)
        assert gradcheck(lambda a, k, c: a.conv2d(k, c, 1, 0), [x, w, b])

    def test_gradcheck_with_padding(self):
        x, w = t((1, 2, 4, 4), 44, 0.5), t((2, 2, 3, 3), 45, 0.5)
        assert gradcheck(lambda a, k: a.conv2d(k, None, 1, 1), [x, w])

    def test_gradcheck_stride_two(self):
        x, w = t((1, 1, 6, 6), 46, 0.5), t((2, 1, 3, 3), 47, 0.5)
        assert gradcheck(lambda a, k: a.conv2d(k, None, 2, 0), [x, w])

    def test_padding_preserves_spatial_size(self):
        x = t((1, 3, 8, 8), 48)
        w = t((4, 3, 3, 3), 49)
        assert x.conv2d(w, None, 1, 1).shape == (1, 4, 8, 8)

    @pytest.mark.parametrize(
        "stride,padding,with_bias",
        [(1, 0, False), (1, 0, True), (1, 1, False), (1, 1, True), (2, 1, True), (2, 0, False)],
    )
    def test_forward_bit_identical_to_tensordot_reference(self, stride, padding, with_bias):
        # The pooled-scratch forward must reproduce the original
        # pad + tensordot path bit-for-bit, not just approximately.
        rng = np.random.default_rng(400 + stride * 10 + padding * 2 + with_bias)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4) if with_bias else None

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        from numpy.lib.stride_tricks import as_strided

        n, c, h, wd = xp.shape
        oh = (h - 3) // stride + 1
        ow = (wd - 3) // stride + 1
        sn, sc, sh, sw = xp.strides
        cols = as_strided(
            xp, shape=(n, c, 3, 3, oh, ow), strides=(sn, sc, sh, sw, sh * stride, sw * stride)
        )
        ref = np.tensordot(cols, w, axes=([1, 2, 3], [1, 2, 3])).transpose(0, 3, 1, 2)
        if b is not None:
            ref = ref + b[None, :, None, None]

        out = Tensor(x).conv2d(Tensor(w), None if b is None else Tensor(b), stride, padding)
        np.testing.assert_array_equal(out.numpy(), np.ascontiguousarray(ref))

    def test_scratch_reuse_keeps_ctx_arrays_alive_across_calls(self):
        # Two forwards back-to-back share the pooled scratch; the first call's
        # ctx must survive the second call's scratch reuse, so both backwards
        # still produce correct (and correctly distinct) gradients.
        x1, x2 = t((1, 2, 5, 5), 50, 0.5), t((1, 2, 5, 5), 51, 0.5)
        w = t((3, 2, 3, 3), 52, 0.5)
        out1 = x1.conv2d(w, None, 1, 1)
        out2 = x2.conv2d(w, None, 1, 1)
        (out1.sum() + out2.sum()).backward()

        def lone_grad(xt):
            x = Tensor(xt.numpy(), requires_grad=True)
            wl = Tensor(w.numpy(), requires_grad=True)
            x.conv2d(wl, None, 1, 1).sum().backward()
            return x.grad, wl.grad

        g1, gw1 = lone_grad(x1)
        g2, gw2 = lone_grad(x2)
        np.testing.assert_array_equal(x1.grad, g1)
        np.testing.assert_array_equal(x2.grad, g2)
        np.testing.assert_array_equal(w.grad, gw1 + gw2)

    def test_forward_output_is_not_scratch_backed(self):
        # The returned array enters the autograd graph and must be a fresh
        # allocation: a later conv at the same shape must not overwrite it.
        x = t((1, 1, 5, 5), 53)
        w = t((2, 1, 3, 3), 54)
        out = x.conv2d(w, None, 1, 1).numpy()
        snapshot = out.copy()
        t((1, 1, 5, 5), 55).conv2d(t((2, 1, 3, 3), 56), None, 1, 1)
        np.testing.assert_array_equal(out, snapshot)


class TestPooling:
    def test_maxpool_forward(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert x.max_pool2d(2).numpy()[0, 0, 0, 0] == 4.0

    def test_maxpool_gradient_routes_to_max(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(data, requires_grad=True)
        x.max_pool2d(2).sum().backward()
        assert np.allclose(x.grad, [[[[0, 0], [0, 1]]]])

    def test_maxpool_gradcheck(self):
        x = t((2, 3, 4, 4), 50)
        assert gradcheck(lambda a: a.max_pool2d(2), [x])

    def test_avgpool_forward(self):
        x = Tensor(np.ones((1, 1, 4, 4)) * 2.0)
        out = x.avg_pool2d(2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.numpy(), 2.0)

    def test_avgpool_gradcheck(self):
        x = t((1, 2, 4, 4), 51)
        assert gradcheck(lambda a: a.avg_pool2d(2), [x])

    def test_pool_trims_odd_sizes(self):
        x = Tensor(np.ones((1, 1, 5, 5)), requires_grad=True)
        out = x.max_pool2d(2)
        assert out.shape == (1, 1, 2, 2)
        out.sum().backward()
        # The trimmed last row/column receives zero gradient.
        assert np.allclose(x.grad[:, :, 4, :], 0.0)
        assert np.allclose(x.grad[:, :, :, 4], 0.0)


# ---------------------------------------------------------------------- #
# Golden references: frozen copies of the kernels the strided MaxPool2d and
# the single-lowering Conv2d.backward replaced (argmax pooling, tensordot
# weight gradient).  The live kernels must match them bit for bit, which is
# why TRAINING_CODE_VERSION did not change with the rewrite.
# ---------------------------------------------------------------------- #
def _ref_maxpool_forward(ctx, x, kernel=2):
    n, c, h, w = x.shape
    oh, ow = h // kernel, w // kernel
    trimmed = x[:, :, : oh * kernel, : ow * kernel]
    windows = trimmed.reshape(n, c, oh, kernel, ow, kernel).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    idx_dtype = np.uint8 if kernel * kernel <= 255 else np.intp
    ctx.save_for_backward(idx.astype(idx_dtype, copy=False), x.shape, kernel)
    return out


def _ref_maxpool_backward(ctx, grad_output):
    idx, x_shape, kernel = ctx.saved
    n, c, h, w = x_shape
    oh, ow = h // kernel, w // kernel
    go = np.asarray(grad_output)
    flat = np.zeros((n, c, oh, ow, kernel * kernel), dtype=go.dtype)
    np.put_along_axis(flat, idx[..., None].astype(np.intp, copy=False), go[..., None], axis=-1)
    grad_trimmed = (
        flat.reshape(n, c, oh, ow, kernel, kernel).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh * kernel, ow * kernel)
    )
    if oh * kernel == h and ow * kernel == w:
        return grad_trimmed, None
    grad = np.zeros(x_shape, dtype=grad_trimmed.dtype)
    grad[:, :, : oh * kernel, : ow * kernel] = grad_trimmed
    return grad, None


def _ref_conv_backward(ctx, grad_output):
    from numpy.lib.stride_tricks import as_strided

    x, weight, has_bias, stride, padding = ctx.saved
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    c_out, c_in, kh, kw = weight.shape
    go = np.asarray(grad_output)
    n, _, oh, ow = go.shape
    sn, sc, sh, sw = xp.strides
    cols = as_strided(xp, shape=(n, c_in, kh, kw, oh, ow), strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    grad_w = np.tensordot(go, cols, axes=([0, 2, 3], [0, 4, 5]))
    go_mat = np.ascontiguousarray(go.transpose(0, 2, 3, 1)).reshape(n * oh * ow, c_out)
    grad_cols = np.matmul(go_mat, weight.reshape(c_out, c_in * kh * kw)).reshape(n, oh, ow, c_in, kh, kw)
    grad_xp = np.zeros(xp.shape, dtype=go.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += grad_cols[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    grad_x = grad_xp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]].copy()
    grad_b = go.sum(axis=(0, 2, 3)) if has_bias else None
    return grad_x, grad_w, grad_b, None, None


def assert_bits_equal(actual, expected):
    """Same dtype, shape and bit pattern (so -0.0 differs from +0.0)."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    kind = f"u{actual.itemsize}"
    np.testing.assert_array_equal(actual.view(kind), expected.view(kind))


def _kernel_input(kind, shape, dtype, rng):
    if kind == "spikes":  # binary maps: windows full of tied 1.0s and 0.0s
        return (rng.random(shape) < 0.3).astype(dtype)
    if kind == "signed_zeros":  # -0.0/+0.0 ties compare equal, bits differ
        return rng.choice(np.array([-0.0, 0.0, -1.0], dtype=dtype), size=shape)
    return rng.standard_normal(shape).astype(dtype)


def _grad_with_signed_zeros(shape, dtype, rng):
    go = rng.standard_normal(shape).astype(dtype)
    go[rng.random(shape) < 0.2] = -0.0
    return go


class TestGoldenKernels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["spikes", "signed_zeros", "normal"])
    @pytest.mark.parametrize("kernel,hw", [(2, (8, 8)), (2, (7, 9)), (3, (9, 9)), (3, (8, 10))])
    def test_maxpool_matches_argmax_reference(self, dtype, kind, kernel, hw):
        from repro.autograd.function import Context
        from repro.autograd.ops_conv import MaxPool2d

        rng = np.random.default_rng(kernel * 100 + hw[0] * 10 + hw[1])
        x = _kernel_input(kind, (3, 4) + hw, dtype, rng)
        ctx, ref_ctx = Context(), Context()
        out = MaxPool2d.forward(ctx, x, kernel)
        ref = _ref_maxpool_forward(ref_ctx, x, kernel)
        assert_bits_equal(out, ref)
        assert_bits_equal(ctx.saved[0], ref_ctx.saved[0])
        go = _grad_with_signed_zeros(out.shape, dtype, rng)
        grad, _ = MaxPool2d.backward(ctx, go)
        ref_grad, _ = _ref_maxpool_backward(ref_ctx, go)
        assert_bits_equal(grad, ref_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["spikes", "normal"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_conv_backward_matches_tensordot_reference(self, dtype, kind, stride, padding, with_bias):
        from repro.autograd.function import Context
        from repro.autograd.ops_conv import Conv2d

        rng = np.random.default_rng(500 + stride * 10 + padding * 2 + with_bias)
        x = _kernel_input(kind, (3, 4, 9, 8), dtype, rng)
        w = rng.standard_normal((5, 4, 3, 3)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype) if with_bias else None
        ctx = Context()
        ctx.needs_input_grad = (True, True, with_bias, False, False)
        out = Conv2d.forward(ctx, x, w, b, stride, padding)
        go = _grad_with_signed_zeros(out.shape, dtype, rng)
        ref = _ref_conv_backward(ctx, go)
        got = Conv2d.backward(ctx, go)
        for g, r in zip(got[:2], ref[:2]):
            assert_bits_equal(g, r)
        if with_bias:
            assert_bits_equal(got[2], ref[2])
        else:
            assert got[2] is None
        # Without an input gradient the weight and bias gradients are unchanged.
        ctx.needs_input_grad = (False, True, with_bias, False, False)
        skipped = Conv2d.backward(ctx, go)
        assert skipped[0] is None
        assert_bits_equal(skipped[1], ref[1])
        if with_bias:
            assert_bits_equal(skipped[2], ref[2])


def _ref_im2col_matrix(x, kh, kw, stride, padding):
    # The NCHW lowering the channels-last im2col replaced: np.pad, the
    # as_strided window view, one transposing copy into the column matrix.
    from numpy.lib.stride_tricks import as_strided

    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = xp.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    cols = as_strided(xp, shape=(n, c, kh, kw, oh, ow), strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    mat = np.empty((n * oh * ow, c * kh * kw), dtype=x.dtype)
    np.copyto(mat.reshape(n, oh, ow, c, kh, kw), cols.transpose(0, 4, 5, 1, 2, 3))
    return mat


def _ref_col2im(cols, x_shape, kh, kw, stride, padding):
    # The NCHW slice-add the channels-last col2im replaced.
    n, c, h, w = x_shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    grad_cols = cols.reshape(n, oh, ow, c, kh, kw)
    grad_xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += grad_cols[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    return grad_xp[:, :, padding : padding + h, padding : padding + w].copy()


class TestGoldenLowering:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3, 32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_im2col_and_col2im_match_nchw_reference(self, dtype, channels, stride, padding):
        from repro.autograd.ops_conv import col2im, im2col, staging_shape

        rng = np.random.default_rng(600 + channels * 10 + stride * 3 + padding)
        shape = (2, channels, 9, 7)
        x = _kernel_input("normal", shape, dtype, rng)
        x[rng.random(shape) < 0.2] = -0.0
        # A stale staging buffer: the border must be re-zeroed, not trusted.
        staging = np.full(staging_shape(shape, padding), np.nan, dtype=dtype)
        cols = im2col(x, 3, 3, stride, padding, staging)
        ref = _ref_im2col_matrix(x, 3, 3, stride, padding)
        assert_bits_equal(cols, ref)
        # Into a caller's buffer (the pooled-scratch path) as well.
        out = np.full_like(ref, np.nan)
        assert im2col(x, 3, 3, stride, padding, staging, out=out) is out
        assert_bits_equal(out, ref)

        grad_cols = _grad_with_signed_zeros(ref.shape, dtype, rng)
        acc = np.full(staging_shape(shape, padding), np.nan, dtype=dtype)
        grad_x = col2im(grad_cols, shape, 3, 3, stride, padding, acc)
        assert grad_x.flags.c_contiguous
        assert_bits_equal(grad_x, _ref_col2im(grad_cols, shape, 3, 3, stride, padding))


class TestConvNeedsInputGrad:
    def _grads(self, x_requires_grad):
        rng = np.random.default_rng(7)
        x = Tensor((rng.random((2, 3, 6, 6)) < 0.3).astype(np.float32), requires_grad=x_requires_grad)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        out = x.conv2d(w, b, 1, 1)
        node = out._node
        (out * out).sum().backward()
        return node, x, w, b

    def test_data_input_gets_no_gradient_and_engine_accepts_none(self):
        node, x, w, b = self._grads(x_requires_grad=False)
        assert node.ctx.needs_input_grad[:3] == (False, True, True)
        assert x.grad is None
        assert w.grad is not None and b.grad is not None

    def test_weight_and_bias_grads_do_not_depend_on_input_requires_grad(self):
        _, x_data, w_data, b_data = self._grads(x_requires_grad=False)
        _, x_leaf, w_leaf, b_leaf = self._grads(x_requires_grad=True)
        assert x_leaf.grad is not None
        assert_bits_equal(w_data.grad, w_leaf.grad)
        assert_bits_equal(b_data.grad, b_leaf.grad)


class TestTrainingBitIdentity:
    def test_train_model_identical_with_reference_kernels(self, monkeypatch):
        # The whole smoke-scale training run — parameters, loss history and
        # test accuracy — is unchanged when the frozen reference kernels are
        # swapped in, so cached records stay valid under the same
        # TRAINING_CODE_VERSION.
        from repro.autograd import ops_conv
        from repro.core.config import PAPER_DEFAULT, SCALE_PRESETS
        from repro.core.experiment import train_model
        from repro.training import Adam, Trainer

        config = PAPER_DEFAULT.with_overrides(scale=SCALE_PRESETS["smoke"])

        def train():
            model, encoder, test_loader, training = train_model(config)
            scored = Trainer(model, encoder, Adam(model.parameters(), lr=1e-3)).evaluate(test_loader)
            return [p.data.copy() for p in model.parameters()], training, scored

        new_params, new_training, new_scored = train()
        with monkeypatch.context() as m:
            m.setattr(ops_conv.MaxPool2d, "forward", staticmethod(_ref_maxpool_forward))
            m.setattr(ops_conv.MaxPool2d, "backward", staticmethod(_ref_maxpool_backward))
            m.setattr(ops_conv.Conv2d, "backward", staticmethod(_ref_conv_backward))
            ref_params, ref_training, ref_scored = train()
        assert len(new_params) == len(ref_params)
        for p, r in zip(new_params, ref_params):
            assert_bits_equal(p, r)
        assert new_training.history["train_loss"] == ref_training.history["train_loss"]
        assert new_scored == ref_scored
