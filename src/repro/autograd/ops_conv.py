"""2-D convolution and pooling operations (im2col based).

These are the computational workhorses of the paper's convolutional SNN
(`32C3-MP2-32C3-MP2-256-10`).  The forward/backward passes use an
``as_strided`` im2col lowering so convolution becomes a single large matrix
product, which keeps per-timestep BPTT affordable in pure NumPy.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.autograd.function import Context, Function

# ---------------------------------------------------------------------- #
# Scratch buffers
#
# During a T-timestep pass every timestep runs its own Conv2d forward (and,
# under BPTT, backward), and the large temporaries each call needs have the
# same shape at every timestep: the padded input, the im2col matrix
# ``conv_cols`` (the backward re-lowers into it for the weight gradient,
# next to ``conv_goT``, the transposed output gradient), the GEMM output,
# the gradient columns, the padded gradient accumulator and MaxPool2d's
# window mask.  They come from a per-process pool keyed by (tag, shape,
# dtype).  Calls run sequentially within a process (the autograd engine is
# single-threaded; sweep workers are separate processes), every call fills
# a scratch buffer before reading it, and any array that outlives a call —
# the forward output, the returned gradients, anything saved in the ctx —
# is a fresh allocation or copied out of the scratch space first.  So no
# pooled buffer is retained across timesteps: the forward saves only the
# *unpadded* input (alive in the graph anyway), not its column matrix.
# ---------------------------------------------------------------------- #
_SCRATCH: Dict[Tuple[str, Tuple[int, ...], str], np.ndarray] = {}


def _scratch(tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Return a reusable uninitialised buffer for ``tag`` at ``shape``."""
    key = (tag, tuple(shape), np.dtype(dtype).str)
    buf = _SCRATCH.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        _SCRATCH[key] = buf
    return buf


def clear_scratch() -> None:
    """Drop all pooled conv scratch buffers (frees memory; used by tests)."""
    _SCRATCH.clear()


def _padded_input(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` zero-padded into pooled scratch (``x`` itself when unpadded).

    Value-identical to ``np.pad(x, ...)`` — a C-contiguous array with a
    zero border and the input copied into the interior — without the per
    call allocation.  The buffer is shared by forward and backward (both
    fill it before use, neither retains it past the call).
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = _scratch("conv_xp", (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    xp.fill(0)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Lower an NCHW tensor to column form.

    Returns an array of shape ``(N, C, KH, KW, OH, OW)`` that is a *view*
    into ``x`` (no copy), suitable for a tensordot against the kernel.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    return as_strided(x, shape=shape, strides=strides)


def conv_output_shape(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a square-kernel convolution."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow


class Conv2d(Function):
    """Cross-correlation (``stride`` and symmetric zero ``padding``).

    Input ``x``: ``(N, C_in, H, W)``; weight: ``(C_out, C_in, KH, KW)``;
    optional bias ``(C_out,)``.  Output: ``(N, C_out, OH, OW)``.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        xp = _padded_input(x, padding)
        c_out, c_in, kh, kw = weight.shape
        cols = _im2col(xp, kh, kw, stride)
        n = x.shape[0]
        oh, ow = cols.shape[4], cols.shape[5]
        # (N, C, KH, KW, OH, OW) x (C_out, C, KH, KW) -> (N, OH, OW, C_out),
        # computed as one GEMM into pooled scratch, replicating tensordot's
        # operand layouts exactly so the result stays bit-identical: the
        # column matrix is the same C-contiguous copy tensordot would make,
        # and the weight stays the same transposed *view* (reshape of a
        # C-contiguous kernel merges cleanly, so BLAS sees TransB either way).
        cols_mat = _scratch("conv_cols", (n * oh * ow, c_in * kh * kw), x.dtype)
        np.copyto(cols_mat.reshape(n, oh, ow, c_in, kh, kw), cols.transpose(0, 4, 5, 1, 2, 3))
        wt = weight.reshape(c_out, c_in * kh * kw).T
        out_mat = _scratch("conv_out", (n * oh * ow, c_out), x.dtype)
        np.matmul(cols_mat, wt, out=out_mat)
        # The returned output enters the graph, so it is a fresh allocation
        # copied out of the scratch space (NCHW, C-contiguous).
        out = np.empty((n, c_out, oh, ow), dtype=out_mat.dtype)
        np.copyto(out, out_mat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))
        if bias is not None:
            out += bias[None, :, None, None]
        # Save the *unpadded* input: it is already retained by the graph, so
        # this adds no memory, and the backward re-pads into scratch.
        ctx.save_for_backward(x, weight, bias is not None, stride, padding)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x, weight, has_bias, stride, padding = ctx.saved
        xp = _padded_input(x, padding)
        c_out, c_in, kh, kw = weight.shape
        go = np.asarray(grad_output)
        n, _, oh, ow = go.shape
        # Weight gradient (C_out, N·OH·OW) @ (N·OH·OW, C·KH·KW): both operands
        # are the C-contiguous copies np.tensordot would build, made in pooled
        # scratch, so the GEMM and its result are bit-identical to tensordot's.
        cols_mat = _scratch("conv_cols", (n * oh * ow, c_in * kh * kw), x.dtype)
        cols = _im2col(xp, kh, kw, stride)
        np.copyto(cols_mat.reshape(n, oh, ow, c_in, kh, kw), cols.transpose(0, 4, 5, 1, 2, 3))
        go_t = _scratch("conv_goT", (c_out, n * oh * ow), go.dtype)
        np.copyto(go_t.reshape(c_out, n, oh, ow), go.transpose(1, 0, 2, 3))
        grad_w = np.dot(go_t, cols_mat).reshape(weight.shape)
        grad_b = go.sum(axis=(0, 2, 3)) if has_bias else None
        if not ctx.needs_input_grad[0]:
            return None, grad_w, grad_b, None, None

        # Input gradient: scatter the weighted output gradient back through
        # the column lowering.  (N, C_out, OH, OW) x (C_out, C, KH, KW) ->
        # (N, OH, OW, C, KH, KW), computed as one matmul into pooled scratch.
        go_mat = _scratch("conv_go", (n * oh * ow, c_out), go.dtype)
        np.copyto(go_mat.reshape(n, oh, ow, c_out), go.transpose(0, 2, 3, 1))
        grad_cols_mat = _scratch("conv_gcols", (n * oh * ow, c_in * kh * kw), go.dtype)
        np.matmul(go_mat, weight.reshape(c_out, c_in * kh * kw), out=grad_cols_mat)
        grad_cols = grad_cols_mat.reshape(n, oh, ow, c_in, kh, kw)

        grad_xp = _scratch("conv_gxp", xp.shape, go.dtype)
        grad_xp.fill(0)
        # Accumulate each kernel offset in a vectorised slice-add (col2im).
        for i in range(kh):
            for j in range(kw):
                grad_xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                    grad_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        # Copy the result out of the scratch space: the returned gradient is
        # held by the autograd engine while later backward calls reuse it.
        if padding > 0:
            h, w = x.shape[2], x.shape[3]
            grad_x = grad_xp[:, :, padding : padding + h, padding : padding + w].copy()
        else:
            grad_x = grad_xp.copy()
        return grad_x, grad_w, grad_b, None, None


class MaxPool2d(Function):
    """Non-overlapping max pooling (kernel == stride), as used in the paper.

    Both passes work on the k² strided window views ``x[:, :, i::k, j::k]``
    and save one uint8 offset per output.  The running max is replaced only
    where an offset is strictly greater, so the *first* maximum in row-major
    order wins (``argmax``'s rule on NaN-free input, signed zeros included);
    on ties, which binary spike maps are full of, it gets the whole gradient.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: int = 2) -> np.ndarray:
        oh, ow = x.shape[2] // kernel, x.shape[3] // kernel
        out = x[:, :, : oh * kernel : kernel, : ow * kernel : kernel].copy()
        idx = np.zeros(out.shape, dtype=np.uint8 if kernel * kernel <= 255 else np.intp)
        wins = _scratch("pool_mask", out.shape, np.bool_)
        for k in range(1, kernel * kernel):
            i, j = divmod(k, kernel)
            view = x[:, :, i : oh * kernel : kernel, j : ow * kernel : kernel]
            np.greater(view, out, out=wins)
            np.copyto(out, view, where=wins)
            np.copyto(idx, k, where=wins)
        ctx.save_for_backward(idx, x.shape, kernel)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        idx, x_shape, kernel = ctx.saved
        oh, ow = idx.shape[2], idx.shape[3]
        go = np.asarray(grad_output)
        grad = np.zeros(x_shape, dtype=go.dtype)
        hits = _scratch("pool_mask", idx.shape, np.bool_)
        for k in range(kernel * kernel):
            i, j = divmod(k, kernel)
            np.equal(idx, k, out=hits)
            np.copyto(grad[:, :, i : oh * kernel : kernel, j : ow * kernel : kernel], go, where=hits)
        return grad, None


class AvgPool2d(Function):
    """Non-overlapping average pooling (kernel == stride)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: int = 2) -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = h // kernel, w // kernel
        trimmed = x[:, :, : oh * kernel, : ow * kernel]
        windows = trimmed.reshape(n, c, oh, kernel, ow, kernel)
        ctx.save_for_backward(x.shape, kernel)
        return windows.mean(axis=(3, 5))

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x_shape, kernel = ctx.saved
        n, c, h, w = x_shape
        oh, ow = h // kernel, w // kernel
        go = np.asarray(grad_output) / (kernel * kernel)
        grad_trimmed = np.repeat(np.repeat(go, kernel, axis=2), kernel, axis=3)
        if oh * kernel == h and ow * kernel == w:
            return grad_trimmed, None
        grad = np.zeros(x_shape, dtype=grad_trimmed.dtype)
        grad[:, :, : oh * kernel, : ow * kernel] = grad_trimmed
        return grad, None
