"""2-D convolution and pooling operations (im2col based).

These are the computational workhorses of the paper's convolutional SNN
(`32C3-MP2-32C3-MP2-256-10`).  The forward/backward passes lower the input
to a column matrix (:func:`im2col`, staged channels-last) so convolution
becomes a single large matrix product, which keeps per-timestep BPTT
affordable in pure NumPy.  The compiled runtime's conv kernel runs the same
:func:`conv2d_forward`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.autograd.function import Context, Function

# ---------------------------------------------------------------------- #
# Scratch buffers
#
# During a T-timestep pass every timestep runs its own Conv2d forward (and,
# under BPTT, backward), and the large temporaries each call needs have the
# same shape at every timestep: the channels-last staging copy of the input
# ``conv_xs``, the column matrix ``conv_cols`` (the backward re-lowers into
# it for the weight gradient, next to ``conv_goT``, the transposed output
# gradient), the GEMM output, the gradient columns, the channels-last
# gradient accumulator and MaxPool2d's window mask.  They come from a
# per-process pool keyed by (tag, shape, dtype).  Calls run sequentially
# within a process (the autograd engine is single-threaded; sweep workers
# are separate processes), every call fills a scratch buffer before reading
# it, and any array that outlives a call — the forward output, the returned
# gradients, anything saved in the ctx — is a fresh allocation or copied out
# of the scratch space first.  So no pooled buffer is retained across
# timesteps: the forward saves only the input (alive in the graph anyway),
# not its column matrix.  The compiled runtime shares the lowering but not
# the pool: it serves one plan per thread, so it passes its own buffers.
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


def conv_output_shape(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a square-kernel convolution."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow


def _out_hw(x_shape: Tuple[int, ...], kh: int, kw: int, stride: int, padding: int) -> Tuple[int, int]:
    return (x_shape[2] + 2 * padding - kh) // stride + 1, (x_shape[3] + 2 * padding - kw) // stride + 1


def staging_shape(x_shape: Tuple[int, ...], padding: int) -> Tuple[int, int, int, int]:
    """Shape ``(N, H+2p, W+2p, C)`` of the channels-last buffer :func:`im2col` stages into."""
    n, c, h, w = x_shape
    return (n, h + 2 * padding, w + 2 * padding, c)


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    staging: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lower NCHW ``x`` to its ``(N·OH·OW, C·KH·KW)`` column matrix.

    ``x`` is copied once into ``staging`` (shape :func:`staging_shape`,
    dtype of ``x``), a channels-last buffer whose border this zeroes; the
    matrix (``out``, or a fresh array) is then filled with KH·KW slab
    copies, each reading whole contiguous channel vectors.  Columns are
    ordered (C, KH, KW): byte for byte the C-contiguous matrix
    ``np.tensordot`` builds from the strided NCHW window view, so a GEMM on
    it is bit-identical to the tensordot contraction.
    """
    n, c, h, w = x.shape
    p = padding
    oh, ow = _out_hw(x.shape, kh, kw, stride, p)
    if p:
        staging[:, :p] = 0
        staging[:, p + h :] = 0
        staging[:, p : p + h, :p] = 0
        staging[:, p : p + h, p + w :] = 0
    staging[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
    if out is None:
        out = np.empty((n * oh * ow, c * kh * kw), dtype=x.dtype)
    cols = out.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j] = staging[:, i : i + oh * stride : stride, j : j + ow * stride : stride]
    return out


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    acc: np.ndarray,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum a column matrix back onto NCHW ``x_shape``.

    ``acc`` (shape :func:`staging_shape`) is a channels-last accumulator:
    it is zeroed, each kernel offset is one slice-add of contiguous channel
    vectors, in the same (i, j) order as an NCHW accumulation, so every
    element sees the same additions in the same order; one transposing copy
    returns a fresh C-contiguous NCHW array.
    """
    n, c, h, w = x_shape
    oh, ow = _out_hw(x_shape, kh, kw, stride, padding)
    grad_cols = cols.reshape(n, oh, ow, c, kh, kw)
    acc.fill(0)
    for i in range(kh):
        for j in range(kw):
            acc[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += grad_cols[..., i, j]
    return acc[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2).copy()


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    staging: np.ndarray,
    cols: np.ndarray | None = None,
    gemm_out: np.ndarray | None = None,
) -> np.ndarray:
    """NCHW cross-correlation: :func:`im2col`, one GEMM, one NCHW copy, bias.

    The one forward of :class:`Conv2d` and the compiled runtime's conv
    kernel.  ``cols`` and ``gemm_out`` are optional buffers for the column
    matrix and the ``(N·OH·OW, C_out)`` GEMM result; the returned output is
    always a fresh C-contiguous allocation.
    """
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    oh, ow = _out_hw(x.shape, kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding, staging, out=cols)
    # The weight stays a transposed *view* (reshape of a C-contiguous kernel
    # merges cleanly), so BLAS sees TransB, as it does under tensordot.
    gemm_out = np.matmul(cols, weight.reshape(c_out, c_in * kh * kw).T, out=gemm_out)
    out = np.empty((n, c_out, oh, ow), dtype=gemm_out.dtype)
    np.copyto(out, gemm_out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias[None, :, None, None]
    return out


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
        c_out, c_in, kh, kw = weight.shape
        n = x.shape[0]
        oh, ow = _out_hw(x.shape, kh, kw, stride, padding)
        out = conv2d_forward(
            x,
            weight,
            bias,
            stride,
            padding,
            _scratch("conv_xs", staging_shape(x.shape, padding), x.dtype),
            cols=_scratch("conv_cols", (n * oh * ow, c_in * kh * kw), x.dtype),
            gemm_out=_scratch("conv_out", (n * oh * ow, c_out), x.dtype),
        )
        # Save the input, not its column matrix: the input is already
        # retained by the graph, so this adds no memory, and the backward
        # re-lowers into scratch.
        ctx.save_for_backward(x, weight, bias is not None, stride, padding)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x, weight, has_bias, stride, padding = ctx.saved
        c_out, c_in, kh, kw = weight.shape
        go = np.asarray(grad_output)
        n, _, oh, ow = go.shape
        # Weight gradient (C_out, N·OH·OW) @ (N·OH·OW, C·KH·KW): both operands
        # are the C-contiguous copies np.tensordot would build, made in pooled
        # scratch, so the GEMM and its result are bit-identical to tensordot's.
        xs = _scratch("conv_xs", staging_shape(x.shape, padding), x.dtype)
        cols_mat = _scratch("conv_cols", (n * oh * ow, c_in * kh * kw), x.dtype)
        im2col(x, kh, kw, stride, padding, xs, out=cols_mat)
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
        # The returned gradient is a fresh array: the autograd engine holds
        # it while later backward calls reuse the scratch space.
        grad_xs = _scratch("conv_gxs", xs.shape, go.dtype)
        grad_x = col2im(grad_cols_mat, x.shape, kh, kw, stride, padding, grad_xs)
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
