"""Functional neural-network operations: convolution, pooling, losses.

Convolution uses im2col/col2im so the inner loop is a single matmul — the
standard trick that keeps a NumPy CNN usable at the small image sizes this
reproduction trains on.  All functions take and return
:class:`repro.nn.tensor.Tensor` and participate in autograd.

Under ``no_grad()`` conv, pooling and global average pooling run the
``*_k_major`` kernels below — the very functions captured plans replay
(:mod:`repro.nn.plan`) — and follow one layout rule: a 4-D feature map is
*stored* batch-innermost, ``(C, H, W, N)`` C-contiguous, and *handed
around* as an NCHW-shaped view of that storage, so every shape contract
and ``[n, c, y, x]`` index reads as before while a conv unfold moves
``W'·N``-element runs and the GEMM result already is the next op's input.
The conv works through the output in bands of whole output rows sized to
:data:`CONV_BAND_BYTES`, so a large batch's column matrix never leaves L2.
Elementwise ops need no rule (NumPy follows operand memory order); 2-D
matrices stay row-major.  The grad-recording forward keeps ``im2col`` +
``cols @ W.T`` because backward reads ``cols``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.dtypes import ensure_float, get_default_dtype
from repro.nn.grad_mode import is_grad_enabled
from repro.nn.tensor import Tensor, as_tensor


# --------------------------------------------------------------------------
# im2col / col2im
# --------------------------------------------------------------------------

def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}")
    return out


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N * out_h * out_w, C * kernel * kernel).

    The grad-recording conv and pooling forwards call this (backward
    closures retain the columns, so every call allocates); the no-grad
    path has its own ``*_k_major`` kernels and never unfolds here.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    # Explicit column count: with a zero-row batch ``reshape(0, -1)``
    # cannot infer the trailing dimension and raises.
    return (cols.transpose(0, 4, 5, 1, 2, 3)
            .reshape(n * out_h * out_w, c * kernel * kernel)), out_h, out_w


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kernel: int,
           stride: int, padding: int) -> np.ndarray:
    """Fold column gradients back to the (N, C, H, W) input gradient."""
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# --------------------------------------------------------------------------
# Convolution and pooling primitives
# --------------------------------------------------------------------------

#: bytes a band of the inference conv touches (column block + GEMM
#: result): half a 2 MiB per-core L2.
CONV_BAND_BYTES = 1 << 20


def conv_bands(c: int, kernel: int, f: int, out_h: int, out_w: int,
               rows: int, itemsize: int) -> list:
    """The ``(first, stop)`` output-row spans the inference conv works in.

    As many whole rows per band as keep its (C·K·K + F)·rows·W'·N
    elements within :data:`CONV_BAND_BYTES` bytes: at least one, all of
    them for a map that fits.
    """
    row_bytes = (c * kernel * kernel + f) * out_w * rows * itemsize
    step = max(1, CONV_BAND_BYTES // row_bytes) if row_bytes else out_h
    return [(y, min(y + step, out_h)) for y in range(0, out_h, step)]


def conv_band_views(x_t: np.ndarray, cols: np.ndarray, out: np.ndarray,
                    kernel: int, stride: int) -> list:
    """The per-band views :func:`conv_k_major` works on.

    For each :func:`conv_bands` span of ``out`` (F, H'·W'·N): the column
    block as (C, K, K, rows, W', N), its windows of the (padded) input
    ``x_t`` viewed (C, H, W, N), the block as the (C·K·K, rows·W'·N) GEMM
    operand, and the band's result columns.  Every block is the head of
    the flat scratch ``cols``, so the scratch is one band, not the map.
    Plans build the list once per row count (per run for a conv reading
    the plan's input unpadded).
    """
    # the sliding-window view, by strides: sliding_window_view's checks
    # cost 11 us a call, as much as a 10-row conv's unfold
    c, height, width, rows = x_t.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    sc, sh, sw, sn = x_t.strides
    windows = as_strided(x_t, (c, kernel, kernel, out_h, out_w, rows),
                         (sc, sh, sw, stride * sh, stride * sw, sn),
                         writeable=False)
    span = out_w * rows
    views = []
    for first, stop in conv_bands(c, kernel, out.shape[0], out_h, out_w,
                                  rows, out.itemsize):
        src = windows[:, :, :, first:stop]
        block = cols[:src.size]
        views.append((block.reshape(src.shape), src,
                      block.reshape(c * kernel * kernel, -1),
                      out[:, first * span:stop * span]))
    return views


def conv_k_major(bands: list, w_flat: np.ndarray,
                 bias_col: Optional[np.ndarray], out: np.ndarray,
                 relu: bool = False) -> None:
    """The inference conv kernel: banded K-major unfold + GEMM, bias (+ ReLU).

    ``bands`` is :func:`conv_band_views` into ``out``, the C-contiguous
    (F, H'·W'·N) batch-innermost storage of the (N, F, H', W') result.
    Per band, one copy unfolds the windows and one GEMM writes the band's
    result columns (a strided, BLAS-legal ``out=``), so a 256-row map's
    operands stay in L2.  Bias and a folded ReLU run once over ``out``
    (on a strided band block, NumPy's ufunc buffering allocates ~96 KiB
    per call).  No-grad :func:`conv2d` calls this on fresh arrays and plan
    replay (``repro.nn.plan._ConvOp``) on the contiguous head of its arena
    buffers — the same bands and BLAS calls, hence bit-identical results.
    """
    for dst, src, cols, block in bands:
        np.copyto(dst, src)
        np.matmul(w_flat, cols, out=block)
    if bias_col is not None:
        np.add(out, bias_col, out=out)
    if relu:
        np.maximum(out, 0, out=out)


def _conv2d_inference(x: np.ndarray, weight: np.ndarray,
                      bias: Optional[np.ndarray], stride: int,
                      padding: int) -> np.ndarray:
    """No-grad conv: the batch-innermost (F, H', W', N) result viewed NCHW."""
    n, c, h, w = x.shape
    f, _, kernel, _ = weight.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    dtype = np.result_type(x.dtype, weight.dtype)
    x_t = x.transpose(1, 2, 3, 0)
    if padding > 0:
        # zero buffer + interior write: ~2 us where np.pad spends ~29 us
        padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=dtype)
        padded[:, padding:-padding, padding:-padding] = x_t
        x_t = padded
    _, band = conv_bands(c, kernel, f, out_h, out_w, n, dtype.itemsize)[0]
    cols = np.empty(c * kernel * kernel * band * out_w * n, dtype)  # one band
    out = np.empty((f, out_h * out_w * n), dtype=dtype)
    conv_k_major(conv_band_views(x_t, cols, out, kernel, stride),
                 weight.reshape(f, -1),
                 None if bias is None else bias.reshape(f, 1), out)
    return out.reshape(f, out_h, out_w, n).transpose(3, 0, 1, 2)


def pool_windows(x: np.ndarray, out: np.ndarray, kernel: int,
                 stride: int) -> list:
    """The K·K shifted views of ``x`` (N, C, H, W) a pooling reduces.

    Window element (ky, kx) of every position of ``out`` (N, C, H', W')
    is one strided view of ``x``, listed in (ky, kx) order.  Plans build
    the list once per row count.
    """
    out_h, out_w = out.shape[2:]
    return [x[:, :, ky:ky + stride * out_h:stride,
              kx:kx + stride * out_w:stride]
            for ky in range(kernel) for kx in range(kernel)]


def pool_k_major(windows: list, out: np.ndarray, kind: str) -> None:
    """The inference pooling kernel: K·K shifted-view reductions into ``out``.

    ``windows`` is :func:`pool_windows` over the input, in any memory
    layout: the K·K views are folded into ``out`` in (ky, kx) order with
    ``np.maximum`` (``kind="max"``) or ``np.add`` followed by one division
    by K·K (``"avg"``).  Elementwise, so the values do not depend on the
    layout, nothing is unfolded and nothing is allocated.  Shared by
    no-grad :func:`max_pool2d` / :func:`avg_pool2d` and plan replay
    (``repro.nn.plan._PoolOp``).
    """
    fold = np.maximum if kind == "max" else np.add
    np.copyto(out, windows[0])
    for window in windows[1:]:
        fold(out, window, out=out)
    if kind == "avg":
        np.divide(out, len(windows), out=out)


def _pool2d_inference(x: np.ndarray, kernel: int, stride: int,
                      kind: str) -> np.ndarray:
    """No-grad pooling into a fresh array stored like ``x`` is."""
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, 0)
    out_w = _conv_output_size(w, kernel, stride, 0)
    out = np.empty_like(x[:, :, :out_h, :out_w])
    pool_k_major(pool_windows(x, out, kernel, stride), out, kind)
    return out


def spatial_rows(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (C, H·W, N), C-contiguous: the GAP kernel's operand.

    A view when ``x`` is stored batch-innermost (every no-grad conv and
    pooling output and every plan slot is); a map stored any other way is
    copied there, so the reduction order never depends on where ``x``
    came from.
    """
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).reshape(c, h * w, n)


def global_avg_pool_k_major(x_t: np.ndarray, ones: np.ndarray,
                            sums: np.ndarray, out: np.ndarray,
                            scale: np.ndarray) -> None:
    """The inference global-average-pool kernel.

    ``x_t`` is the feature map as :func:`spatial_rows` views it, ``ones``
    a (1, H·W) row of ones, ``sums`` a (C, 1, N) scratch and ``out`` the
    row-major (N, C) result.  One reduction over the middle axis, as C
    BLAS vector-matrix products — ``np.sum(axis=1)`` walks the same
    memory in N-element inner loops, 2x slower at 256 rows and 6x at 10 —
    then the transposing write of the small result applies ``scale``
    (1 / (H·W) in the map's dtype, ``Tensor.mean``'s rounding).  Summing
    straight into ``out.T`` costs 3x as much.  Shared by no-grad
    :func:`global_avg_pool2d` and ``repro.nn.plan._GlobalAvgPoolOp``.
    """
    np.matmul(ones, x_t, out=sums)
    np.multiply(sums[:, 0].T, scale, out=out)


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Batch rows ``rows`` of ``x`` as a fresh array stored like ``x`` is.

    A batch-innermost feature map is gathered along its last storage axis
    (``feats[rows]`` on the NCHW view walks it element by element: 513 us
    against 218 us for 90 of 256 rows of an 8x16x16 map); anything else is
    a plain leading-axis gather.
    """
    if x.ndim == 4:
        x_t = x.transpose(1, 2, 3, 0)
        if x_t.flags["C_CONTIGUOUS"]:
            return np.take(x_t, rows, axis=-1).transpose(3, 0, 1, 2)
    return x[rows]


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution: x (N,C,H,W) * weight (F,C,K,K) -> (N,F,H',W')."""
    x, weight = as_tensor(x), as_tensor(weight)
    n, c, h, w = x.data.shape
    f, wc, kh, kw = weight.data.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input {c}, weight {wc}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    if not is_grad_enabled():
        return Tensor(_conv2d_inference(
            x.data, weight.data, bias.data if bias is not None else None,
            stride, padding))
    cols, out_h, out_w = im2col(x.data, kh, stride, padding)
    w_flat = weight.data.reshape(f, -1)
    out = cols @ w_flat.T
    if bias is not None:
        out = out + bias.data.reshape(1, f)
    out = out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, f)
        weight._accumulate((grad_flat.T @ cols).reshape(weight.data.shape))
        if bias is not None:
            bias._accumulate(grad_flat.sum(axis=0))
        x._accumulate(col2im(grad_flat @ w_flat, x.data.shape, kh, stride, padding))

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over (N, C, H, W) with square windows."""
    x = as_tensor(x)
    stride = kernel if stride is None else stride
    if not is_grad_enabled():
        return Tensor(_pool2d_inference(x.data, kernel, stride, "max"))
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = im2col(reshaped, kernel, stride, 0)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax]
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_cols = np.zeros_like(cols)
        grad_cols[np.arange(cols.shape[0]), argmax] = grad.reshape(-1)
        grad_x = col2im(grad_cols, reshaped.shape, kernel, stride, 0)
        x._accumulate(grad_x.reshape(x.data.shape))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over (N, C, H, W)."""
    x = as_tensor(x)
    stride = kernel if stride is None else stride
    if not is_grad_enabled():
        return Tensor(_pool2d_inference(x.data, kernel, stride, "avg"))
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = im2col(reshaped, kernel, stride, 0)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_cols = np.repeat(grad.reshape(-1, 1), kernel * kernel, axis=1)
        grad_cols /= kernel * kernel
        grad_x = col2im(grad_cols, reshaped.shape, kernel, stride, 0)
        x._accumulate(grad_x.reshape(x.data.shape))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, C) by spatial averaging.

    NumPy's summation order depends on memory layout, so under
    ``no_grad()`` — the inference fast path — the reduction is
    :func:`global_avg_pool_k_major` over :func:`spatial_rows` of the map:
    the same call on the same layout as the captured-plan executor
    (:mod:`repro.nn.plan`), hence the same bits.  The training forward
    keeps the layout (and therefore the exact rounding) it always had.
    """
    x = as_tensor(x)
    if is_grad_enabled():
        return x.mean(axis=(2, 3))
    n, c, h, w = x.data.shape
    dtype = x.data.dtype
    out = np.empty((n, c), dtype=dtype)
    global_avg_pool_k_major(
        spatial_rows(x.data), np.ones((1, h * w), dtype=dtype),
        np.empty((c, 1, n), dtype=dtype), out,
        np.asarray(1.0 / (h * w), dtype=dtype))
    return Tensor(out)


# --------------------------------------------------------------------------
# Softmax family
# --------------------------------------------------------------------------

def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax with a custom gradient."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    softmax_vals = np.exp(out)

    def backward(grad):
        x._accumulate(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def entropy(probabilities: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Shannon entropy (nats) of a probability distribution.

    This is the confidence signal for the Fig. 7 early-exit policy: a low
    entropy classification on the local device skips the server hop.
    """
    p = np.clip(ensure_float(probabilities), eps, 1.0)
    return -(p * np.log(p)).sum(axis=axis)


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, C) and integer targets (N,)."""
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be 1-D class indices, got shape {targets.shape}")
    n = logits.data.shape[0]
    if targets.shape[0] != n:
        raise ValueError(f"batch mismatch: {n} logits vs {targets.shape[0]} targets")
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(n), targets.astype(int)]
    return -picked.mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Binary cross-entropy on logits, numerically stable."""
    logits, targets = as_tensor(logits), as_tensor(targets)
    t = targets.detach()
    # max(x, 0) - x*t + log(1 + exp(-|x|))
    relu_x = logits.relu()
    abs_x = logits.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    return (relu_x - logits * t + softplus).mean()


def smooth_l1_loss(prediction: Tensor, target: Tensor, beta: float = 1.0) -> Tensor:
    """Huber-style loss used for YOLO bounding-box regression."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target.detach()
    abs_diff = diff.abs()
    quadratic = (diff * diff) * (0.5 / beta)
    linear = abs_diff - 0.5 * beta
    from repro.nn.tensor import where
    return where(abs_diff.data < beta, quadratic, linear).mean()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer class indices -> one-hot float matrix."""
    indices = np.asarray(indices, dtype=int)
    if indices.min(initial=0) < 0 or (indices.size and indices.max() >= num_classes):
        raise ValueError("class index out of range")
    out = np.zeros((indices.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    predictions = np.asarray(logits.data if isinstance(logits, Tensor) else logits)
    return float((predictions.argmax(axis=-1) == np.asarray(targets)).mean())
