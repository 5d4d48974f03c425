"""Functional neural-network operations: convolution, pooling, losses.

Convolution uses im2col/col2im so the inner loop is a single matmul — the
standard trick that keeps a NumPy CNN usable at the small image sizes this
reproduction trains on.  All functions take and return
:class:`repro.nn.tensor.Tensor` and participate in autograd.

Under ``no_grad()`` :func:`conv2d` runs :func:`conv_k_major`, the kernel
captured plans replay; the grad-recording forward keeps ``cols @ W.T``
because backward reads ``cols``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

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


#: scratch buffers reused by :func:`im2col` under ``no_grad()`` (pooling;
#: conv has its own inference kernel), keyed on the full unfold geometry +
#: dtype.  Bounded: a sweep over many input shapes clears the cache
#: instead of hoarding one buffer pair per shape.
_IM2COL_SCRATCH: dict = {}
_IM2COL_SCRATCH_MAX = 32


def _im2col_scratch(key, cols_shape: Tuple[int, ...],
                    out_shape: Tuple[int, int], dtype) -> Tuple[np.ndarray, np.ndarray]:
    entry = _IM2COL_SCRATCH.get(key)
    if entry is None:
        if len(_IM2COL_SCRATCH) >= _IM2COL_SCRATCH_MAX:
            _IM2COL_SCRATCH.clear()
        entry = (np.empty(cols_shape, dtype=dtype),
                 np.empty(out_shape, dtype=dtype))
        _IM2COL_SCRATCH[key] = entry
    return entry


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N * out_h * out_w, C * kernel * kernel).

    Under ``no_grad()`` the unfold and output buffers come from a
    shape-keyed scratch cache: the next same-geometry call *reuses* (and
    overwrites) them, eliminating the two large allocations per conv in
    the inference hot loop.  Callers must therefore consume the returned
    array before unfolding the same geometry again — every caller in
    this module reduces it to a fresh array immediately.  With autograd
    on, backward closures retain the columns, so that path always
    allocates fresh buffers.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols_shape = (n, c, kernel, kernel, out_h, out_w)
    reuse = not is_grad_enabled()
    if reuse:
        cols, out = _im2col_scratch(
            (cols_shape, stride, padding, x.dtype.str), cols_shape,
            (n * out_h * out_w, c * kernel * kernel), x.dtype)
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    if reuse:
        # Write the column layout straight into the flat scratch buffer:
        # the reshape view makes the transpose copy land in `out`, where
        # a plain transpose().reshape() would allocate a second array.
        out.reshape(n, out_h, out_w, c, kernel, kernel)[...] = (
            cols.transpose(0, 4, 5, 1, 2, 3))
        return out, out_h, out_w
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

def conv_k_major(x_t: np.ndarray, cols_t: np.ndarray, w_flat: np.ndarray,
                 bias_col: Optional[np.ndarray], out: np.ndarray,
                 stride: int) -> None:
    """The inference conv kernel: K-major unfold, one GEMM, bias, into ``out``.

    ``x_t`` is the padded input viewed (C, N, H, W); ``cols_t`` the
    (C, K, K, N, H', W') view of a C-contiguous (C·K·K, N·H'·W') column
    matrix, so each of the K·K strided copies lands in final position;
    ``out`` is (F, N·H'·W'), C-contiguous.  No-grad :func:`conv2d` calls
    this on fresh arrays and plan replay (``repro.nn.plan._ConvOp``) on
    the contiguous head of its arena buffers — the same BLAS call with
    the same shapes and leading dimensions, hence bit-identical results.
    """
    c, kernel, _, _, out_h, out_w = cols_t.shape
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols_t[:, ky, kx] = x_t[:, :, ky:y_end:stride, kx:x_end:stride]
    np.matmul(w_flat, cols_t.reshape(c * kernel * kernel, -1), out=out)
    if bias_col is not None:
        np.add(out, bias_col, out=out)


def _conv2d_inference(x: np.ndarray, weight: np.ndarray,
                      bias: Optional[np.ndarray], stride: int,
                      padding: int) -> np.ndarray:
    """No-grad conv: the channel-major (F, N, H', W') result viewed as NCHW."""
    n, c, h, w = x.shape
    f, _, kernel, _ = weight.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dtype = np.result_type(x.dtype, weight.dtype)
    cols_t = np.empty((c, kernel, kernel, n, out_h, out_w), dtype=dtype)
    out = np.empty((f, n * out_h * out_w), dtype=dtype)
    conv_k_major(x.transpose(1, 0, 2, 3), cols_t, weight.reshape(f, -1),
                 None if bias is None else bias.reshape(f, 1), out, stride)
    return out.reshape(f, n, out_h, out_w).transpose(1, 0, 2, 3)


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

    Conv outputs arrive as transposed views; NumPy's pairwise summation
    order depends on memory layout, so reducing the view directly gives a
    layout-dependent rounding.  Under ``no_grad()`` — the inference fast
    path — the input is normalized to C-contiguous first, which makes
    the reduction faster *and* bit-identical to the captured-plan
    executor (:mod:`repro.nn.plan`), whose arena buffers are contiguous.
    The training forward keeps the layout (and therefore the exact
    rounding) it always had.
    """
    x = as_tensor(x)
    if not is_grad_enabled() and not x.data.flags["C_CONTIGUOUS"]:
        x = Tensor(np.ascontiguousarray(x.data))
    return x.mean(axis=(2, 3))


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
