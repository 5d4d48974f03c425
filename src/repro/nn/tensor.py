"""Reverse-mode automatic differentiation over NumPy arrays.

This is the foundation of ``repro.nn``, the paper's TensorFlow substitute
(Sec. II-C-1).  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it; :meth:`Tensor.backward` walks the recorded graph in
reverse topological order accumulating gradients.

Only the operations needed by the paper's model families (CNN / ResNet /
LSTM / YOLO / autoencoders) are implemented, each with full
broadcasting support where NumPy broadcasts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.dtypes import DEFAULT_DTYPE
from repro.nn.grad_mode import is_grad_enabled

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an optional gradient and an autograd tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(np.dtype(dtype), copy=False)
        elif not (array.dtype.kind == "f" and array.dtype.itemsize >= 4):
            # Ints, bools, lists, float16: promote under the dtype policy.
            # float32/float64 inputs keep their own precision.
            array = array.astype(DEFAULT_DTYPE)
        self.data = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.data.shape} ({self.data.size} elements)")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """A detached copy cast to ``dtype`` (no-op copy avoided)."""
        return Tensor(self.data.astype(np.dtype(dtype), copy=False),
                      requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- pickling -------------------------------------------------------------
    def __getstate__(self):
        """Pickle data/grad/flags only: backward closures capture arbitrary
        context (activations, other tensors) and cannot cross a process
        boundary, so a round-trip detaches from the autograd graph while
        preserving values, dtype and accumulated gradient."""
        return {"data": self.data, "grad": self.grad,
                "requires_grad": self.requires_grad}

    def __setstate__(self, state) -> None:
        self.data = state["data"]
        self.grad = state["grad"]
        self.requires_grad = state["requires_grad"]
        self._backward = None
        self._parents = ()

    # -- graph construction ---------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        # Under no_grad() the closure and parent tuple are never attached:
        # no graph is retained and intermediate activations die immediately.
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(
            np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from this scalar tensor through the recorded graph."""
        if not self.requires_grad:
            raise ValueError("called backward() on a tensor that does not require grad")
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        grad = np.ones_like(self.data)
        # Topological order via iterative DFS.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, like=self)

        def backward(grad):
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, like=self))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, like=self) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, like=self)

        def backward(grad):
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, like=self)

        def backward(grad):
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, like=self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, like=self)

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim == 1:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other._accumulate(np.outer(a, grad))
            elif b.ndim == 1:
                self._accumulate(np.outer(grad, b) if a.ndim == 2
                                 else grad[..., None] * b)
                other._accumulate(_unbroadcast(
                    (np.swapaxes(a, -1, -2) @ grad[..., None])[..., 0], b.shape))
            else:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
                other._accumulate(np.swapaxes(a, -1, -2) @ grad)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # -- comparisons (no gradient) ---------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    # -- elementwise nonlinearities ---------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        # Plans replay this expression with ``out=``; -0.0 and -inf give +0.0.
        out_data = np.maximum(self.data, 0)

        def backward(grad):
            self._accumulate(grad * (out_data > 0))

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.1) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(
            self.data.dtype, copy=False)

        def backward(grad):
            self._accumulate(grad * scale)

        return Tensor._make(self.data * scale, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad):
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is None:
                mask = (self.data == self.data.max())
                self._accumulate(g * mask / mask.sum())
            else:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(self.data.dtype)
                mask /= mask.sum(axis=axis, keepdims=True)
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward)

    # -- shape manipulation ----------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad):
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(self.data[index], (self,), backward)


def as_tensor(value: ArrayLike, like: Optional[Tensor] = None) -> Tensor:
    """Coerce to :class:`Tensor` without copying when already one.

    With ``like`` given, bare Python/NumPy scalars adopt the companion
    tensor's dtype — under NumPy's promotion rules a 0-d float64 operand
    would otherwise silently upcast a float32 array, defeating the dtype
    policy on expressions like ``x * (1.0 / n)``.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None and np.ndim(value) == 0:
        return Tensor(value, dtype=like.data.dtype)
    return Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        for i, tensor in enumerate(tensors):
            index = [slice(None)] * grad.ndim
            index[axis] = i
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward)

