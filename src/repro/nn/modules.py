"""Layer/module system: the ``repro.nn`` equivalent of ``tf.keras`` layers.

A :class:`Module` owns :class:`Parameter` tensors and child modules, exposes
``parameters()`` / ``state_dict()`` / ``load_state_dict()`` and a train/eval
mode switch (needed by batch-norm and dropout).  Every layer family used by
the paper's models is here: dense, convolution, batch-norm, pooling, dropout,
LSTM, and ``Sequential`` composition.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.dtypes import get_default_dtype
from repro.nn.grad_mode import is_grad_enabled
from repro.nn.tensor import Tensor, concatenate, stack
from repro.runtime.rng import resolve_rng


class Parameter(Tensor):
    """A tensor registered as trainable state of a module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- attribute registration ------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode ----------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # -- state ---------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, module in self._named_buffers():
            state[name] = module.copy()
        return state

    def _named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, value in self.__dict__.items():
            if name.startswith("_buffer_"):
                yield prefix + name[len("_buffer_"):], value
        for name, module in self._modules.items():
            yield from module._named_buffers(prefix + name + ".")

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        buffers = {name: (holder, attr) for name, holder, attr in self._buffer_holders()}
        for name, value in state.items():
            if name in own:
                if own[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{own[name].data.shape} vs {value.shape}")
                own[name].data = value.copy()
            elif name in buffers:
                holder, attr = buffers[name]
                setattr(holder, "_buffer_" + attr, value.copy())
            else:
                raise KeyError(f"unexpected key in state_dict: {name}")
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"missing keys in state_dict: {sorted(missing)}")

    def _buffer_holders(self, prefix: str = ""):
        for name in self.__dict__:
            if name.startswith("_buffer_"):
                yield prefix + name[len("_buffer_"):], self, name[len("_buffer_"):]
        for name, module in self._modules.items():
            yield from module._buffer_holders(prefix + name + ".")

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer in-place to ``dtype``.

        Used by the inference fast path to turn a trained float64 module
        into a float32 deployment copy; gradients are dropped because a
        cast module is not meant to be trained further.  Non-float state
        (e.g. the int8 weight buffers of a quantized layer) is left
        untouched — casting it to float would destroy the quantization.
        """
        resolved = np.dtype(dtype)
        for module in self.modules():
            for param in module._parameters.values():
                if np.issubdtype(param.data.dtype, np.floating):
                    param.data = param.data.astype(resolved, copy=False)
                param.grad = None
            for name, value in list(module.__dict__.items()):
                if (name.startswith("_buffer_") and isinstance(value, np.ndarray)
                        and np.issubdtype(value.dtype, np.floating)):
                    object.__setattr__(
                        module, name, value.astype(resolved, copy=False))
        return self

    # -- call ------------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Identity(Module):
    """Pass-through module (what a folded BatchNorm collapses into)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully-connected layer: y = x @ W.T + b."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.modules.linear")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution layer over (N, C, H, W) inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.modules.conv2d")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.kaiming_uniform(
            (out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of (N, C, H, W)."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self._buffer_running_mean = init.zeros((num_features,))
        self._buffer_running_var = init.ones((num_features,))

    def forward(self, x: Tensor) -> Tensor:
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        view = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            self._buffer_running_mean = (
                (1 - self.momentum) * self._buffer_running_mean
                + self.momentum * mean.data.reshape(-1))
            self._buffer_running_var = (
                (1 - self.momentum) * self._buffer_running_var
                + self.momentum * var.data.reshape(-1))
        else:
            mean = Tensor(self._buffer_running_mean.reshape(view))
            var = Tensor(self._buffer_running_var.reshape(view))
        normalized = (x - mean) / ((var + self.eps) ** 0.5)
        return normalized * self.gamma.reshape(view) + self.beta.reshape(view)


class BatchNorm1d(BatchNorm2d):
    """Batch normalization over (N, F) inputs."""


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = resolve_rng(rng, "nn.modules.dropout")

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask.astype(x.data.dtype, copy=False))


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """(N, ...) -> (N, prod(...)), row-major.

    A feature map stored batch-innermost (the no-grad layout, see
    :mod:`repro.nn.functional`) reshapes to a *transposed* view of its
    storage; under ``no_grad()`` that is copied back to row-major, so the
    ``Linear`` that follows runs the same GEMM whatever produced the map
    — and captured plans replay exactly this copy.
    """

    def forward(self, x: Tensor) -> Tensor:
        out = x.reshape(x.shape[0], -1)
        if not is_grad_enabled() and not out.data.flags["C_CONTIGUOUS"]:
            out = Tensor(np.ascontiguousarray(out.data))
        return out


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Sequential(Module):
    """Compose modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


class LSTMCell(Module):
    """Single LSTM cell with the standard four-gate parameterization."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.modules.lstm_cell")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(init.xavier_uniform((4 * hidden_size, hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.weight_ih.T + h_prev @ self.weight_hh.T + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs:1 * hs].sigmoid()
        f = gates[:, 1 * hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size),
                         dtype=self.weight_ih.data.dtype)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer LSTM over (N, T, F) sequences.

    Returns the full hidden sequence of the top layer, shape (N, T, H).
    This is the RNN module family of Sec. III-B.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1: {num_layers}")
        rng = resolve_rng(rng, "nn.modules.lstm")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size,
                            hidden_size, rng=rng)
            setattr(self, f"cell{layer}", cell)
            self.cells.append(cell)

    def forward(self, x: Tensor) -> Tensor:
        batch, steps, _ = x.shape
        layer_input = [x[:, t, :] for t in range(steps)]
        for cell in self.cells:
            h, c = cell.initial_state(batch)
            outputs = []
            for step_input in layer_input:
                h, c = cell(step_input, (h, c))
                outputs.append(h)
            layer_input = outputs
        return stack(layer_input, axis=1)

    def last_hidden(self, x: Tensor) -> Tensor:
        """Convenience: hidden state at the final time step, shape (N, H)."""
        sequence = self.forward(x)
        return sequence[:, sequence.shape[1] - 1, :]


class Embedding(Module):
    """Token-id -> dense vector lookup table (for the NLP pipeline)."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.modules.embedding")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0, 0.1, (num_embeddings, embedding_dim))
                                .astype(get_default_dtype(), copy=False))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ValueError("embedding index out of range")
        return self.weight[indices]
