"""From-scratch NumPy deep-learning framework (the paper's TensorFlow role).

Subpackages:

- :mod:`repro.nn.tensor` — reverse-mode autograd over NumPy arrays.
- :mod:`repro.nn.modules` — layers: Linear, Conv2d, BatchNorm, LSTM, ...
- :mod:`repro.nn.functional` — conv/pool primitives, softmax family, losses.
- :mod:`repro.nn.optim` — SGD, Adam.
- :mod:`repro.nn.data` — fit, the one training loop.
- :mod:`repro.nn.models` — the paper's model families (CNN, ResNet with the
  Fig. 8 conv-shortcut block, LSTM classifiers, YOLO-style
  detectors with the Fig. 5 early-exit split, autoencoders, CCA).
- :mod:`repro.nn.flops` — static FLOP estimation for fog placement.
"""

from repro.nn.tensor import Tensor, as_tensor, concatenate, stack
from repro.nn import functional
from repro.nn.dtypes import ensure_float
from repro.nn.grad_mode import (
    enable_grad,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    LSTM,
    LSTMCell,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.fuse import fuse_for_inference
from repro.nn.inference import (
    batched_forward,
    eval_mode,
    observe_inference,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.data import DataParallelTrainer, fit
from repro.nn.serialization import load_state, save_state
from repro.nn.flops import activation_size_bytes, estimate_flops
from repro.nn.plan import InferencePlan, PlanCache, PlanError, capture_plan
from repro.nn.quantize import (
    QuantizedConv2d,
    QuantizedLinear,
    measure_quantization_drop,
    quantize_for_inference,
    quantized_state_bytes,
)
from repro.nn.distributed import AsyncWorker, ParameterServer, ParameterServerTrainer

__all__ = [
    "Tensor", "as_tensor", "concatenate", "stack",
    "functional",
    "no_grad", "enable_grad", "is_grad_enabled", "set_grad_enabled",
    "ensure_float",
    "fuse_for_inference",
    "batched_forward", "eval_mode", "observe_inference",
    "Module", "Parameter", "Sequential", "Linear", "Conv2d", "BatchNorm2d",
    "ReLU", "LeakyReLU", "Identity", "Flatten", "MaxPool2d", "GlobalAvgPool2d",
    "LSTM", "LSTMCell",
    "Optimizer", "SGD", "Adam",
    "DataParallelTrainer", "fit",
    "save_state", "load_state",
    "estimate_flops", "activation_size_bytes",
    "capture_plan", "InferencePlan", "PlanCache", "PlanError",
    "QuantizedConv2d", "QuantizedLinear", "quantize_for_inference",
    "quantized_state_bytes", "measure_quantization_drop",
    "ParameterServer", "AsyncWorker", "ParameterServerTrainer",
]
