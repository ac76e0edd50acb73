"""``repro.nn`` — a numpy-backed neural-network substrate.

This package stands in for PyTorch in the FreewayML reproduction (the
evaluation environment is offline and has no ``torch``).  It provides:

- :class:`~repro.nn.tensor.Tensor` with reverse-mode autograd,
- ``torch.nn``-style modules (:class:`Linear`, :class:`Conv2d`, pooling,
  activations, :class:`Sequential`) with ``state_dict`` support,
- optimizers (:class:`SGD`, :class:`Adam`) plus the :class:`FOBOS` and
  :class:`RDA` online-learning updates used by the Alink baseline,
- checkpoint serialization utilities used by the historical-knowledge store.
"""

from . import functional, init, plan, serialization, stacked
from .modules import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import RDA, SGD, Adam, FOBOS, Optimizer
from .stacked import (
    ModelStack,
    StackedAdam,
    StackedModelError,
    StackedSGD,
    make_stacked_optimizer,
    stack_models,
    stacked_fit,
    unstack_models,
)
from .tensor import Tensor, is_grad_enabled, no_grad, ones, tensor, zeros

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "plan",
    "serialization",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Flatten",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "FOBOS",
    "RDA",
    "stacked",
    "ModelStack",
    "StackedModelError",
    "StackedSGD",
    "StackedAdam",
    "stack_models",
    "unstack_models",
    "stacked_fit",
    "make_stacked_optimizer",
]
