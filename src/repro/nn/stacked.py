"""Stacked multi-model execution: N same-architecture models, one program.

Most tenants of the serving layer run the *same architecture* (LR / MLP)
with different parameters, so executing them one at a time pays the
Python/autograd overhead N times for tiny tensors.  :func:`stack_models`
stacks N models' parameters along a leading model axis — the canonical
per-model layout is exactly what ``state_spec``/``flatten_state`` in
:mod:`repro.distributed.backends` flatten, here extended with a model
axis — and :class:`ModelStack` runs one batched forward/backward for all
N at once.  :class:`StackedSGD` / :class:`StackedAdam` run the ``SGD`` /
``Adam`` step over the stacked parameters and import/export per-model
optimizer state, so a group of mid-training models can be stacked,
stepped, and unstacked at any point.

**Equivalence contract.**  The stack runs the same
:mod:`repro.nn.functional` ops as a single model (``fused_linear``,
``dropout``, ``cross_entropy``, ``softmax``), with the model axis in
front, so every operation replays per model slice the exact float
operations of the serial per-model path: batched ``np.matmul`` over a
leading axis computes each slice with the same gemm as the 2-D call,
elementwise ufuncs and per-row reductions are slice-identical, and
Dropout draws each model's mask from that model's own generator in the
serial order.  Stacked steps are not plan-captured: fleet size and row
count both vary per dispatch round, so such plans churn instead of
replaying (docs/PERF.md).  Predictions, losses, updated
parameters, and optimizer state after :func:`unstack_models` are
therefore **bitwise-identical** to running each model alone (asserted in
``tests/test_stacked.py`` and gated in ``benchmarks/bench_hotpath.py
--stacked``).

Only architectures built from ``Linear``, the fusable activations,
``Dropout``, ``Flatten``, and ``Sequential`` can stack; anything else
(e.g. ``Conv2d``) raises :class:`StackedModelError` and callers fall
back to the serial loop.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .modules import (
    _FUSABLE_ACTIVATIONS,
    Dropout,
    Flatten,
    Linear,
    Module,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam
from .tensor import Tensor, no_grad

__all__ = [
    "StackedModelError",
    "ModelStack",
    "stack_models",
    "unstack_models",
    "architecture_key",
    "stacked_fit",
    "StackedSGD",
    "StackedAdam",
    "make_stacked_optimizer",
]


class StackedModelError(ValueError):
    """A model set cannot be stacked (heterogeneous, unsupported, …)."""


def _flatten_layers(module: Module) -> list[Module]:
    """The module tree as a flat layer sequence (Sequential unrolled)."""
    if type(module) is Sequential:
        return [leaf for layer in module.layers
                for leaf in _flatten_layers(layer)]
    return [module]


def architecture_key(module: Module) -> tuple:
    """Hashable fingerprint of a module's stackable architecture.

    Two modules share a key iff they can stack together: same layer
    sequence (types + Linear dimensions + Dropout rates) and same
    per-parameter shapes/dtypes.  Raises :class:`StackedModelError` for
    architectures the stacked engine does not support.
    """
    ops = []
    for layer in _flatten_layers(module):
        kind = type(layer)
        if kind is Linear:
            ops.append(("linear", layer.in_features, layer.out_features,
                        layer.bias is not None))
        elif kind in _FUSABLE_ACTIVATIONS:
            ops.append((_FUSABLE_ACTIVATIONS[kind],))
        elif kind is Dropout:
            ops.append(("dropout", layer.p))
        elif kind is Flatten:
            ops.append(("flatten",))
        else:
            raise StackedModelError(
                f"cannot stack {kind.__name__} layers (supported: Linear, "
                f"ReLU/Tanh/Sigmoid, Dropout, Flatten, Sequential)")
    spec = tuple((name, parameter.data.shape, parameter.data.dtype.str)
                 for name, parameter in module.named_parameters())
    return (tuple(ops), spec)


# -- the stack ---------------------------------------------------------------


class ModelStack(Module):
    """N same-architecture modules executing as one batched program.

    Build with :func:`stack_models`; write parameters back with
    :func:`unstack_models`.  The stack owns *copies* of the source
    parameters stacked along a leading model axis — source modules are
    untouched until unstacking.
    """

    def __init__(self, modules: list[Module]):
        super().__init__()
        if not modules:
            raise StackedModelError("stack_models needs at least one model")
        key = architecture_key(modules[0])
        for module in modules[1:]:
            other = architecture_key(module)
            if other[0] != key[0]:
                raise StackedModelError(
                    f"architecture mismatch: {other[0]} != {key[0]}")
            if other[1] != key[1]:
                mine = [s for _n, _s, s in key[1]]
                theirs = [s for _n, _s, s in other[1]]
                if mine != theirs:
                    raise StackedModelError(
                        f"mixed parameter dtypes across models: "
                        f"{theirs} != {mine} — stacking needs a uniform "
                        f"dtype")
                raise StackedModelError(
                    f"parameter spec mismatch: {other[1]} != {key[1]}")
        self.num_models = len(modules)
        self.sources = list(modules)
        object.__setattr__(self, "key", key)
        self._source_params = [list(m.parameters()) for m in modules]
        stacked: list[Parameter] = []
        for index in range(len(self._source_params[0])):
            parameter = Parameter(np.stack(
                [params[index].data for params in self._source_params]))
            setattr(self, f"stacked{index}", parameter)
            stacked.append(parameter)
        self.stacked_params = stacked
        self._plan = self._build_plan(modules)

    def _build_plan(self, modules: list[Module]) -> list[tuple]:
        """Fold the lockstep layer sequences into stacked ops.

        A ``Linear`` directly followed by a fusable activation folds into
        one node, mirroring ``Sequential.forward`` (the folded and
        unfolded forms are bitwise-identical).
        """
        index_of = {id(parameter): position for position, parameter
                    in enumerate(self._source_params[0])}
        layer_seqs = [_flatten_layers(module) for module in modules]
        plan: list[tuple] = []
        position = 0
        first = layer_seqs[0]
        while position < len(first):
            layer = first[position]
            kind = type(layer)
            if kind is Linear:
                weight = self.stacked_params[index_of[id(layer.weight)]]
                bias = (self.stacked_params[index_of[id(layer.bias)]]
                        if layer.bias is not None else None)
                activation = None
                if position + 1 < len(first):
                    activation = _FUSABLE_ACTIVATIONS.get(
                        type(first[position + 1]))
                plan.append(("linear", weight, bias, activation))
                position += 2 if activation is not None else 1
            elif kind in _FUSABLE_ACTIVATIONS:
                plan.append(("act", _FUSABLE_ACTIVATIONS[kind]))
                position += 1
            elif kind is Dropout:
                plan.append(("dropout", layer.p,
                             [seq[position] for seq in layer_seqs]))
                position += 1
            elif kind is Flatten:
                plan.append(("flatten",))
                position += 1
            else:  # architecture_key already rejected unsupported layers
                raise StackedModelError(
                    f"cannot stack {kind.__name__} layers")
        return plan

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim < 2 or x.data.shape[0] != self.num_models:
            raise ValueError(
                f"stacked input must lead with the model axis "
                f"({self.num_models}); got shape {x.data.shape}")
        for op in self._plan:
            kind = op[0]
            if kind == "linear":
                x = F.fused_linear(x, op[1], op[2], activation=op[3])
            elif kind == "act":
                x = getattr(F, op[1])(x)
            elif kind == "dropout":
                x = F.dropout(x, op[1], self.training,
                              [layer.rng for layer in op[2]])
            else:  # flatten: keep the model axis, flatten the rest per row
                x = x.reshape(self.num_models, x.data.shape[1], -1)
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Per-model class probabilities for ``(models, batch, …)`` input.

        Mirrors ``NeuralStreamingModel.predict_proba`` per slice: eval
        mode, no-grad forward, then ``F.softmax`` over the class axis.
        """
        x = np.asarray(x, dtype=float)
        x = x.reshape(self.num_models, x.shape[1], -1)
        self.eval()
        with no_grad():
            logits = self.forward(Tensor(x))
            probabilities = F.softmax(logits, axis=-1)
        self.train()
        return probabilities.data


def stack_models(modules: list[Module]) -> ModelStack:
    """Stack N same-architecture modules into one :class:`ModelStack`."""
    return ModelStack(list(modules))


def unstack_models(stack: ModelStack) -> list[Module]:
    """Write the stack's parameters back into the source modules.

    Each source parameter receives a fresh copy of its model's slice, so
    the round trip ``stack → (train) → unstack`` leaves every model
    holding exactly the values the stacked program computed for it.
    Returns the source modules.
    """
    for index, params in enumerate(stack._source_params):
        for stacked, source in zip(stack.stacked_params, params):
            source.data = stacked.data[index].copy()
    return stack.sources


def stacked_fit(stack: ModelStack, optimizer, xs: np.ndarray,
                ys: np.ndarray, sgd_steps: int = 1) -> np.ndarray:
    """``sgd_steps`` batched training steps; returns the last per-model losses.

    Mirrors ``NeuralStreamingModel.partial_fit``'s loop (zero_grad →
    forward → cross-entropy → backward → step) with the model axis in
    front; ``backward`` is seeded with ``ones(models)`` so each model's
    gradient flow equals its own scalar ``loss.backward()``.
    """
    xs = np.asarray(xs, dtype=float)
    xs = xs.reshape(stack.num_models, xs.shape[1], -1)
    ys = np.asarray(ys, dtype=np.int64).reshape(stack.num_models, -1)
    seed = np.ones(stack.num_models)
    losses = None
    for _ in range(sgd_steps):
        optimizer.zero_grad()
        loss = F.cross_entropy(stack(Tensor(xs)), ys)
        loss.backward(seed)
        optimizer.step()
        losses = loss.data.copy()
    return losses


# -- stacked optimizers ------------------------------------------------------


def _check_uniform(optimizers, expected_type, fields, num_models):
    if len(optimizers) != num_models:
        raise StackedModelError(
            f"got {len(optimizers)} optimizers for {num_models} models")
    for optimizer in optimizers:
        if type(optimizer) is not expected_type:
            raise StackedModelError(
                f"expected {expected_type.__name__} optimizers; got "
                f"{type(optimizer).__name__}")
    first = optimizers[0]
    for name in fields:
        values = {getattr(optimizer, name) for optimizer in optimizers}
        if len(values) > 1:
            raise StackedModelError(
                f"optimizer hyperparameter {name!r} differs across models: "
                f"{sorted(values)}")
    return first


def _gather_state(optimizers, state_name, index, stacked_parameter):
    """Stack one per-model optimizer-state entry; None when all absent.

    Models that have not accumulated state yet contribute zeros — exactly
    what their next serial step would have initialized.
    """
    entries = [getattr(optimizer, state_name).get(index)
               for optimizer in optimizers]
    if all(entry is None for entry in entries):
        return None
    shape = stacked_parameter.data.shape[1:]
    return np.stack([
        entry if entry is not None else np.zeros(shape)
        for entry in entries])


class StackedSGD(SGD):
    """SGD over a :class:`ModelStack`'s stacked parameters.

    Every update is elementwise, so the stacked step is bitwise-identical
    per model slice to N independent ``SGD.step()`` calls.
    """

    def __init__(self, stack: ModelStack, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(stack.stacked_params, lr=lr, momentum=momentum,
                         weight_decay=weight_decay)
        self.stack = stack

    @classmethod
    def from_optimizers(cls, stack: ModelStack,
                        optimizers: list[SGD]) -> "StackedSGD":
        """Build from N per-model optimizers, importing their state."""
        first = _check_uniform(optimizers, SGD,
                               ("lr", "momentum", "weight_decay"),
                               stack.num_models)
        stacked = cls(stack, lr=first.lr, momentum=first.momentum,
                      weight_decay=first.weight_decay)
        for index, parameter in enumerate(stacked.parameters):
            velocity = _gather_state(optimizers, "_velocity", index,
                                     parameter)
            if velocity is not None:
                stacked._velocity[index] = velocity
        return stacked

    def export_to(self, optimizers: list[SGD]) -> None:
        """Slice accumulated state back into the per-model optimizers."""
        for index, velocity in self._velocity.items():
            for model, optimizer in enumerate(optimizers):
                optimizer._velocity[index] = velocity[model].copy()


class StackedAdam(Adam):
    """Adam over a :class:`ModelStack`'s stacked parameters.

    Importing requires every per-model optimizer to sit at the same
    ``_step_count`` (the bias-correction terms are shared across the
    stack); exporting writes the advanced count back to each.
    """

    def __init__(self, stack: ModelStack, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(stack.stacked_params, lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
        self.stack = stack

    @classmethod
    def from_optimizers(cls, stack: ModelStack,
                        optimizers: list[Adam]) -> "StackedAdam":
        """Build from N per-model optimizers, importing their state."""
        first = _check_uniform(optimizers, Adam,
                               ("lr", "beta1", "beta2", "eps",
                                "weight_decay"), stack.num_models)
        counts = {optimizer._step_count for optimizer in optimizers}
        if len(counts) > 1:
            raise StackedModelError(
                f"Adam step counts differ across models: {sorted(counts)} "
                f"— bias correction cannot be shared")
        stacked = cls(stack, lr=first.lr, betas=(first.beta1, first.beta2),
                      eps=first.eps, weight_decay=first.weight_decay)
        stacked._step_count = first._step_count
        for index, parameter in enumerate(stacked.parameters):
            for state_name, target in (("_m", stacked._m),
                                       ("_v", stacked._v)):
                entry = _gather_state(optimizers, state_name, index,
                                      parameter)
                if entry is not None:
                    target[index] = entry
        return stacked

    def export_to(self, optimizers: list[Adam]) -> None:
        """Slice accumulated state back into the per-model optimizers."""
        for optimizer in optimizers:
            optimizer._step_count = self._step_count
        for state_name in ("_m", "_v"):
            for index, entry in getattr(self, state_name).items():
                for model, optimizer in enumerate(optimizers):
                    getattr(optimizer, state_name)[index] = (
                        entry[model].copy())


def make_stacked_optimizer(stack: ModelStack, optimizers):
    """Dispatch on the per-model optimizer type; imports their state."""
    optimizers = list(optimizers)
    if not optimizers:
        raise StackedModelError("no optimizers to stack")
    kind = type(optimizers[0])
    if kind is SGD:
        return StackedSGD.from_optimizers(stack, optimizers)
    if kind is Adam:
        return StackedAdam.from_optimizers(stack, optimizers)
    raise StackedModelError(
        f"cannot stack {kind.__name__} optimizers (supported: SGD, Adam)")
