"""Streaming-model protocol and the shared neural implementation.

All learners in this repository — FreewayML's granularity models, the plain
SML references, and every baseline — speak :class:`StreamingModel`:
``predict_proba`` / ``predict`` for inference and ``partial_fit`` for one
incremental mini-batch update, plus checkpointing (``state_dict``) and
``clone`` (a fresh, identically-initialized copy, so framework comparisons
start from the same weights).

:class:`NeuralStreamingModel` implements the protocol on top of
:mod:`repro.nn` with mini-batch SGD and softmax cross-entropy, which is how
the paper's Streaming LR / MLP / CNN models are trained.
"""

from __future__ import annotations

import abc

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn import plan as _plan
from ..perf.config import config as _perf_config

__all__ = ["StreamingModel", "NeuralStreamingModel"]


class StreamingModel(abc.ABC):
    """Interface every streaming learner implements."""

    name: str = "streaming-model"
    num_classes: int

    @abc.abstractmethod
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, shape ``(n, num_classes)``."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.predict_proba(x).argmax(axis=1)

    @abc.abstractmethod
    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> float:
        """One incremental update on a labeled mini-batch; returns the loss."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """Snapshot of the trainable state."""

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""

    @abc.abstractmethod
    def clone(self) -> "StreamingModel":
        """A fresh model with identical configuration and initial weights."""

    def num_parameters(self) -> int:
        """Total scalar parameters (used by the Table IV space accounting)."""
        return sum(np.asarray(value).size for value in self.state_dict().values())


class NeuralStreamingModel(StreamingModel):
    """Mini-batch SGD streaming learner over a :mod:`repro.nn` module.

    Subclasses implement :meth:`_build` to construct the network.  The
    constructor signature is captured so :meth:`clone` can recreate the
    model (including its seeded initialization) exactly.

    Parameters
    ----------
    num_features:
        Flattened input dimensionality (tabular models) — image models pass
        the full ``input_shape`` instead via their own constructors.
    num_classes:
        Number of output classes.
    lr:
        SGD learning rate.
    sgd_steps:
        Gradient steps taken per :meth:`partial_fit` call (the paper's
        frameworks take one step per mini-batch).
    momentum / weight_decay:
        Standard SGD options.
    seed:
        Seed for weight initialization.
    """

    def __init__(self, num_features: int, num_classes: int, lr: float = 0.05,
                 sgd_steps: int = 1, momentum: float = 0.0,
                 weight_decay: float = 0.0, seed: int = 0):
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1; got {num_features}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2; got {num_classes}")
        if sgd_steps < 1:
            raise ValueError(f"sgd_steps must be >= 1; got {sgd_steps}")
        self.num_features = num_features
        self.num_classes = num_classes
        self.lr = lr
        self.sgd_steps = sgd_steps
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.module = self._build(rng)
        self.optimizer = self._make_optimizer()
        self.updates = 0
        self._weights_version = 0
        self._proba_cache: tuple | None = None

    # -- subclass hooks ---------------------------------------------------------

    @abc.abstractmethod
    def _build(self, rng: np.random.Generator) -> nn.Module:
        """Construct the underlying network."""

    def _make_optimizer(self) -> nn.Optimizer:
        return nn.SGD(self.module.parameters(), lr=self.lr,
                      momentum=self.momentum, weight_decay=self.weight_decay)

    def _prepare(self, x: np.ndarray) -> nn.Tensor:
        """Convert raw batch features into the network's input tensor."""
        x = np.asarray(x, dtype=float)
        return nn.Tensor(x.reshape(len(x), -1))

    # -- StreamingModel protocol ---------------------------------------------------

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        # The FreewayML pipeline scores the same batch several times per
        # step (ensemble blend, skill EMA, confidence/error channels), so
        # memoize one forward pass per (batch, weights) pair.  The cache is
        # keyed on object identity plus a content fingerprint (the first
        # row), guarding against id() reuse after garbage collection.
        cached = self._proba_cache
        fingerprint = np.asarray(x[:1])
        if (cached is not None
                and cached[0] == id(x)
                and cached[1] == self._weights_version
                and cached[2].shape == fingerprint.shape
                and np.array_equal(cached[2], fingerprint)):
            return cached[3]
        result = None
        if _perf_config.plan_capture:
            result = _plan.proba_with_plan(self, x)
        if result is None:
            result = self._forward_proba(x)
        self._proba_cache = (id(x), self._weights_version,
                             fingerprint.copy(), result)
        return result

    def _forward_proba(self, x: np.ndarray) -> np.ndarray:
        """The reference inference pass (also the trace target for plans)."""
        self.module.eval()
        with nn.no_grad():
            logits = self.module(self._prepare(x))
            probabilities = F.softmax(logits, axis=-1)
        self.module.train()
        return probabilities.data

    def loss_on(self, x: np.ndarray, y: np.ndarray) -> float:
        """Cross-entropy loss without updating (used by gradient baselines)."""
        with nn.no_grad():
            logits = self.module(self._prepare(x))
            return F.cross_entropy(logits, y).item()

    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        if len(y) != len(x):
            raise ValueError(f"{len(x)} rows but {len(y)} labels")
        loss = None
        if _perf_config.plan_capture:
            loss = _plan.fit_with_plan(self, x, y)
        if loss is None:
            loss = self._fit_steps(x, y)
        self.updates += 1
        self._weights_version += 1
        return loss

    def _fit_steps(self, x: np.ndarray, y: np.ndarray) -> float:
        """The reference update loop (also the trace target for plans)."""
        last_loss = 0.0
        for _ in range(self.sgd_steps):
            self.optimizer.zero_grad()
            logits = self.module(self._prepare(x))
            loss = F.cross_entropy(logits, y)
            loss.backward()
            self.optimizer.step()
            last_loss = loss.item()
        return last_loss

    def _plan_eligible(self) -> bool:
        """Whether :mod:`repro.nn.plan` may capture this model's steps.

        Subclasses with a custom ``_prepare`` (e.g. image models that keep
        the channel layout) or an exotic optimizer opt out automatically;
        everything else is guarded by capture-time verification anyway.
        """
        return (type(self)._prepare is NeuralStreamingModel._prepare
                and type(self.optimizer) in (nn.SGD, nn.Adam))

    def gradient_on(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Per-parameter gradients on a batch, without applying an update.

        Used by A-GEM (gradient projection) and the pre-computing window.
        """
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        self.module.zero_grad()
        logits = self.module(self._prepare(x))
        loss = F.cross_entropy(logits, y)
        loss.backward()
        grads = [
            parameter.grad.copy() if parameter.grad is not None
            else np.zeros_like(parameter.data)
            for parameter in self.module.parameters()
        ]
        self.module.zero_grad()
        return grads

    def apply_gradient(self, grads: list[np.ndarray]) -> None:
        """Apply externally computed per-parameter gradients via the optimizer."""
        parameters = self.module.parameters()
        if len(grads) != len(parameters):
            raise ValueError(
                f"expected {len(parameters)} gradient arrays, got {len(grads)}"
            )
        for parameter, grad in zip(parameters, grads):
            parameter.grad = np.asarray(grad, dtype=parameter.data.dtype)
        self.optimizer.step()
        self.module.zero_grad()
        self.updates += 1
        self._weights_version += 1

    def state_dict(self) -> dict:
        return self.module.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.module.load_state_dict(state)
        self._weights_version += 1

    def clone(self) -> "NeuralStreamingModel":
        return type(self)(**self._config())

    def _config(self) -> dict:
        """Constructor kwargs for :meth:`clone`; subclasses extend."""
        return {
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "lr": self.lr,
            "sgd_steps": self.sgd_steps,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "seed": self.seed,
        }
