"""Optimizers for :mod:`repro.nn`.

:class:`SGD` and :class:`Adam` mirror their PyTorch counterparts and drive
the streaming models.  :class:`FOBOS` and :class:`RDA` implement the
regularized online-learning updates the Alink baseline integrates with
logistic regression (see the paper's appendix, "Details of baseline").

``SGD`` and ``Adam`` run one per-parameter loop.  Each step replaces
``parameter.data`` with a fresh array, and optimizer state lives in
per-parameter dicts keyed by parameter index (``_velocity``, ``_m``,
``_v``), which is what checkpoints, stacked fleets and captured plans
read and write.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import record as _record
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "FOBOS", "RDA"]


class Optimizer:
    """Base class holding a flat list of parameters to update."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _grads(self):
        """Yield ``(index, parameter, gradient)`` for parameters with grads."""
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is not None:
                yield index, parameter, parameter.grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1); got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        for index, parameter, grad in self._grads():
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None or velocity.shape != parameter.data.shape:
                    # Shape changed under a restore: momentum restarts.
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + grad
                self._velocity[index] = velocity
                grad = velocity
            parameter.data = parameter.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for index, parameter, grad in self._grads():
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m = self._m.get(index)
            v = self._v.get(index)
            if m is None or m.shape != parameter.data.shape:
                # Absent — or stale after a shape-changing restore.
                m = np.zeros_like(parameter.data)
                v = np.zeros_like(parameter.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[index] = m
            self._v[index] = v
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise soft-thresholding operator for L1 proximal steps."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


class FOBOS(Optimizer):
    """Forward-Backward Splitting (Duchi & Singer, 2009) with L1 penalty.

    Each step takes an SGD step followed by the proximal (soft-threshold)
    step, yielding sparse, stable weights for streaming logistic regression
    — the behaviour the paper attributes to Alink.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 l1: float = 1e-5):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        if l1 < 0:
            raise ValueError(f"l1 strength must be non-negative; got {l1}")
        self.lr = lr
        self.l1 = l1
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        # Decaying step size eta_t = lr / sqrt(t), standard for FOBOS.
        eta = self.lr / np.sqrt(self._step_count)
        for _, parameter, grad in self._grads():
            updated = parameter.data - eta * grad
            parameter.data = _soft_threshold(updated, eta * self.l1)


class RDA(Optimizer):
    """Regularized Dual Averaging (Xiao, 2010) with L1 regularization.

    Maintains the running average gradient and solves the regularized
    proximal problem in closed form each step.
    """

    def __init__(self, parameters: Iterable[Tensor], l1: float = 1e-5,
                 gamma: float = 1.0):
        super().__init__(parameters)
        if l1 < 0:
            raise ValueError(f"l1 strength must be non-negative; got {l1}")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive; got {gamma}")
        self.l1 = l1
        self.gamma = gamma
        self._step_count = 0
        self._grad_sum: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        scale = np.sqrt(t) / self.gamma
        for index, parameter, grad in self._grads():
            total = self._grad_sum.get(index)
            if total is None:
                total = np.zeros_like(parameter.data)
            total = total + grad
            self._grad_sum[index] = total
            mean_grad = total / t
            # w_{t+1} = -sqrt(t)/gamma * soft_threshold(mean_grad, l1)
            parameter.data = -scale * _soft_threshold(mean_grad, self.l1)
