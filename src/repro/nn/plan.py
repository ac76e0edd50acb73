"""Captured-plan execution: trace once, replay many (see docs/PERF.md).

Streaming models run the *same* op sequence every batch, yet the
define-by-run engine rebuilds Tensor wrappers, backward closures, and
intermediate arrays each time.  This module removes that fixed cost the
way CUDA graphs do: the first ``fit``/``predict_proba`` for a signature
runs the normal path under the :mod:`repro.nn.record` tracer, the trace
is compiled into a flat list of *replay kernels* — ``out=``-style numpy
calls into a preallocated buffer arena — and subsequent batches replay
the kernels with zero graph construction.

**Safety model.**  Capture is self-verifying: the reference run and a
trial replay are compared — parameters, optimizer state, Dropout RNG
states, and loss bytes must be **bitwise identical** — before a plan is
cached.  Any mismatch (or any op the compiler does not recognize) marks
the signature unsupported and the model keeps using the reference path.
Capture therefore never changes results, only speed.

**One cache, keyed by architecture.**  Plans live in one bounded LRU per
thread (so no arena is shared across threads), keyed by the model's
*structure* — model class, module tree, optimizer class, ``sgd_steps`` —
plus the batch signature.  Weights, seeds and learning rates are not in
the key: kernels address parameters by index into ``module.parameters()``
and Dropout generators by position, and each replay binds them to the
calling model for that call only.  Learner levels, knowledge restores,
clones, unpickled copies and rehydrated serving tenants thus all replay
the one plan that was verified once.  The whole engine sits behind the
``plan_capture`` flag in :mod:`repro.perf.config`.  Plans cover single
2-D models only: stacked fleets (:mod:`repro.nn.stacked`) change fleet
size and row count from round to round, so they run unplanned.  Plan
events go to the caller's :func:`observing` scope, never to the plan.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from collections import Counter, OrderedDict
from contextvars import ContextVar
from time import perf_counter

import numpy as np

from . import record as _record
from .modules import Dropout
from .optim import Adam, Optimizer, SGD

__all__ = [
    "PlanUnsupported",
    "replay_kernel",
    "observing",
    "plan_cache_stats",
    "fit_with_plan",
    "proba_with_plan",
    "clear_plans",
    "PLAN_CACHE_COUNTER",
]

#: Metric name for plan-cache events (capture / replay / unsupported /
#: invalidate), exported by :class:`repro.perf.HotPathProfiler`.
PLAN_CACHE_COUNTER = "freeway_plan_cache"

#: Plans (fit and proba alike) each thread keeps, LRU-evicted.
_CACHE_CAP = 16


class PlanUnsupported(Exception):
    """The trace contains something the plan compiler cannot replay."""


def replay_kernel(fn):
    """Mark ``fn`` as a replay kernel: it must only write into the arena.

    The marker is what lint rule REP012 keys on — per-batch ``Tensor``
    / ``np.zeros`` / ``np.empty`` allocation inside a replay kernel
    defeats the engine's whole point, so the analyzer flags it.
    """
    fn.__replay_kernel__ = True
    return fn


# -- events ------------------------------------------------------------------

#: The calling context's plan-event observer (see :func:`observing`).
_OBSERVER: ContextVar = ContextVar("repro_plan_observer", default=None)
_STATS: Counter = Counter()
_STATS_LOCK = threading.Lock()


@contextlib.contextmanager
def observing(observer):
    """Send the plan-cache events this context raises to ``observer``.

    ``observer(event, seconds)`` receives ``"capture"`` (a plan was
    compiled and verified), ``"replay"`` (a cached plan ran; timed only
    while observed), ``"unsupported"`` (capture fell back permanently
    for a signature) and ``"invalidate"`` (a cached plan was dropped).
    Plans are shared by every model of one architecture, so events are
    attributed to the caller that raised them, never to the plan.  A
    context variable does not follow work into an already-running
    thread pool: code on another thread enters its own scope.
    """
    token = _OBSERVER.set(observer)
    try:
        yield
    finally:
        _OBSERVER.reset(token)


def plan_cache_stats() -> dict:
    """Cumulative event counts (process-wide, monotonic) plus two gauges.

    ``entries`` (cached plans and unsupported markers) and
    ``arena_bytes`` (the plans' preallocated buffers) sum over every
    live thread's cache.
    """
    with _STATS_LOCK:
        stats = dict(_STATS)
    with _CACHES_LOCK:
        caches = list(_CACHES)
    stats["entries"] = sum(len(cache.entries) for cache in caches)
    stats["arena_bytes"] = sum(cache.arena_bytes for cache in caches)
    return stats


def _notify(event: str, seconds: float = 0.0) -> None:
    with _STATS_LOCK:
        _STATS[event] += 1
    observer = _OBSERVER.get()
    if observer is not None:
        observer(event, seconds)


# -- state snapshot for capture-time verification ----------------------------


def _freeze(value):
    """Comparable form of optimizer / RNG state (dicts, lists, arrays)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    return value


class _Snapshot:
    """Copy of everything a training step mutates, for verify/rollback."""

    __slots__ = ("_optimizer", "_rngs", "_params", "_state", "_rng_states")

    def __init__(self, optimizer: Optimizer, rngs: list):
        self._optimizer = optimizer
        self._rngs = rngs
        self._params = [(p, p.data.copy()) for p in optimizer.parameters]
        self._state = self._optimizer_state()
        self._rng_states = [rng.bit_generator.state for rng in rngs]  # copies

    def _optimizer_state(self) -> dict:
        opt = self._optimizer
        state: dict = {}
        if isinstance(opt, SGD):
            state["velocity"] = {k: v.copy() for k, v in opt._velocity.items()}
        elif isinstance(opt, Adam):
            state["m"] = {k: v.copy() for k, v in opt._m.items()}
            state["v"] = {k: v.copy() for k, v in opt._v.items()}
            state["t"] = opt._step_count
        return state

    def restore(self) -> None:
        opt = self._optimizer
        for parameter, saved in self._params:
            parameter.data = saved.copy()
        if isinstance(opt, SGD):
            opt._velocity.clear()
            opt._velocity.update(
                {k: v.copy() for k, v in self._state["velocity"].items()})
        elif isinstance(opt, Adam):
            opt._m.clear()
            opt._v.clear()
            opt._m.update({k: v.copy() for k, v in self._state["m"].items()})
            opt._v.update({k: v.copy() for k, v in self._state["v"].items()})
            opt._step_count = self._state["t"]
        for rng, state in zip(self._rngs, self._rng_states):
            rng.bit_generator.state = state

    def matches(self, other: "_Snapshot") -> bool:
        if len(self._params) != len(other._params):
            return False
        for (_, a), (_, b) in zip(self._params, other._params):
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        return (_freeze(self._state) == _freeze(other._state)
                and _freeze(self._rng_states) == _freeze(other._rng_states))


def _buffer_like(array: np.ndarray) -> np.ndarray:
    """A fresh arena buffer for ``array``'s shape; float64 only."""
    if array.dtype != np.float64:
        raise PlanUnsupported(f"non-float64 buffer dtype {array.dtype}")
    return np.empty(array.shape)


def _position(items: list, target, what: str) -> int:
    """The one index at which ``target`` (by identity) sits in ``items``."""
    hits = [index for index, item in enumerate(items) if item is target]
    if len(hits) != 1:
        raise PlanUnsupported(f"{what} is not one slot of the bound model")
    return hits[0]


# -- replay kernels ----------------------------------------------------------
#
# Each kernel replays one recorded op's exact float operations into
# preallocated buffers.  ``forward``/``backward``/``step`` are marked
# with @replay_kernel: they must not allocate (lint rule REP012).
# Kernels hold no model state: parameters, Dropout sources and the
# optimizer come from the plan's :class:`_Binding` at call time.


class _Binding:
    """The model a plan's kernels run against during one replay."""

    __slots__ = ("params", "sources", "optimizer")

    def __init__(self):
        self.params = self.sources = self.optimizer = None


@replay_kernel
def _sigmoid(x, scratch, out) -> None:
    """``1 / (1 + exp(-clip(x, ±60)))`` — the ``Tensor.sigmoid`` ufuncs."""
    np.clip(x, -60.0, 60.0, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.divide(1.0, scratch, out=out)


@replay_kernel
def _activation_backward(name, g, out, mask, scratch) -> None:
    """Scale ``g`` in place by the derivative of activation ``name``."""
    if name == "relu":
        np.multiply(g, mask, out=g)
    elif name == "tanh":
        np.multiply(out, out, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(g, scratch, out=g)
    elif name == "sigmoid":
        np.subtract(1.0, out, out=scratch)
        np.multiply(g, out, out=g)
        np.multiply(g, scratch, out=g)


class _LinearKernel:
    """``x @ W.T + b`` (+ fused activation) — mirrors ``fused_linear``."""

    __slots__ = ("bound", "windex", "bindex", "activation", "x", "out",
                 "mask", "scratch", "g_out", "g_in", "w_scratch", "gw", "gb")

    def __init__(self, bound, windex, bindex, x_buf, out_ref, weight, bias,
                 activation):
        self.bound = bound
        self.windex = windex
        self.bindex = bindex
        self.activation = activation
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = (np.empty(out_ref.shape, dtype=bool)
                     if activation == "relu" else None)
        self.scratch = (_buffer_like(out_ref)
                        if activation in ("tanh", "sigmoid") else None)
        self.w_scratch = np.empty(weight.data.T.shape)
        self.gw = np.empty(weight.data.shape)
        self.gb = np.empty(bias.data.shape) if bias is not None else None
        self.g_out = None   # wired by the compiler (grad w.r.t. self.out)
        self.g_in = None    # grad w.r.t. self.x; None for the first layer

    @replay_kernel
    def forward(self) -> None:
        params = self.bound.params
        w = params[self.windex].data
        np.matmul(self.x, w.T, out=self.out)
        if self.bindex >= 0:
            np.add(self.out, params[self.bindex].data, out=self.out)
        if self.activation == "relu":
            np.greater(self.out, 0.0, out=self.mask)
            np.maximum(self.out, 0.0, out=self.out)
        elif self.activation == "tanh":
            np.tanh(self.out, out=self.out)
        elif self.activation == "sigmoid":
            _sigmoid(self.out, self.scratch, self.out)

    @replay_kernel
    def backward(self) -> None:
        g = self.g_out
        _activation_backward(self.activation, g, self.out, self.mask,
                             self.scratch)
        w = self.bound.params[self.windex].data
        if self.g_in is not None:
            np.matmul(g, w, out=self.g_in)
        # grad_W = (x.T @ g).T — matmul with the same operand layout as
        # the reference closure, then a float-op-free transposed copy.
        np.matmul(self.x.T, g, out=self.w_scratch)
        self.gw[...] = self.w_scratch.T
        if self.gb is not None:
            np.sum(g, axis=0, out=self.gb)


class _ActKernel:
    """A standalone activation — mirrors the ``Tensor`` method ops."""

    __slots__ = ("name", "x", "out", "mask", "scratch", "g_out", "g_in")

    def __init__(self, name, x_buf, out_ref):
        self.name = name
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = (np.empty(out_ref.shape, dtype=bool)
                     if name == "relu" else None)
        self.scratch = (_buffer_like(out_ref)
                        if name in ("tanh", "sigmoid") else None)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self) -> None:
        if self.name == "relu":
            # Tensor.relu uses np.where(mask, x, 0.0): a pure selection,
            # replayed as fill + masked copy (no float ops either way).
            np.greater(self.x, 0.0, out=self.mask)
            self.out.fill(0.0)
            np.copyto(self.out, self.x, where=self.mask)
        elif self.name == "tanh":
            np.tanh(self.x, out=self.out)
        elif self.name == "sigmoid":
            _sigmoid(self.x, self.scratch, self.out)

    @replay_kernel
    def backward(self) -> None:
        g = self.g_out
        _activation_backward(self.name, g, self.out, self.mask, self.scratch)
        if self.g_in is not None:
            np.copyto(self.g_in, g)


class _DropoutKernel:
    """Inverted dropout drawing from the bound generator each replay."""

    __slots__ = ("p", "bound", "dindex", "x", "out", "rand", "maskb",
                 "maskf", "g_out", "g_in")

    def __init__(self, p, bound, dindex, x_buf, out_ref):
        self.p = p
        self.bound = bound
        self.dindex = dindex
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.rand = np.empty(out_ref.shape)
        self.maskb = np.empty(out_ref.shape, dtype=bool)
        self.maskf = np.empty(out_ref.shape)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self) -> None:
        self.bound.sources[self.dindex].random(out=self.rand)
        np.greater_equal(self.rand, self.p, out=self.maskb)
        np.copyto(self.maskf, self.maskb)
        np.divide(self.maskf, 1.0 - self.p, out=self.maskf)
        np.multiply(self.x, self.maskf, out=self.out)

    @replay_kernel
    def backward(self) -> None:
        if self.g_in is not None:
            np.multiply(self.g_out, self.maskf, out=self.g_in)


class _CrossEntropyKernel:
    """Fused softmax cross-entropy — exact ufunc replay."""

    __slots__ = ("logits", "rows", "cols", "mask", "mx", "shifted", "expb",
                 "norm", "logp", "scratch", "picked", "gln", "g_logits",
                 "row_idx", "inv_count", "neg_inv")

    def __init__(self, logits_buf, logits_ref):
        self.logits = logits_buf
        shape = logits_ref.shape
        self.rows, self.cols = shape
        self.row_idx = np.arange(self.rows)
        self.picked = np.empty(self.rows)
        self.gln = np.empty((self.rows, 1))
        self.mask = np.empty(shape)
        self.mx = np.empty((self.rows, 1))
        self.shifted = np.empty(shape)
        self.expb = np.empty(shape)
        self.norm = np.empty((self.rows, 1))
        self.logp = np.empty(shape)
        self.scratch = np.empty(shape)
        self.g_logits = np.empty(shape)
        self.inv_count = 1.0 / self.rows
        # backward seed is 1.0; (-1.0) * inv_count is exact.
        self.neg_inv = -self.inv_count

    @replay_kernel
    def forward(self, labels: np.ndarray):
        if labels.size and (labels.min() < 0 or labels.max() >= self.cols):
            raise ValueError(
                f"labels must lie in [0, {self.cols}); got range "
                f"[{labels.min()}, {labels.max()}]")
        self.mask.fill(0.0)
        self.mask[self.row_idx, labels] = 1.0
        np.max(self.logits, axis=-1, keepdims=True, out=self.mx)
        np.subtract(self.logits, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.expb)
        np.sum(self.expb, axis=-1, keepdims=True, out=self.norm)
        np.log(self.norm, out=self.mx)
        np.subtract(self.shifted, self.mx, out=self.logp)
        np.multiply(self.logp, self.mask, out=self.scratch)
        np.sum(self.scratch, axis=-1, out=self.picked)
        return -(self.picked.sum() * self.inv_count)

    @replay_kernel
    def backward(self) -> None:
        np.multiply(self.mask, self.neg_inv, out=self.g_logits)
        np.negative(self.g_logits, out=self.scratch)
        np.sum(self.scratch, axis=-1, keepdims=True, out=self.gln)
        np.divide(self.gln, self.norm, out=self.gln)
        np.multiply(self.expb, self.gln, out=self.scratch)
        np.add(self.g_logits, self.scratch, out=self.g_logits)


class _SoftmaxKernel:
    """The inference softmax chain (max → sub → exp → sum → log → sub → exp)."""

    __slots__ = ("x", "out", "mx", "shifted")

    def __init__(self, x_buf, out_ref):
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mx = np.empty(out_ref.shape[:-1] + (1,))
        self.shifted = np.empty(out_ref.shape)

    @replay_kernel
    def forward(self) -> None:
        np.max(self.x, axis=-1, keepdims=True, out=self.mx)
        np.subtract(self.x, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.out)
        np.sum(self.out, axis=-1, keepdims=True, out=self.mx)
        np.log(self.mx, out=self.mx)
        np.subtract(self.shifted, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.out)


class _StepKernel:
    """One optimizer step from plan gradient buffers, reference-exact."""

    __slots__ = ("bound", "grads")

    def __init__(self, bound, grads):
        self.bound = bound
        self.grads = grads  # one gradient buffer per bound parameter

    @replay_kernel
    def step(self) -> None:
        for parameter, grad in zip(self.bound.params, self.grads):
            parameter.grad = grad
        self.bound.optimizer.step()


# -- trace compilation -------------------------------------------------------


#: Where each op descriptor keeps its input tensor (ce: the logits).
_INPUT_SLOT = {"act": 2, "softmax": 2, "dropout": 3}


def _op_input(op):
    return op[_INPUT_SLOT.get(op[0], 1)]


def _op_struct(op) -> tuple:
    """Structural key: two ops with equal keys compile to the same kernel."""
    kind = op[0]
    if kind == "linear":
        _, x_t, weight, bias, activation, out_t = op
        return (kind, id(weight), id(bias) if bias is not None else None,
                activation, x_t.data.shape, out_t.data.shape)
    if kind == "act":
        return (kind, op[1], op[2].data.shape)
    if kind == "dropout":
        return (kind, op[1], id(op[2]), op[3].data.shape)
    if kind == "flatten":
        return (kind, op[1].data.shape, op[2].data.shape)
    if kind == "ce":
        return (kind, op[1].data.shape)
    if kind == "softmax":
        return (kind, op[1], op[2].data.shape)
    if kind == "step":
        return (kind, id(op[1]))
    return ("?", kind)


def _resolve(tensor_id: int, alias: dict) -> int:
    while tensor_id in alias:
        tensor_id = alias[tensor_id]
    return tensor_id


def _compile_forward(ops, x_shape, bound, params, sources):
    """Kernels + buffer arena for a forward op chain starting at ``x_shape``.

    Also returns each kernel's traced ``(input, output)`` tensors, which
    only :func:`_wire_backward` needs: the plan itself must not keep the
    reference run's tensors alive.
    """
    if not ops:
        raise PlanUnsupported("empty forward trace")
    x_buf = np.empty(x_shape)
    first_in = _op_input(ops[0])
    if first_in.data.shape != tuple(x_shape):
        raise PlanUnsupported(
            f"entry shape {first_in.data.shape} != input {tuple(x_shape)}")
    buf_of = {id(first_in): x_buf}
    alias: dict[int, int] = {}
    kernels, tensors = [], []
    for op in ops:
        kind = op[0]
        x_t = _op_input(op)
        x_b = buf_of.get(id(x_t))
        if x_b is None:
            raise PlanUnsupported(f"op chain broken at {kind!r}")
        out_t = op[-1]
        if id(out_t) in buf_of:
            raise PlanUnsupported("tensor produced twice")
        if kind == "flatten":
            if out_t.data.shape != x_t.data.shape:
                raise PlanUnsupported("non-identity flatten")
            buf_of[id(out_t)] = x_b
            alias[id(out_t)] = id(x_t)
            continue
        if kind == "linear":
            _, _x, weight, bias, activation, _o = op
            if activation not in (None, "relu", "tanh", "sigmoid"):
                raise PlanUnsupported(f"activation {activation!r}")
            bindex = (-1 if bias is None
                      else _position(params, bias, "linear bias"))
            kernel = _LinearKernel(
                bound, _position(params, weight, "linear weight"), bindex,
                x_b, out_t.data, weight, bias, activation)
        elif kind == "act":
            name = op[1]
            if name not in ("relu", "tanh", "sigmoid"):
                raise PlanUnsupported(f"activation {name!r}")
            kernel = _ActKernel(name, x_b, out_t.data)
        elif kind == "dropout":
            kernel = _DropoutKernel(
                op[1], bound, _position(sources, op[2], "dropout source"),
                x_b, out_t.data)
        else:
            raise PlanUnsupported(f"unsupported op {kind!r}")
        buf_of[id(out_t)] = kernel.out
        kernels.append(kernel)
        tensors.append((x_t, out_t))
    return x_buf, kernels, tensors, buf_of, alias


def _wire_backward(kernels, tensors, x_buf, loss_kernel, logits_t,
                   alias) -> None:
    """Connect gradient buffers in reverse order; entry grads are skipped."""
    grad_of = {_resolve(id(logits_t), alias): loss_kernel.g_logits}
    for kernel, (x_t, out_t) in zip(reversed(kernels), reversed(tensors)):
        g = grad_of.get(_resolve(id(out_t), alias))
        if g is None:
            raise PlanUnsupported("gradient chain broken")
        kernel.g_out = g
        if kernel.x is x_buf:
            kernel.g_in = None  # nothing consumes the input gradient
        else:
            kernel.g_in = np.empty(kernel.x.shape)
            source = _resolve(id(x_t), alias)
            if source in grad_of:
                raise PlanUnsupported("tensor consumed twice")
            grad_of[source] = kernel.g_in


def _arena_nbytes(*parts) -> int:
    """Bytes of the distinct arrays held by ``parts`` (buffers, kernels)."""
    arrays = {}
    for part in parts:
        values = ([part] if isinstance(part, np.ndarray)
                  else [getattr(part, name) for name in type(part).__slots__])
        for value in values:
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value.nbytes
    return sum(arrays.values())


class _FitPlan:
    """A compiled train step: forward, loss, backward, optimizer update."""

    __slots__ = ("bound", "x_buf", "kernels", "loss", "step", "sgd_steps",
                 "nbytes")

    def __init__(self, bound, x_buf, kernels, loss_kernel, step_kernel,
                 sgd_steps):
        self.bound = bound
        self.x_buf = x_buf
        self.kernels = kernels
        self.loss = loss_kernel
        self.step = step_kernel
        self.sgd_steps = sgd_steps
        self.nbytes = _arena_nbytes(x_buf, *kernels, loss_kernel)

    def replay(self, params, sources, optimizer, xr: np.ndarray,
               labels: np.ndarray):
        """Run the step on any model whose structure matches the capturing
        one: its parameters, Dropout sources and optimizer are bound for
        this call only, so a cached plan keeps no model alive."""
        bound = self.bound
        bound.params, bound.sources, bound.optimizer = (params, sources,
                                                        optimizer)
        try:
            np.copyto(self.x_buf, xr)
            loss = None
            for _ in range(self.sgd_steps):
                for kernel in self.kernels:
                    kernel.forward()
                loss = self.loss.forward(labels)
                self.loss.backward()
                for kernel in reversed(self.kernels):
                    kernel.backward()
                self.step.step()
            return loss
        finally:
            # The gradient buffers belong to the plan, which the next bound
            # model overwrites: leave gradients cleared, as zero_grad does.
            for parameter in params:
                parameter.grad = None
            bound.params = bound.sources = bound.optimizer = None


class _ProbaPlan:
    """A compiled inference pass ending in the softmax chain."""

    __slots__ = ("bound", "x_buf", "kernels", "softmax", "nbytes")

    def __init__(self, bound, x_buf, kernels, softmax_kernel):
        self.bound = bound
        self.x_buf = x_buf
        self.kernels = kernels
        self.softmax = softmax_kernel
        self.nbytes = _arena_nbytes(x_buf, *kernels, softmax_kernel)

    def replay(self, params, xr: np.ndarray) -> np.ndarray:
        """Inference with ``params`` bound for this call only."""
        self.bound.params = params
        try:
            np.copyto(self.x_buf, xr)
            for kernel in self.kernels:
                kernel.forward()
            self.softmax.forward()
        finally:
            self.bound.params = None
        # Callers cache the result; the arena is rewritten next call.
        return self.softmax.out.copy()


def _compile_fit(trace, params, sources, optimizer, sgd_steps: int, x_shape):
    """Compile a recorded ``fit`` trace into a :class:`_FitPlan`."""
    segments: list[list] = []
    segment: list = []
    for op in trace.ops:
        if op[0] == "step":
            if op[1] is not optimizer:
                raise PlanUnsupported("step from a foreign optimizer")
            segments.append(segment)
            segment = []
        else:
            segment.append(op)
    if segment:
        raise PlanUnsupported("ops recorded after the final optimizer step")
    if len(segments) != sgd_steps:
        raise PlanUnsupported(
            f"{len(segments)} recorded steps for sgd_steps={sgd_steps}")
    structure = [_op_struct(op) for op in segments[0]]
    for other in segments[1:]:
        if [_op_struct(op) for op in other] != structure:
            raise PlanUnsupported("sgd steps differ structurally")
    first = segments[0]
    if not first or first[-1][0] != "ce":
        raise PlanUnsupported("trace does not end in the expected loss")
    logits_t = first[-1][1]
    bound = _Binding()
    x_buf, kernels, tensors, buf_of, alias = _compile_forward(
        first[:-1], x_shape, bound, params, sources)
    logits_buf = buf_of.get(id(logits_t))
    if logits_buf is None:
        raise PlanUnsupported("loss input not produced by the plan")
    loss_kernel = _CrossEntropyKernel(logits_buf, logits_t.data)
    _wire_backward(kernels, tensors, x_buf, loss_kernel, logits_t, alias)

    if (len(optimizer.parameters) != len(params)
            or any(a is not b for a, b in zip(optimizer.parameters, params))):
        raise PlanUnsupported("optimizer does not own exactly the parameters")
    grads: dict[int, np.ndarray] = {}
    for kernel in kernels:
        if not isinstance(kernel, _LinearKernel):
            continue
        for index, grad in ((kernel.windex, kernel.gw),
                            (kernel.bindex, kernel.gb)):
            if index < 0:
                continue
            if index in grads:
                raise PlanUnsupported("tied parameters")
            grads[index] = grad
    if len(grads) != len(params):
        raise PlanUnsupported("optimizer parameter without a gradient")
    step_kernel = _StepKernel(bound, [grads[i] for i in range(len(params))])
    return _FitPlan(bound, x_buf, kernels, loss_kernel, step_kernel,
                    sgd_steps)


def _compile_proba(trace, params, x_shape):
    """Compile a recorded inference trace into a :class:`_ProbaPlan`.

    Inference runs in eval mode, so there is no Dropout source to bind.
    """
    ops = trace.ops
    if not ops or ops[-1][0] != "softmax":
        raise PlanUnsupported("trace does not end in softmax")
    _, axis, sm_in, sm_out = ops[-1]
    if axis not in (-1, sm_in.data.ndim - 1):
        raise PlanUnsupported(f"softmax axis {axis}")
    if len(ops) == 1:
        raise PlanUnsupported("empty forward trace")
    bound = _Binding()
    x_buf, kernels, _tensors, buf_of, _alias = _compile_forward(
        ops[:-1], x_shape, bound, params, ())
    logits_buf = buf_of.get(id(sm_in))
    if logits_buf is None:
        raise PlanUnsupported("softmax input not produced by the plan")
    return _ProbaPlan(bound, x_buf, kernels,
                      _SoftmaxKernel(logits_buf, sm_out.data))


# -- the plan cache ----------------------------------------------------------

_UNSUPPORTED = object()


class _PlanCache:
    """One thread's LRU of plans (and unsupported markers) by key."""

    __slots__ = ("entries", "arena_bytes", "__weakref__")

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.arena_bytes = 0

    def get(self, key):
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def put(self, key, entry) -> None:
        self.entries[key] = entry
        self.arena_bytes += getattr(entry, "nbytes", 0)
        while len(self.entries) > _CACHE_CAP:
            _, evicted = self.entries.popitem(last=False)
            self.arena_bytes -= getattr(evicted, "nbytes", 0)
            _notify("invalidate")

    def clear(self) -> int:
        count = len(self.entries)
        self.entries.clear()
        self.arena_bytes = 0
        return count


_local = threading.local()
#: Every live thread's cache, for the :func:`plan_cache_stats` gauges.
_CACHES: weakref.WeakSet = weakref.WeakSet()
_CACHES_LOCK = threading.Lock()


def _cache() -> _PlanCache:
    cache = getattr(_local, "cache", None)
    if cache is None:
        cache = _local.cache = _PlanCache()
        with _CACHES_LOCK:
            _CACHES.add(cache)
    return cache


def clear_plans() -> None:
    """Drop the calling thread's cached plans (tests, benchmarks)."""
    for _ in range(_cache().clear()):
        _notify("invalidate")


# -- model structure ---------------------------------------------------------

#: module → (structure id, parameters, Dropout layers); see _structure.
_STRUCTURES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_STRUCTURE_IDS: dict = {}
_STRUCTURE_LOCK = threading.Lock()
_SCALARS = (bool, int, float, str, type(None))


def _layer_spec(layer) -> tuple:
    """One module's own structure: type, scalar attributes, parameters."""
    hyper = tuple((name, value) for name, value in vars(layer).items()
                  if name != "training" and isinstance(value, _SCALARS))
    params = tuple((name, p.data.shape, p.data.dtype.str)
                   for name, p in layer._parameters.items())
    return (type(layer), hyper, params)


def _structure(model) -> tuple:
    """``(structure key, parameters, Dropout layers)`` for ``model``.

    The module tree's fingerprint (weights excluded) is interned to an
    id and memoized per module object, with the lists a plan binds to in
    ``parameters()``/``modules()`` order: ``load_state_dict`` replaces
    arrays, never layers or parameters.
    """
    module = model.module
    found = _STRUCTURES.get(module)
    if found is None:
        layers = list(module.modules())
        tree = tuple(_layer_spec(layer) for layer in layers)
        with _STRUCTURE_LOCK:
            ident = _STRUCTURE_IDS.setdefault(tree, len(_STRUCTURE_IDS))
            found = (ident, module.parameters(),
                     [layer for layer in layers if isinstance(layer, Dropout)])
            _STRUCTURES[module] = found
    ident, params, dropouts = found
    return ((ident, type(model), type(model.optimizer), model.sgd_steps),
            params, dropouts)


# -- capture and replay ------------------------------------------------------


def _capturing() -> bool:
    """Whether a capture is active on this thread (plans must not nest)."""
    return bool(_record.ACTIVE) and _record.current() is not None


def _replay(plan, *args):
    """``plan.replay(*args)``, counted (and timed while observed)."""
    timed = _OBSERVER.get() is not None
    start = perf_counter() if timed else 0.0
    result = plan.replay(*args)
    _notify("replay", perf_counter() - start if timed else 0.0)
    return result


def _reject(cache, key, result):
    """Mark ``key`` unsupported on this thread; the reference result stands."""
    cache.put(key, _UNSUPPORTED)
    _notify("unsupported")
    return result


def _loss_bytes(loss) -> bytes:
    return np.asarray(loss, dtype=np.float64).tobytes()


def _fit(key, params, rngs, optimizer, xr, labels, sgd_steps, reference):
    """Replay ``key``'s plan, or capture it by running ``reference()``.

    Returns the loss, or ``None`` when the key is unsupported and the
    caller must run the reference path itself.
    """
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED:
        return None
    if plan is not None:
        return _replay(plan, params, rngs, optimizer, xr, labels)
    # Capture: trace + compile + verify; always advances state once.
    pre = _Snapshot(optimizer, rngs)
    trace = _record.Trace()
    start = perf_counter()
    with _record.capturing(trace):
        loss_ref = reference()
    if not trace.ok:
        return _reject(cache, key, loss_ref)
    post = _Snapshot(optimizer, rngs)
    try:
        plan = _compile_fit(trace, params, rngs, optimizer, sgd_steps,
                            xr.shape)
    except Exception:  # repro: noqa[REP004] — any compile failure means fall back, not crash training
        return _reject(cache, key, loss_ref)
    # Trial replay from the pre-capture state: it must land bit-for-bit
    # on the reference run's post state before the plan may be cached.
    pre.restore()
    loss_plan = None
    try:
        loss_plan = plan.replay(params, rngs, optimizer, xr, labels)
    except Exception:  # repro: noqa[REP004] — trial replay failure → plan rejected below
        pass
    if (loss_plan is None or not _Snapshot(optimizer, rngs).matches(post)
            or _loss_bytes(loss_plan) != _loss_bytes(loss_ref)):
        post.restore()
        return _reject(cache, key, loss_ref)
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return loss_plan


# -- model-facing entry points ----------------------------------------------


def fit_with_plan(model, x, y):
    """Train ``model`` on ``(x, y)`` via a captured plan.

    Returns the loss, or ``None`` when the caller must run the reference
    path (ineligible model, empty batch, unsupported signature, or a
    capture already active on this thread).  ``y`` is the already
    validated int64 label vector from ``partial_fit``.
    """
    n = len(x)
    if n == 0 or _capturing() or not model._plan_eligible():
        return None
    xr = np.asarray(x, dtype=float)
    structure, params, dropouts = _structure(model)
    key = ("fit", structure, n, xr.size // n, model.module.training,
           tuple([layer.training for layer in dropouts]))
    rngs = [layer.rng for layer in dropouts]
    loss = _fit(key, params, rngs, model.optimizer, xr.reshape(n, -1), y,
                model.sgd_steps, lambda: model._fit_steps(x, y))
    return None if loss is None else float(loss)


def proba_with_plan(model, x):
    """Class probabilities via a captured plan; ``None`` → reference path."""
    n = len(x)
    if n == 0 or _capturing() or not model._plan_eligible():
        return None
    xr = np.asarray(x, dtype=float)
    structure, params, _dropouts = _structure(model)
    key = ("proba", structure, n, xr.size // n)
    xr = xr.reshape(n, -1)
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED:
        return None
    if plan is not None:
        result = _replay(plan, params, xr)
        # The reference path leaves the module in train mode unconditionally.
        model.module.train()
        return result
    trace = _record.Trace()
    start = perf_counter()
    with _record.capturing(trace):
        out_ref = model._forward_proba(x)
    if not trace.ok:
        return _reject(cache, key, out_ref)
    out_plan = None
    try:
        plan = _compile_proba(trace, params, xr.shape)
        out_plan = plan.replay(params, xr)
        model.module.train()
    except Exception:  # repro: noqa[REP004] — compile/replay failure → plan rejected below
        pass
    if (out_plan is None or out_plan.shape != out_ref.shape
            or out_plan.tobytes() != out_ref.tobytes()):
        return _reject(cache, key, out_ref)
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return out_plan

