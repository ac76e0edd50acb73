"""Functional neural-network operations for :mod:`repro.nn`.

These functions operate on :class:`~repro.nn.tensor.Tensor` objects and are
fully differentiable.  They cover the needs of the streaming models used in
the FreewayML reproduction: linear layers, the usual activations, softmax /
cross-entropy losses, and 2-D convolution + max pooling for the CNN
experiments in the paper's appendix.
"""

from __future__ import annotations

import numpy as np

from . import record as _record
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "linear",
    "fused_linear",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "dropout",
    "conv2d",
    "max_pool2d",
    "one_hot",
]


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with torch-style weight layout.

    ``weight`` has shape ``(out_features, in_features)`` and ``bias`` shape
    ``(out_features,)``.
    """
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    if rec is not None:
        rec.end(("linear", x, weight, bias, None, out))
    return out


_FUSED_ACTIVATIONS = ("relu", "tanh", "sigmoid")


def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                 activation: str | None = None) -> Tensor:
    """Affine map (optionally + activation) as a *single* autograd node.

    Numerically this is bitwise-identical to ``linear(x, weight, bias)``
    followed by the activation: the forward replays the exact float
    expressions of the unfused op chain, and the backward replays the
    gemm calls the chain's matmul/transpose closures would have issued
    (``grad_W = (x.T @ g).T``, ``grad_x = g @ W``, bias unbroadcast by
    the delivery path).  What it saves is graph overhead: one node and
    one closure instead of three to five per layer — which dominates at
    streaming batch sizes (see ``docs/PERF.md``).

    An optional leading model axis runs N models at once: ``x`` of shape
    ``(models, rows, in)`` with ``weight`` ``(models, out, in)`` and
    ``bias`` ``(models, out)``.  Batched ``np.matmul`` computes each model
    slice with the same gemm as the 2-D call, so every slice is bitwise
    the single model's result.  Inputs whose rank differs from the
    weight's fall back to the unfused chain.
    """
    x = _as_tensor(x)
    xd = x.data
    wd = weight.data
    if xd.ndim != wd.ndim or wd.ndim not in (2, 3):
        out = linear(x, weight, bias)
        if activation == "relu":
            return out.relu()
        if activation == "tanh":
            return out.tanh()
        if activation == "sigmoid":
            return out.sigmoid()
        return out
    if activation is not None and activation not in _FUSED_ACTIVATIONS:
        raise ValueError(f"unsupported fused activation: {activation!r}")
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    stacked = wd.ndim == 3
    out = np.matmul(xd, np.swapaxes(wd, -1, -2))
    if bias is not None:
        # The product buffer is private (fresh from the gemm), so the bias
        # add can land in place — same ufunc, same bits, one less alloc.
        np.add(out, bias.data[:, None, :] if stacked else bias.data, out=out)
    # act_state is what the activation's backward needs: the relu mask, or
    # the activation output itself for tanh/sigmoid.
    act_state = None
    if activation == "relu":
        act_state = out > 0
        out = np.maximum(out, 0.0)
    elif activation == "tanh":
        out = np.tanh(out)
        act_state = out
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-np.clip(out, -60.0, 60.0)))
        act_state = out

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        if activation == "relu":
            g = g * act_state
        elif activation == "tanh":
            g = g * (1.0 - act_state * act_state)
        elif activation == "sigmoid":
            g = g * act_state * (1.0 - act_state)
        grad_x = np.matmul(g, wd)
        grad_weight = np.swapaxes(
            np.matmul(np.swapaxes(xd, -1, -2), g), -1, -2)
        if bias is None:
            return grad_x, grad_weight
        # A (models, out) bias is not a numpy broadcast of the output, so
        # the delivery path cannot unbroadcast it: sum the rows here.
        return grad_x, grad_weight, g.sum(axis=1) if stacked else g

    out_t = Tensor._make(out, parents, backward)
    if rec is not None:
        rec.end(("linear", x, weight, bias, activation, out_t))
    return out_t


def _recorded_activation(x: Tensor, name: str) -> Tensor:
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    out = getattr(x, name)()
    if rec is not None:
        rec.end(("act", name, x, out))
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _recorded_activation(_as_tensor(x), "relu")


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _recorded_activation(_as_tensor(x), "sigmoid")


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _recorded_activation(_as_tensor(x), "tanh")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = _as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    x = _as_tensor(x)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if not x.requires_grad:
        # Inference fast path: no gradient can flow, so skip graph
        # construction and run the identical ufunc sequence on raw
        # arrays (max → sub → exp → sum → log → sub → exp).
        data = x.data
        shifted = data - data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = Tensor(np.exp(shifted - log_norm))
    else:
        out = log_softmax(x, axis=axis).exp()
    if rec is not None:
        rec.end(("softmax", axis, x, out))
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` as a ``(n, num_classes)`` one-hot matrix."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = Tensor(one_hot(labels, log_probs.shape[-1]))
    picked = (log_probs * mask).sum(axis=-1)
    return -picked.mean()


def _fused_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """``nll_loss(log_softmax(logits))`` as one autograd node.

    Bitwise-identical to the unfused chain: the forward replays its exact
    ufunc sequence, and the backward replays — in the same order — every
    float operation the chain's ten node closures would have run (the
    broadcast copies, the ``(-g).sum`` unbroadcast of the log-norm grad,
    and the two-consumer pair addition at the shifted logits).  What it
    saves is ten Tensor allocations and closure round-trips per loss
    evaluation.  ``(models, rows, classes)`` logits run the same ops per
    model slice and give ``(models,)`` losses.
    """
    x = logits.data
    labels = np.asarray(labels, dtype=np.int64)
    mask = one_hot(labels, x.shape[-1])
    if x.ndim == 3:
        if labels.shape != x.shape[:2]:
            raise ValueError(
                f"labels must have shape {x.shape[:2]}; got {labels.shape}")
        mask = mask.reshape(x.shape)
    shifted = x - x.max(axis=-1, keepdims=True)
    exp_shifted = np.exp(shifted)
    norm = exp_shifted.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(norm)
    picked = (log_probs * mask).sum(axis=-1)
    inv_count = 1.0 / x.shape[-2]
    loss = -(picked.sum(axis=-1) * inv_count)

    def backward(g: np.ndarray):
        # Broadcast *views* stand in for the chain's materialized copies:
        # the consumers below are elementwise, so the products come out
        # bit-for-bit the same without the intermediate allocations.
        g_picked = np.broadcast_to((-g * inv_count)[..., None], picked.shape)
        g_log_probs = np.broadcast_to(g_picked[..., None], x.shape)
        g_masked = g_log_probs * mask
        g_log_norm = (-g_masked).sum(axis=-1, keepdims=True)
        g_exp = np.broadcast_to(g_log_norm / norm, x.shape)
        return (g_masked + g_exp * exp_shifted,)

    return Tensor._make(loss, (logits,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``labels``.

    ``(models, rows, classes)`` logits with ``(models, rows)`` labels give
    one loss per model, ``(models,)``; seed ``backward`` with
    ``np.ones(models)`` to mirror N independent scalar ``backward()``
    calls.  Each model's loss and gradient are bitwise its own 2-D call.
    """
    logits = _as_tensor(logits)
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if logits.data.ndim in (2, 3):
        out = _fused_cross_entropy(logits, labels)
    else:
        out = nll_loss(log_softmax(logits, axis=-1), labels)
    if rec is not None:
        rec.end(("ce", logits, out))
    return out


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error."""
    target_t = _as_tensor(target).detach()
    diff = prediction - target_t
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, target) -> Tensor:
    """Stable binary cross-entropy on raw logits (mean over elements)."""
    target_t = _as_tensor(target).detach()
    # log(1 + exp(-|x|)) + max(x, 0) - x * y, the standard stable form.
    x = logits
    max_part = x.relu()
    abs_x = x.abs()
    log_part = ((-abs_x).exp() + 1.0).log()
    return (max_part - x * target_t + log_part).mean()


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | list[np.random.Generator]) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` in training.

    ``rng`` is one generator, or a sequence of one generator per slice of
    a leading model axis.  Each slice then draws ``random(shape[1:])``
    from its own generator, in model order: exactly the draw that model's
    own 2-D forward would make.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1); got {p}")
    rec = _record.current() if _record.ACTIVE else None
    if rec is not None:
        rec.begin()
    if isinstance(rng, (list, tuple)):
        draws = np.empty(x.shape)
        for model, generator in enumerate(rng):
            generator.random(out=draws[model])
    else:
        draws = rng.random(x.shape)
    mask = (draws >= p).astype(x.data.dtype) / (1.0 - p)
    out = x * Tensor(mask)
    if rec is not None:
        rec.end(("dropout", p, rng, x, out))
    return out


# ---------------------------------------------------------------------------
# Convolution and max pooling over strided kernel-offset windows.
# ---------------------------------------------------------------------------


def _pair(value) -> tuple[int, int]:
    """Normalize an int-or-pair argument to an ``(h, w)`` tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _windows(x_shape, kernel_h, kernel_w, stride, padding):
    """One ``(..., out_h, out_w)`` strided index per kernel offset.

    Offsets come in row-major ``(ki, kj)`` order; indexing the (padded)
    input with ``windows[ki * kernel_w + kj]`` views every output
    position's element at that offset.  Returns ``(windows, out_h, out_w)``.
    """
    stride_h, stride_w = _pair(stride)
    pad_h, pad_w = _pair(padding)
    out_h = (x_shape[-2] + 2 * pad_h - kernel_h) // stride_h + 1
    out_w = (x_shape[-1] + 2 * pad_w - kernel_w) // stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv/pool output would be empty for input {tuple(x_shape)} with "
            f"kernel ({kernel_h},{kernel_w}), stride ({stride_h},{stride_w}), "
            f"padding ({pad_h},{pad_w})"
        )
    span_h, span_w = stride_h * (out_h - 1) + 1, stride_w * (out_w - 1) + 1
    windows = [(Ellipsis, slice(ki, ki + span_h, stride_h),
                slice(kj, kj + span_w, stride_w))
               for ki in range(kernel_h) for kj in range(kernel_w)]
    return windows, out_h, out_w


def _im2col(x: np.ndarray, kernel_h, kernel_w, stride, padding):
    """``(batch, C*kh*kw, out_h*out_w)`` columns plus ``out_h, out_w``.

    The columns keep batch as the innermost memory axis, the layout a
    fancy-index gather produces: einsum's summation order follows operand
    strides, so this layout is what keeps conv results bitwise stable.
    """
    windows, out_h, out_w = _windows(x.shape, kernel_h, kernel_w, stride,
                                     padding)
    batch, channels, height, width = x.shape
    pad_h, pad_w = _pair(padding)
    if pad_h or pad_w:
        padded = np.zeros((batch, channels, height + 2 * pad_h,
                           width + 2 * pad_w), dtype=x.dtype)
        padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width] = x
        x = padded
    cols = np.empty((channels, len(windows), out_h, out_w, batch),
                    dtype=x.dtype).transpose(4, 0, 1, 2, 3)
    for offset, window in enumerate(windows):
        cols[:, :, offset] = x[window]
    return cols.reshape(batch, -1, out_h * out_w), out_h, out_w


def _col2im(cols: np.ndarray, x_shape, kernel_h, kernel_w, stride, padding):
    """Scatter-add columns back onto a ``x_shape`` input gradient.

    One strided add per offset, in offset order, onto +0.0: every pixel
    receives the same additions in the same order as an ``np.add.at``
    scatter over the gathered indices, so the sums are bitwise equal.
    """
    windows, out_h, out_w = _windows(x_shape, kernel_h, kernel_w, stride,
                                     padding)
    batch, channels, height, width = x_shape
    pad_h, pad_w = _pair(padding)
    padded = np.zeros((batch, channels, height + 2 * pad_h, width + 2 * pad_w),
                      dtype=cols.dtype)
    cols = cols.reshape(batch, channels, len(windows), out_h, out_w)
    for offset, window in enumerate(windows):
        target = padded[window]
        target += cols[:, :, offset]
    return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation, as in PyTorch).

    ``x`` has shape ``(batch, in_channels, H, W)`` and ``weight`` has shape
    ``(out_channels, in_channels, kh, kw)``.  ``stride`` and ``padding`` may
    be ints or ``(h, w)`` pairs, so 1-D convolutions over tabular features
    can be expressed as ``(1, k)`` kernels.
    """
    x = _as_tensor(x)
    kernel_out, kernel_in, kernel_h, kernel_w = weight.shape
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (batch, C, H, W) input; got shape {x.shape}")
    if x.shape[1] != kernel_in:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {kernel_in}"
        )
    cols, out_h, out_w = _im2col(x.data, kernel_h, kernel_w, stride, padding)
    weight_mat = weight.data.reshape(kernel_out, -1)
    out = np.einsum("of,bfp->bop", weight_mat, cols)
    out = out.reshape(x.shape[0], kernel_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        g_mat = g.reshape(g.shape[0], kernel_out, -1)  # (batch, out_c, positions)
        grad_weight = np.einsum("bop,bfp->of", g_mat, cols).reshape(weight.shape)
        grad_x = None  # a first layer's input gradient has no consumer
        if x.requires_grad:
            grad_cols = np.einsum("of,bop->bfp", weight_mat, g_mat)
            grad_x = _col2im(grad_cols, x_shape, kernel_h, kernel_w, stride,
                             padding)
        if bias is None:
            return grad_x, grad_weight
        grad_bias = g.sum(axis=(0, 2, 3))
        return grad_x, grad_weight, grad_bias

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """2-D max pooling over ``(batch, channels, H, W)`` input.

    ``kernel_size`` and ``stride`` may be ints or ``(h, w)`` pairs.  Each
    output takes the first maximum of its window in row-major order, and
    the first NaN if the window holds one (``np.argmax``'s rules).
    """
    x = _as_tensor(x)
    kernel_h, kernel_w = _pair(kernel_size)
    stride = kernel_size if stride is None else stride
    windows, _, _ = _windows(x.shape, kernel_h, kernel_w, stride, 0)
    data = x.data
    out = data[windows[0]].copy()
    # Which offset won each output; only backward reads it.
    winner = (np.zeros(out.shape, dtype=np.intp)
              if x.requires_grad and is_grad_enabled() else None)
    for offset, window in enumerate(windows[1:], 1):
        candidate = data[window]
        # A candidate wins unless it is <= the running max (so a NaN
        # wins), and never over a NaN (so the first NaN stays).
        wins = ~(candidate <= out)
        wins &= out == out
        out = np.where(wins, candidate, out)
        if winner is not None:
            np.maximum(winner, wins * offset, out=winner)  # later offsets win

    def backward(g: np.ndarray):
        grad = np.zeros(x.shape, dtype=data.dtype)
        for offset, window in enumerate(windows):
            target = grad[window]
            target += np.where(winner == offset, g, 0.0)
        return (grad,)

    return Tensor._make(out, (x,), backward)
