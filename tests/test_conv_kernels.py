"""Bitwise oracle for the conv and max-pool kernels of repro.nn.functional.

The oracle below is the original gather formulation of both kernels:
im2col by fancy indexing, pooling by ``argmax`` over the gathered windows,
and col2im by an unbuffered ``np.add.at`` scatter.  The strided-window
kernels must reproduce it bit for bit — outputs and every gradient — on
ties, NaN (with payloads), ±inf inputs and −0.0 upstream gradients.

The shape rules of :mod:`repro.analysis` are checked against the real
kernel output shapes over the same configurations.

CI also runs this file with ``-W error::RuntimeWarning``: non-finite
inputs must pass through the kernels without floating-point warnings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.analysis import GraphValidationError, TensorSpec, infer_output_spec
from repro.nn import functional as F
from repro.nn.tensor import Tensor

# -- the reference oracle ------------------------------------------------------


def _oracle_indices(x_shape, kernel_h, kernel_w, stride, padding):
    stride_h, stride_w = F._pair(stride)
    pad_h, pad_w = F._pair(padding)
    _, channels, height, width = x_shape
    out_h = (height + 2 * pad_h - kernel_h) // stride_h + 1
    out_w = (width + 2 * pad_w - kernel_w) // stride_w + 1
    assert out_h > 0 and out_w > 0
    i0 = np.tile(np.repeat(np.arange(kernel_h), kernel_w), channels)
    i1 = stride_h * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride_w * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _oracle_im2col(x, kernel_h, kernel_w, stride, padding):
    k, i, j, out_h, out_w = _oracle_indices(x.shape, kernel_h, kernel_w,
                                            stride, padding)
    pad_h, pad_w = F._pair(padding)
    padded = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    return padded[:, k, i, j], out_h, out_w  # (batch, C*kh*kw, positions)


def _oracle_col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    batch, channels, height, width = x_shape
    pad_h, pad_w = F._pair(padding)
    k, i, j, _, _ = _oracle_indices(x_shape, kernel_h, kernel_w, stride,
                                    padding)
    padded = np.zeros((batch, channels, height + 2 * pad_h,
                       width + 2 * pad_w), dtype=cols.dtype)
    np.add.at(padded, (slice(None), k, i, j), cols)
    return padded[:, :, pad_h:pad_h + height, pad_w:pad_w + width]


def oracle_conv2d(x, weight, bias, stride, padding, g):
    """``(out, grad_x, grad_weight, grad_bias)`` of the gather conv."""
    kernel_out, _, kernel_h, kernel_w = weight.shape
    cols, out_h, out_w = _oracle_im2col(x, kernel_h, kernel_w, stride,
                                        padding)
    weight_mat = weight.reshape(kernel_out, -1)
    out = np.einsum("of,bfp->bop", weight_mat, cols)
    out = out.reshape(x.shape[0], kernel_out, out_h, out_w)
    out = out + bias.reshape(1, -1, 1, 1)
    g_mat = g.reshape(g.shape[0], kernel_out, -1)
    grad_weight = np.einsum("bop,bfp->of", g_mat, cols).reshape(weight.shape)
    grad_cols = np.einsum("of,bop->bfp", weight_mat, g_mat)
    grad_x = _oracle_col2im(grad_cols, x.shape, kernel_h, kernel_w, stride,
                            padding)
    return out, grad_x, grad_weight, g.sum(axis=(0, 2, 3))


def oracle_max_pool2d(x, kernel_size, stride, g):
    """``(out, grad_x)`` of the argmax pool."""
    kernel_h, kernel_w = F._pair(kernel_size)
    stride = kernel_size if stride is None else stride
    batch, channels, height, width = x.shape
    reshaped = x.reshape(batch * channels, 1, height, width)
    cols, out_h, out_w = _oracle_im2col(reshaped, kernel_h, kernel_w,
                                        stride, 0)
    argmax = cols.argmax(axis=1)
    positions = np.arange(cols.shape[2])
    rows = np.arange(cols.shape[0])[:, None]
    out = cols[rows, argmax, positions].reshape(batch, channels, out_h, out_w)
    grad_cols = np.zeros_like(cols)
    grad_cols[rows, argmax, positions] = g.reshape(batch * channels, -1)
    grad_x = _oracle_col2im(grad_cols, reshaped.shape, kernel_h, kernel_w,
                            stride, 0)
    return out, grad_x.reshape(x.shape)


# -- the kernels under test ----------------------------------------------------


def kernel_conv2d(x, weight, bias, stride, padding, g, input_grad=True):
    tensors = (Tensor(x, requires_grad=input_grad),
               Tensor(weight, requires_grad=True),
               Tensor(bias, requires_grad=True))
    out = F.conv2d(*tensors, stride=stride, padding=padding)
    out.backward(g)
    return (out.data,) + tuple(t.grad for t in tensors)


def kernel_max_pool2d(x, kernel_size, stride, g):
    xt = Tensor(x, requires_grad=True)
    out = F.max_pool2d(xt, kernel_size, stride)
    out.backward(g)
    return out.data, xt.grad


def out_shape(x_shape, out_channels, kernel, stride, padding):
    kernel_h, kernel_w = F._pair(kernel)
    *_, out_h, out_w = _oracle_indices(x_shape, kernel_h, kernel_w, stride,
                                       padding)
    return (x_shape[0], out_channels, out_h, out_w)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# -- random cases ----------------------------------------------------------------

#: NaNs with distinct sign and payload bits, so "first NaN wins" is visible.
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                 0x7FF8000000000123, 0x7FFC0000000000AB],
                dtype=np.uint64).view(np.float64)
SPECIALS = np.concatenate([NANS, [np.inf, -np.inf, 0.0, -0.0]])


def random_input(rng, shape, ties, nonfinite):
    """Normal draws; ``ties`` rounds them to few values (±0.0 among them),
    ``nonfinite`` overwrites that share of entries with NaN/±inf/±0.0."""
    x = rng.normal(size=shape)
    if ties:
        x = np.round(x)
    if nonfinite:
        mask = rng.random(shape) < nonfinite
        x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


def upstream_grad(rng, shape):
    """Finite upstream gradient with a share of −0.0 and +0.0 entries."""
    g = rng.normal(size=shape)
    zeros = rng.random(shape)
    g[zeros < 0.2] = -0.0
    g[zeros > 0.9] = 0.0
    return g


def int_or_pair(values):
    return st.one_of(values, st.tuples(values, values))


@st.composite
def window_configs(draw, max_padding=2):
    """Kernel, stride and padding (ints or pairs) plus an input (H, W)
    whose output is non-empty — often with H/W not divisible by stride."""
    kernel = draw(int_or_pair(st.integers(1, 3)))
    stride = draw(int_or_pair(st.integers(1, 3)))
    padding = draw(int_or_pair(st.integers(0, max_padding)))
    (kernel_h, kernel_w), (pad_h, pad_w) = F._pair(kernel), F._pair(padding)
    height = max(1, kernel_h - 2 * pad_h) + draw(st.integers(0, 5))
    width = max(1, kernel_w - 2 * pad_w) + draw(st.integers(0, 5))
    return kernel, stride, padding, height, width


data_modes = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "batch": st.sampled_from([1, 32, 700]),
    "ties": st.booleans(),
    "nonfinite": st.sampled_from([0.0, 0.05, 0.3]),
})


class TestConvOracle:
    @given(window_configs(), data_modes, st.integers(1, 2), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_gradients_bitwise(self, config, mode, in_c, out_c):
        kernel, stride, padding, height, width = config
        kernel_h, kernel_w = F._pair(kernel)
        rng = np.random.default_rng(mode["seed"])
        x = random_input(rng, (mode["batch"], in_c, height, width),
                         mode["ties"], mode["nonfinite"])
        weight = rng.normal(size=(out_c, in_c, kernel_h, kernel_w))
        bias = rng.normal(size=out_c)
        g = upstream_grad(rng, out_shape(x.shape, out_c, kernel, stride,
                                         padding))
        expected = oracle_conv2d(x, weight, bias, stride, padding, g)
        actual = kernel_conv2d(x, weight, bias, stride, padding, g)
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)

        # No input gradient: the weight and bias gradients are unchanged.
        _, grad_x, grad_weight, grad_bias = kernel_conv2d(
            x, weight, bias, stride, padding, g, input_grad=False)
        assert grad_x is None
        assert_bitwise(grad_weight, expected[2])
        assert_bitwise(grad_bias, expected[3])

    @pytest.mark.parametrize("batch", [1, 32, 700])
    def test_tabular_and_image_cnn_layers(self, batch):
        rng = np.random.default_rng(batch)
        for shape, kernel, padding in [((batch, 1, 1, 20), (1, 3), (0, 1)),
                                       ((batch, 3, 8, 8), 3, 1)]:
            x = random_input(rng, shape, ties=False, nonfinite=0.0)
            kernel_h, kernel_w = F._pair(kernel)
            weight = rng.normal(size=(4, shape[1], kernel_h, kernel_w))
            bias = rng.normal(size=4)
            g = upstream_grad(rng, (batch, 4) + shape[2:])
            expected = oracle_conv2d(x, weight, bias, 1, padding, g)
            actual = kernel_conv2d(x, weight, bias, 1, padding, g)
            for got, want in zip(actual, expected):
                assert_bitwise(got, want)


class TestMaxPoolOracle:
    @given(window_configs(max_padding=0), data_modes, st.booleans(),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_outputs_and_gradients_bitwise(self, config, mode, default_stride,
                                           channels):
        kernel, stride, _, height, width = config
        stride = None if default_stride else stride
        rng = np.random.default_rng(mode["seed"])
        x = random_input(rng, (mode["batch"], channels, height, width),
                         mode["ties"], mode["nonfinite"])
        g = upstream_grad(rng, out_shape(x.shape, channels, kernel,
                                         kernel if stride is None else stride,
                                         0))
        expected = oracle_max_pool2d(x, kernel, stride, g)
        actual = kernel_max_pool2d(x, kernel, stride, g)
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)

    def test_first_nan_and_first_tie_win(self):
        x = np.array([[[[1.0, NANS[2], NANS[1], 5.0,
                         -0.0, 0.0, 2.0, 2.0]]]])
        g = np.array([[[[3.0, -0.0, 7.0, 11.0]]]])
        out, grad_x = kernel_max_pool2d(x, (1, 2), (1, 2), g)
        expected_out, expected_grad = oracle_max_pool2d(x, (1, 2), (1, 2), g)
        assert_bitwise(out, expected_out)
        assert_bitwise(grad_x, expected_grad)
        assert out[0, 0, 0, 0].tobytes() == NANS[2].tobytes()
        assert np.signbit(out[0, 0, 0, 2])  # the −0.0 came first
        assert grad_x[0, 0, 0, 6] == 11.0 and grad_x[0, 0, 0, 7] == 0.0

    def test_overlapping_windows_accumulate_in_offset_order(self):
        rng = np.random.default_rng(7)
        x = np.round(rng.normal(size=(700, 2, 7, 5)))
        g = upstream_grad(rng, (700, 2, 5, 2))
        expected = oracle_max_pool2d(x, 3, (1, 2), g)
        actual = kernel_max_pool2d(x, 3, (1, 2), g)
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)


# -- shape rules -----------------------------------------------------------------


class TestShapeRules:
    @given(window_configs(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_rules_match_kernel_output_shapes(self, config, in_c, out_c):
        kernel, stride, padding, height, width = config
        x = np.zeros((2, in_c, height, width))
        conv = nn.Conv2d(in_c, out_c, kernel, stride=stride, padding=padding,
                         rng=np.random.default_rng(0))
        spec = infer_output_spec(conv, TensorSpec(x.shape))
        assert spec.shape == conv(Tensor(x)).shape
        if F._pair(kernel)[0] <= height and F._pair(kernel)[1] <= width:
            pool = nn.MaxPool2d(kernel, stride)
            spec = infer_output_spec(pool, TensorSpec(x.shape))
            assert spec.shape == pool(Tensor(x)).shape

    @given(int_or_pair(st.integers(1, 3)), int_or_pair(st.integers(0, 2)),
           st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rules_and_kernels_both_reject_empty_outputs(
            self, stride, padding, reach, data):
        # The kernel spans the padding plus ``reach`` rows, more than the
        # input has, so the output is empty.
        pad_h, _ = F._pair(padding)
        kernel_h = reach + 2 * pad_h
        height = data.draw(st.integers(1, reach - 1))
        x = np.zeros((2, 1, height, 6))
        conv = nn.Conv2d(1, 2, (kernel_h, 1), stride=stride, padding=padding,
                         rng=np.random.default_rng(0))
        with pytest.raises(GraphValidationError, match="empty"):
            infer_output_spec(conv, TensorSpec(x.shape))
        with pytest.raises(ValueError, match="would be empty"):
            conv(Tensor(x))
        pool = nn.MaxPool2d((kernel_h, 1), stride)
        with pytest.raises(GraphValidationError, match="empty"):
            infer_output_spec(pool, TensorSpec(x.shape))
        with pytest.raises(ValueError, match="would be empty"):
            pool(Tensor(x))
