"""Fuzzed gradient checking: random expression trees vs numeric gradients.

The strongest correctness property an autograd engine can have: for ANY
composition of its ops, backward() agrees with central differences.  Here
hypothesis builds random expression trees over a leaf tensor and we check
the gradient of the scalarized output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

from conftest import numeric_gradient

# Each op maps a Tensor to a Tensor and is smooth on the safe domain below.
UNARY_OPS = {
    "exp": lambda t: (t * 0.3).exp(),
    "log": lambda t: (t * t + 1.0).log(),
    "sqrt": lambda t: (t * t + 0.5).sqrt(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "neg": lambda t: -t,
    "square": lambda t: t ** 2,
    "scale": lambda t: t * 1.7,
    "shift": lambda t: t + 0.9,
    "reciprocal_like": lambda t: 1.0 / (t * t + 2.0),
}

BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div_safe": lambda a, b: a / (b * b + 1.5),
}


def expression_strategy():
    """A random program: a list of (op, operand) instructions."""
    unary = st.sampled_from(sorted(UNARY_OPS))
    binary = st.sampled_from(sorted(BINARY_OPS))
    step = st.one_of(
        st.tuples(st.just("unary"), unary),
        st.tuples(st.just("binary"), binary),
    )
    return st.lists(step, min_size=1, max_size=6)


def evaluate(program, leaf: Tensor) -> Tensor:
    value = leaf
    for kind, name in program:
        if kind == "unary":
            value = UNARY_OPS[name](value)
        else:
            # Binary ops pair the running value with the (reused) leaf,
            # exercising gradient accumulation through shared nodes.
            value = BINARY_OPS[name](value, leaf)
    return (value * value).mean()  # smooth scalarization


class TestRandomExpressionGradients:
    @given(expression_strategy(),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_numeric(self, program, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.5, 1.5, size=(3, 4))
        leaf = Tensor(data.copy(), requires_grad=True)
        evaluate(program, leaf).backward()
        analytic = leaf.grad

        eps = 1e-6
        numeric = numeric_gradient(
            lambda: evaluate(program, Tensor(data)).item(), data, eps=eps
        )
        # A central difference can only resolve gradients down to roughly
        # ULP(|f|) / (2 * eps); when the program blows the output up (e.g.
        # exp of a fourth power) the reference quantizes in steps of that
        # size, so widen atol to a few quanta instead of failing on noise.
        value = abs(evaluate(program, Tensor(data)).item())
        resolution = np.spacing(value) / (2.0 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=2e-4,
                                   atol=max(2e-6, 8.0 * resolution))

    @given(expression_strategy())
    @settings(max_examples=30, deadline=None)
    def test_gradients_finite(self, program):
        rng = np.random.default_rng(0)
        leaf = Tensor(rng.uniform(-1.5, 1.5, size=(5,)),
                      requires_grad=True)
        evaluate(program, leaf).backward()
        assert np.isfinite(leaf.grad).all()

    def test_deep_composition(self):
        """A long chain through every unary op stays numerically exact."""
        rng = np.random.default_rng(1)
        data = rng.uniform(-1.0, 1.0, size=(2, 3))
        program = [("unary", name) for name in sorted(UNARY_OPS)] * 2
        leaf = Tensor(data.copy(), requires_grad=True)
        evaluate(program, leaf).backward()
        numeric = numeric_gradient(
            lambda: evaluate(program, Tensor(data)).item(), data, eps=1e-6
        )
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-4, atol=1e-7)


class TestAliasedGradientOwnership:
    """A leaf's gradient must never alias a buffer it does not own.

    ``a + a`` (and friends) deliver the *same* gradient array to both
    parent slots; expressions that fan one tensor into many consumers
    accumulate several contributions into one grad.  If ``_accumulate``
    ever adopted a buffer it does not privately own, one contribution
    would overwrite another.  These cases pin the hazard, and hold the
    tape backward bitwise to the DFS oracle (``Tensor._run_dfs``) on it.
    """

    @staticmethod
    def _leaf_grad(build, data, dfs):
        """``d build(leaf).sum() / d leaf`` bytes, by tape or by DFS."""
        leaf = Tensor(data.copy(), requires_grad=True)
        out = build(leaf)
        if dfs:
            Tensor._run_dfs([(out, np.ones_like(out.data))])
        else:
            assert out._tape is not None
            out.backward()
        return leaf.grad.tobytes()

    def _aliased_value(self, leaf: Tensor) -> Tensor:
        doubled = leaf + leaf          # same grad array to both slots
        squared = doubled * doubled    # same tensor as both operands
        mixed = squared + leaf.exp() + doubled
        return (mixed * mixed).sum()

    def test_aliased_expression_matches_numeric(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-0.7, 0.7, size=(4,))
        leaf = Tensor(data.copy(), requires_grad=True)
        self._aliased_value(leaf).backward()
        numeric = numeric_gradient(
            lambda: self._aliased_value(Tensor(data)).item(), data, eps=1e-6
        )
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-4, atol=1e-7)

    def test_aliased_tape_matches_dfs(self):
        rng = np.random.default_rng(6)
        data = rng.uniform(-0.7, 0.7, size=(8,))
        assert (self._leaf_grad(self._aliased_value, data, dfs=False)
                == self._leaf_grad(self._aliased_value, data, dfs=True))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_self_references(self, seed):
        """Random self-referencing chains: tape == DFS, bit for bit."""
        rng = np.random.default_rng(seed)
        data = rng.uniform(-0.9, 0.9, size=(3,))

        def build(leaf):
            value = leaf
            for step in range(int(rng.integers(1, 5))):
                value = value + value if step % 2 == 0 else value * leaf
            return (value + leaf).sum()

        state = rng.bit_generator.state
        grads = []
        for dfs in (False, True):
            rng.bit_generator.state = state
            grads.append(self._leaf_grad(build, data, dfs))
        assert grads[0] == grads[1]
