"""Tests for the stacked multi-model execution engine (``repro.nn.stacked``).

The load-bearing property is the equivalence contract: every stacked
operation — forward, loss, backward, optimizer step, dropout mask draws —
is bitwise-identical per model slice to running that model alone.  The
tests here assert it with ``np.array_equal`` (no tolerances), alongside
the rejection paths (heterogeneous architectures, mixed dtypes,
unsupported layers, mismatched optimizers) that push callers back onto
the serial path.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.stacked import architecture_key
from repro.perf.config import optimizations_disabled

NUM_FEATURES = 6
NUM_CLASSES = 3


def make_lr(seed):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(NUM_FEATURES, NUM_CLASSES, rng=rng))


def make_mlp(seed, hidden=8, dropout=0.0):
    rng = np.random.default_rng(seed)
    layers = [nn.Linear(NUM_FEATURES, hidden, rng=rng), nn.ReLU()]
    if dropout:
        layers.append(nn.Dropout(dropout,
                                 rng=np.random.default_rng(seed + 1000)))
    layers.append(nn.Linear(hidden, NUM_CLASSES, rng=rng))
    return nn.Sequential(*layers)


def make_batch(seed, rows=12):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(rows, NUM_FEATURES))
    y = rng.integers(0, NUM_CLASSES, size=rows)
    return x, y


def serial_step(module, optimizer, x, y):
    """One per-model training step, mirroring ``partial_fit``'s loop."""
    optimizer.zero_grad()
    loss = F.cross_entropy(module(nn.Tensor(x)), y)
    loss.backward()
    optimizer.step()
    return float(loss.data)


def serial_proba(module, x):
    logits_of = getattr(module, "forward", module)
    module.eval()
    with nn.no_grad():
        logits = logits_of(nn.Tensor(np.asarray(x, dtype=float)))
    module.train()
    data = logits.data
    shifted = data - data.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.exp(shifted - log_norm)


def params_of(module):
    return [parameter.data.copy() for parameter in module.parameters()]


def assert_params_equal(module, expected):
    for parameter, saved in zip(module.parameters(), expected):
        np.testing.assert_array_equal(parameter.data, saved)


class TestRoundTrip:
    def test_stack_unstack_is_bitwise_faithful(self):
        modules = [make_mlp(seed) for seed in range(3)]
        before = [params_of(module) for module in modules]
        stack = nn.stack_models(modules)
        assert stack.num_models == 3
        out = nn.unstack_models(stack)
        assert out == modules  # returns the sources
        for module, saved in zip(modules, before):
            assert_params_equal(module, saved)

    @pytest.mark.parametrize("factory", [make_lr, make_mlp])
    def test_round_trip_after_k_training_steps(self, factory):
        num_models, steps = 4, 5
        serial = [factory(seed) for seed in range(num_models)]
        stacked = [factory(seed) for seed in range(num_models)]
        serial_opts = [nn.SGD(module.parameters(), lr=0.05, momentum=0.9)
                       for module in serial]
        stack = nn.stack_models(stacked)
        optimizer = nn.make_stacked_optimizer(
            stack, [nn.SGD(module.parameters(), lr=0.05, momentum=0.9)
                    for module in stacked])
        for step in range(steps):
            batches = [make_batch(step * num_models + index)
                       for index in range(num_models)]
            for module, opt, (x, y) in zip(serial, serial_opts, batches):
                serial_step(module, opt, x, y)
            nn.stacked_fit(stack, optimizer,
                           np.stack([x for x, _y in batches]),
                           np.stack([y for _x, y in batches]))
        nn.unstack_models(stack)
        for stacked_module, serial_module in zip(stacked, serial):
            assert_params_equal(stacked_module, params_of(serial_module))

    def test_predictions_match_serial_bitwise(self):
        modules = [make_mlp(seed) for seed in range(3)]
        xs = np.stack([make_batch(seed)[0] for seed in range(3)])
        stack = nn.stack_models(modules)
        stacked_proba = stack.predict_proba(xs)
        for index, module in enumerate(modules):
            np.testing.assert_array_equal(
                stacked_proba[index], serial_proba(module, xs[index]))

    def test_equivalence_holds_with_optimizations_disabled(self):
        serial = make_lr(7)
        stacked = make_lr(7)
        x, y = make_batch(7)
        with optimizations_disabled():
            serial_step(serial, nn.SGD(serial.parameters(), lr=0.1), x, y)
            stack = nn.stack_models([stacked])
            nn.stacked_fit(
                stack, nn.make_stacked_optimizer(
                    stack, [nn.SGD(stacked.parameters(), lr=0.1)]),
                x[None], y[None])
            nn.unstack_models(stack)
        assert_params_equal(stacked, params_of(serial))


class TestDegenerateAndRejection:
    def test_single_model_stack_matches_serial(self):
        serial = make_mlp(11)
        stacked = make_mlp(11)
        x, y = make_batch(11)
        loss = serial_step(serial, nn.SGD(serial.parameters(), lr=0.05),
                           x, y)
        stack = nn.stack_models([stacked])
        losses = nn.stacked_fit(
            stack,
            nn.make_stacked_optimizer(
                stack, [nn.SGD(stacked.parameters(), lr=0.05)]),
            x[None], y[None])
        nn.unstack_models(stack)
        assert losses.shape == (1,)
        assert losses[0] == loss
        assert_params_equal(stacked, params_of(serial))

    def test_empty_model_list_rejected(self):
        with pytest.raises(nn.StackedModelError, match="at least one"):
            nn.stack_models([])

    def test_mixed_dtypes_rejected_with_clear_error(self):
        low_precision = make_lr(1)
        for parameter in low_precision.parameters():
            parameter.data = parameter.data.astype(np.float32)
        with pytest.raises(nn.StackedModelError,
                           match="mixed parameter dtypes"):
            nn.stack_models([make_lr(0), low_precision])

    def test_heterogeneous_architectures_rejected(self):
        with pytest.raises(nn.StackedModelError,
                           match="architecture mismatch"):
            nn.stack_models([make_lr(0), make_mlp(1)])

    def test_unsupported_layers_rejected(self):
        conv = nn.Sequential(
            nn.Conv2d(1, 2, 3, rng=np.random.default_rng(0)))
        with pytest.raises(nn.StackedModelError, match="Conv2d"):
            architecture_key(conv)

    def test_mismatched_optimizer_hyperparameters_rejected(self):
        modules = [make_lr(seed) for seed in range(2)]
        stack = nn.stack_models(modules)
        optimizers = [nn.SGD(modules[0].parameters(), lr=0.1),
                      nn.SGD(modules[1].parameters(), lr=0.2)]
        with pytest.raises(nn.StackedModelError, match="'lr' differs"):
            nn.make_stacked_optimizer(stack, optimizers)

    def test_mixed_optimizer_types_rejected(self):
        modules = [make_lr(seed) for seed in range(2)]
        stack = nn.stack_models(modules)
        with pytest.raises(nn.StackedModelError, match="SGD"):
            nn.StackedSGD.from_optimizers(
                stack, [nn.SGD(modules[0].parameters(), lr=0.1),
                        nn.Adam(modules[1].parameters(), lr=0.1)])

    def test_adam_step_count_mismatch_rejected(self):
        modules = [make_lr(seed) for seed in range(2)]
        optimizers = [nn.Adam(module.parameters(), lr=0.01)
                      for module in modules]
        x, y = make_batch(0)
        serial_step(modules[0], optimizers[0], x, y)  # desyncs step counts
        stack = nn.stack_models(modules)
        with pytest.raises(nn.StackedModelError, match="step counts"):
            nn.StackedAdam.from_optimizers(stack, optimizers)


class TestDropoutUnderStacking:
    def test_masks_consume_each_models_own_rng_stream(self):
        # Train serially and stacked from identical initial states: the
        # dropout masks must come from each model's own generator in the
        # serial draw order, so parameters stay bitwise-equal throughout —
        # and a *serial* step after unstacking still matches, proving the
        # streams advanced identically.
        num_models = 3
        serial = [make_mlp(seed, dropout=0.5) for seed in range(num_models)]
        stacked = [make_mlp(seed, dropout=0.5) for seed in range(num_models)]
        serial_opts = [nn.SGD(module.parameters(), lr=0.05)
                       for module in serial]
        stacked_opts = [nn.SGD(module.parameters(), lr=0.05)
                        for module in stacked]
        batches = [make_batch(seed) for seed in range(num_models)]
        for module, opt, (x, y) in zip(serial, serial_opts, batches):
            serial_step(module, opt, x, y)
        stack = nn.stack_models(stacked)
        nn.stacked_fit(stack, nn.make_stacked_optimizer(stack, stacked_opts),
                       np.stack([x for x, _y in batches]),
                       np.stack([y for _x, y in batches]))
        nn.unstack_models(stack)
        for stacked_module, serial_module in zip(stacked, serial):
            assert_params_equal(stacked_module, params_of(serial_module))
        follow_up = make_batch(99)
        for module, opt in zip(serial, serial_opts):
            serial_step(module, opt, *follow_up)
        for module, opt in zip(stacked, stacked_opts):
            serial_step(module, opt, *follow_up)
        for stacked_module, serial_module in zip(stacked, serial):
            assert_params_equal(stacked_module, params_of(serial_module))


class TestStackedOptimizerState:
    def test_momentum_imports_and_exports_mid_training(self):
        num_models = 3
        serial = [make_lr(seed) for seed in range(num_models)]
        stacked = [make_lr(seed) for seed in range(num_models)]
        serial_opts = [nn.SGD(module.parameters(), lr=0.05, momentum=0.9)
                       for module in serial]
        stacked_opts = [nn.SGD(module.parameters(), lr=0.05, momentum=0.9)
                        for module in stacked]
        warmup = [make_batch(seed) for seed in range(num_models)]
        for pair in (zip(serial, serial_opts), zip(stacked, stacked_opts)):
            for (module, opt), (x, y) in zip(pair, warmup):
                serial_step(module, opt, x, y)  # accumulate velocity
        stack = nn.stack_models(stacked)
        optimizer = nn.StackedSGD.from_optimizers(stack, stacked_opts)
        batches = [make_batch(50 + seed) for seed in range(num_models)]
        for module, opt, (x, y) in zip(serial, serial_opts, batches):
            serial_step(module, opt, x, y)
        nn.stacked_fit(stack, optimizer,
                       np.stack([x for x, _y in batches]),
                       np.stack([y for _x, y in batches]))
        nn.unstack_models(stack)
        optimizer.export_to(stacked_opts)
        for stacked_module, serial_module in zip(stacked, serial):
            assert_params_equal(stacked_module, params_of(serial_module))
        for stacked_opt, serial_opt in zip(stacked_opts, serial_opts):
            assert set(stacked_opt._velocity) == set(serial_opt._velocity)
            for index, velocity in serial_opt._velocity.items():
                np.testing.assert_array_equal(
                    stacked_opt._velocity[index], velocity)

    def test_adam_moments_round_trip(self):
        num_models = 2
        serial = [make_mlp(seed) for seed in range(num_models)]
        stacked = [make_mlp(seed) for seed in range(num_models)]
        serial_opts = [nn.Adam(module.parameters(), lr=0.01)
                       for module in serial]
        stacked_opts = [nn.Adam(module.parameters(), lr=0.01)
                        for module in stacked]
        for step in range(3):
            batches = [make_batch(step * num_models + seed)
                       for seed in range(num_models)]
            for module, opt, (x, y) in zip(serial, serial_opts, batches):
                serial_step(module, opt, x, y)
            stack = nn.stack_models(stacked)
            optimizer = nn.make_stacked_optimizer(stack, stacked_opts)
            nn.stacked_fit(stack, optimizer,
                           np.stack([x for x, _y in batches]),
                           np.stack([y for _x, y in batches]))
            nn.unstack_models(stack)
            optimizer.export_to(stacked_opts)
        for stacked_module, serial_module in zip(stacked, serial):
            assert_params_equal(stacked_module, params_of(serial_module))
        for stacked_opt, serial_opt in zip(stacked_opts, serial_opts):
            assert stacked_opt._step_count == serial_opt._step_count
            for state in ("_m", "_v"):
                mine, theirs = (getattr(stacked_opt, state),
                                getattr(serial_opt, state))
                assert set(mine) == set(theirs)
                for index, value in theirs.items():
                    np.testing.assert_array_equal(mine[index], value)


class TestStackedCrossEntropy:
    """``F.cross_entropy`` over ``(models, rows, classes)`` logits."""

    def test_losses_match_serial_bitwise(self):
        modules = [make_lr(seed) for seed in range(3)]
        batches = [make_batch(seed) for seed in range(3)]
        serial_losses, serial_grads = [], []
        for module, (x, y) in zip(modules, batches):
            module.zero_grad()
            loss = F.cross_entropy(module(nn.Tensor(x)), y)
            loss.backward()
            serial_losses.append(float(loss.data))
            serial_grads.append([p.grad.copy() for p in module.parameters()])
        stack = nn.stack_models(modules)
        logits = stack(nn.Tensor(np.stack([x for x, _y in batches])))
        losses = F.cross_entropy(logits, np.stack([y for _x, y in batches]))
        assert losses.data.shape == (3,)
        assert losses.data.tobytes() == np.array(serial_losses).tobytes()
        losses.backward(np.ones(3))
        for model, grads in enumerate(serial_grads):
            for stacked, grad in zip(stack.stacked_params, grads):
                assert stacked.grad[model].tobytes() == grad.tobytes()

    def test_shape_and_label_validation(self):
        stack = nn.stack_models([make_lr(0), make_lr(1)])
        x = np.stack([make_batch(0)[0], make_batch(1)[0]])
        logits = stack(nn.Tensor(x))
        with pytest.raises(ValueError, match=r"labels must have shape \(2, 12\)"):
            F.cross_entropy(logits, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="labels must have shape"):
            F.cross_entropy(logits, np.zeros(24, dtype=int))
        bad = np.full((2, 12), NUM_CLASSES, dtype=int)
        with pytest.raises(ValueError, match="lie in"):
            F.cross_entropy(logits, bad)


ACTIVATIONS = {"relu": nn.ReLU, "tanh": nn.Tanh, "sigmoid": nn.Sigmoid}
OPTIMIZERS = {
    "sgd-momentum": lambda params: nn.SGD(params, lr=0.05, momentum=0.9),
    "adam": lambda params: nn.Adam(params, lr=0.01),
}


def make_deep(seed, activation, dropout, bias, hidden=8):
    """Linear+act (fused), optional Dropout, then Linear, Flatten and a
    standalone act (Flatten breaks the fusion), then the output Linear."""
    rng = np.random.default_rng(seed)
    act = ACTIVATIONS[activation]
    layers = [nn.Linear(NUM_FEATURES, hidden, bias=bias, rng=rng), act()]
    if dropout:
        layers.append(nn.Dropout(0.3, rng=np.random.default_rng(seed + 500)))
    layers += [nn.Linear(hidden, hidden, bias=bias, rng=rng), nn.Flatten(),
               act(), nn.Linear(hidden, NUM_CLASSES, bias=bias, rng=rng)]
    return nn.Sequential(*layers)


class TestMergedOpsMatchSerial:
    """Stacked runs the serial model's own ``F`` ops with a model axis:
    losses, parameters, optimizer state, Dropout streams and predictions
    all stay bitwise equal to N single-model runs."""

    @pytest.mark.parametrize("sgd_steps", [1, 2])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_stacked_fit_matches_serial_bitwise(self, activation, dropout,
                                                bias, optimizer, sgd_steps):
        num_models, rounds = 3, 2
        serial = [make_deep(seed, activation, dropout, bias)
                  for seed in range(num_models)]
        stacked = [make_deep(seed, activation, dropout, bias)
                   for seed in range(num_models)]
        serial_opts = [OPTIMIZERS[optimizer](m.parameters()) for m in serial]
        stacked_opts = [OPTIMIZERS[optimizer](m.parameters())
                        for m in stacked]
        for step in range(rounds):
            batches = [make_batch(10 * step + model)
                       for model in range(num_models)]
            serial_losses = []
            for module, opt, (x, y) in zip(serial, serial_opts, batches):
                for _ in range(sgd_steps):
                    loss = serial_step(module, opt, x, y)
                serial_losses.append(loss)
            stack = nn.stack_models(stacked)
            stacked_opt = nn.make_stacked_optimizer(stack, stacked_opts)
            losses = nn.stacked_fit(stack, stacked_opt,
                                    np.stack([x for x, _y in batches]),
                                    np.stack([y for _x, y in batches]),
                                    sgd_steps=sgd_steps)
            nn.unstack_models(stack)
            stacked_opt.export_to(stacked_opts)
            assert losses.tobytes() == np.array(serial_losses).tobytes()
        for stacked_module, serial_module in zip(stacked, serial):
            for mine, theirs in zip(stacked_module.parameters(),
                                    serial_module.parameters()):
                assert mine.data.tobytes() == theirs.data.tobytes()
            for mine, theirs in zip(stacked_module.layers,
                                    serial_module.layers):
                if isinstance(mine, nn.Dropout):
                    assert (mine.rng.bit_generator.state
                            == theirs.rng.bit_generator.state)
        for stacked_opt, serial_opt in zip(stacked_opts, serial_opts):
            for state in ("_velocity", "_m", "_v"):
                mine = getattr(stacked_opt, state, {})
                theirs = getattr(serial_opt, state, {})
                assert set(mine) == set(theirs)
                for index, value in theirs.items():
                    assert mine[index].tobytes() == value.tobytes()
        xs = np.stack([make_batch(90 + model)[0]
                       for model in range(num_models)])
        proba = nn.stack_models(stacked).predict_proba(xs)
        for model, module in enumerate(serial):
            assert (proba[model].tobytes()
                    == serial_proba(module, xs[model]).tobytes())
