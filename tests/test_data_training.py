"""Unit tests for the sine dataset pipeline and the training loop."""

import numpy as np
import pytest

from monarch_surrogate import tensor as T
from monarch_surrogate.bench import ModelConfig
from monarch_surrogate.data import (
    SineSpec,
    build_dataset,
    chronological_split,
    make_windows,
)
from monarch_surrogate.errors import ConfigurationError, ContractError, DimensionError
from monarch_surrogate.training import (
    ADAM_CHUNK,
    Adam,
    ForecasterParams,
    TrainConfig,
    forecaster_forward,
    train_forecaster,
)
from monarch_surrogate.tensor import Tensor, tape_scope


def test_sine_generation_periodicity():
    z = SineSpec(samples=96, period=24.0).generate()
    assert len(z) == 96
    assert np.abs(z[:72] - z[24:]).max() < 1e-12
    assert abs(z.max() - 1.0) < 1e-6
    with pytest.raises(ConfigurationError):
        SineSpec(samples=0).generate()
    with pytest.raises(ConfigurationError):
        SineSpec(period=0.0).generate()


def test_noise_is_seeded():
    a = SineSpec(samples=50, noise_std=0.1, seed=3).generate()
    b = SineSpec(samples=50, noise_std=0.1, seed=3).generate()
    c = SineSpec(samples=50, noise_std=0.1, seed=4).generate()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chronological_split_sizes():
    train, val, test = chronological_split(np.arange(100))
    assert len(train) == 60 and len(val) == 20 and len(test) == 20
    assert train[-1] == 59 and val[0] == 60 and test[0] == 80
    with pytest.raises(ConfigurationError):
        chronological_split(np.arange(10), fractions=(0.5, 0.5, 0.5))


def test_window_counts_and_alignment():
    x, y = make_windows(np.arange(20), l_in=4, l_out=2)
    assert x.shape == (15, 4) and y.shape == (15, 2)
    assert np.array_equal(x[0], [0, 1, 2, 3])
    assert np.array_equal(y[0], [4, 5])
    assert np.array_equal(x[-1], [14, 15, 16, 17])
    with pytest.raises(ConfigurationError):
        make_windows(np.arange(5), l_in=4, l_out=2)


def test_build_dataset_windows_stay_inside_splits():
    ds = build_dataset(np.arange(100, dtype=float), l_in=4, l_out=2)
    assert len(ds.train[0]) == 55 and len(ds.val[0]) == 15 and len(ds.test[0]) == 15
    assert ds.val[0][0][0] == 60.0  # first validation window starts at the split


def test_forecaster_forward_shapes():
    rng = np.random.default_rng(0)
    for variant in ("surrogate", "dense"):
        p = ForecasterParams.create(variant, 8, 3, d_model=4, heads=2,
                                    n_layers=1, d_ff=8, rng=rng)
        y = forecaster_forward(Tensor(rng.standard_normal((8, 1))), p)
        assert y.shape == (1, 3)
    with pytest.raises(ConfigurationError):
        ForecasterParams.create("conv", 8, 3, 4, 2, 1, 8, rng)


def test_forecaster_rejects_a_window_one_step_short():
    rng = np.random.default_rng(0)
    for variant in ("surrogate", "dense"):
        p = ForecasterParams.create(variant, 8, 3, d_model=4, heads=2,
                                    n_layers=1, d_ff=8, rng=rng)
        with pytest.raises(DimensionError):  # a (1, 7 * 4) flat window meets the (8 * 4, 3) head
            forecaster_forward(Tensor(rng.standard_normal((7, 1))), p)


def test_adam_moves_toward_minimum():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        p.grad = 2.0 * p.data  # d/dp of p^2
        opt.step()
    assert abs(p.data[0]) < 0.1


def test_adam_in_place_step_is_bit_identical_to_the_formula():
    rng = np.random.default_rng(3)
    # the (3, 11000) tensor straddles the first chunk boundary of the flat buffer
    shapes = [(3,), (4, 5), (3, 11000), (2, 3, 3)]
    assert 3 + 20 < ADAM_CHUNK < 3 + 20 + 33000
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr)
    no_grad = {(3, 1), (5, 2)}  # one gradient-less parameter between two others
    for t in range(1, 7):
        for i, p in enumerate(params):
            p.grad = None if (t, i) in no_grad else rng.standard_normal(p.shape)
        grads = [p.grad for p in params]
        opt.step()
        for i, g in enumerate(grads):
            if g is None:  # a parameter with no gradient is left alone
                continue
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert all(np.array_equal(p.data, r) for p, r in zip(params, ref))
        assert np.array_equal(opt.m, np.concatenate([x.ravel() for x in m]))
        assert np.array_equal(opt.v, np.concatenate([x.ravel() for x in v]))


def test_adam_rejects_a_parameter_rebound_after_layout():
    p, q = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
    opt = Adam([p, q], lr=0.1)
    q.data = q.data.copy()  # detached: a step would no longer reach it
    p.grad = q.grad = np.ones(3)
    with pytest.raises(ContractError):
        opt.step()


def test_training_steps_keep_parameters_and_gradients_in_the_flat_buffers():
    # two train_forecaster-style steps at the sine config, the second after a
    # perfbench-style `p.grad = None`, against per-tensor textbook Adam
    t = TrainConfig()
    lr, b1, b2, eps = t.lr, 0.9, 0.999, 1e-8
    for variant in ("surrogate", "dense"):
        rng = np.random.default_rng(5)
        params = ForecasterParams.create(variant, 48, 24, t.d_model, t.heads, t.layers, t.d_ff, rng)
        ps = params.parameters()
        ref = [p.data.copy() for p in ps]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        opt = Adam(ps, lr=lr)
        for step in range(1, 3):
            for p in ps:
                p.grad = None
            with tape_scope() as tape:
                pred = forecaster_forward(Tensor(rng.standard_normal((48, 1))), params)
                diff = T.sub(pred, Tensor(rng.standard_normal((1, 24))))
                tape.backward(T.mean_all(T.elementwise_mul(diff, diff)))
            for i, p in enumerate(ps):
                assert np.shares_memory(p.data, opt.flat) and np.shares_memory(p.grad, opt.grads)
                m[i] = b1 * m[i] + (1.0 - b1) * p.grad
                v[i] = b2 * v[i] + (1.0 - b2) * p.grad * p.grad
                ref[i] = ref[i] - lr * (m[i] / (1.0 - b1**step)) / (
                    np.sqrt(v[i] / (1.0 - b2**step)) + eps)
            opt.step()
            assert all(np.array_equal(p.data, r) for p, r in zip(ps, ref)), variant


@pytest.mark.parametrize("shape, nodes", [
    ("sine", {"surrogate": 22, "dense": 26}),
    ("paper", {"surrogate": 37, "dense": 45}),
])
def test_tape_nodes_per_training_step(shape, nodes):
    # the step train_forecaster takes: forecast, squared error, mean
    cfg, t = ModelConfig(), TrainConfig()
    if shape == "sine":
        cfg = ModelConfig(d_model=t.d_model, heads=t.heads, n_seq=48, layers=t.layers,
                          d_ff=t.d_ff, l_out=24)
    rng = np.random.default_rng(0)
    for variant, expected in nodes.items():
        params = ForecasterParams.create(variant, cfg.n_seq, cfg.l_out, cfg.d_model, cfg.heads,
                                         cfg.layers, cfg.d_ff, rng)
        with tape_scope() as tape:
            pred = forecaster_forward(Tensor(rng.standard_normal((cfg.n_seq, 1))), params)
            diff = T.sub(pred, Tensor(rng.standard_normal((1, cfg.l_out))))
            T.mean_all(T.elementwise_mul(diff, diff))
        assert len(tape) == expected, variant


def _tiny_dataset():
    series = SineSpec(samples=80, period=8.0).generate()
    return build_dataset(series, l_in=8, l_out=4)


def test_training_is_deterministic():
    ds = _tiny_dataset()
    cfg = TrainConfig(d_model=8, heads=2, layers=1, d_ff=16, epochs=2, seed=11)
    a = train_forecaster(ds, cfg)
    b = train_forecaster(ds, cfg)
    assert a.test_mse == b.test_mse
    assert a.val_mse == b.val_mse
    assert not a.failed


def test_training_improves_validation_loss():
    ds = _tiny_dataset()
    cfg = TrainConfig(d_model=8, heads=2, layers=1, d_ff=16, epochs=4, seed=0)
    res = train_forecaster(ds, cfg)
    assert min(res.val_mse) < res.val_mse[0]
    assert res.best_epoch == int(np.argmin(res.val_mse))


def test_training_dense_variant_runs():
    ds = _tiny_dataset()
    cfg = TrainConfig(variant="dense", d_model=8, heads=2, layers=1,
                      d_ff=16, epochs=1, seed=0)
    res = train_forecaster(ds, cfg)
    assert res.variant == "dense"
    assert np.isfinite(res.test_mse)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
@pytest.mark.parametrize("variant", ["surrogate", "dense"])
def test_a_diverging_run_fails_the_same_way_in_both_variants(variant):
    cfg = TrainConfig(variant=variant, d_model=4, heads=2, layers=1, d_ff=8, lr=1e300,
                      epochs=1, seed=0)
    res = train_forecaster(_tiny_dataset(), cfg)
    assert res.failed and res.epochs_run == 0
    assert not np.isfinite(res.test_mse) and not np.isfinite(res.test_mae)
