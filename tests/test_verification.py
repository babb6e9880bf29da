"""Unit tests for the correctness checkers themselves."""

import numpy as np
import pytest

from monarch_surrogate import gradcheck as G
from monarch_surrogate import verification as V
from monarch_surrogate.errors import ConfigurationError
from monarch_surrogate.reference import (
    fixed_tap_aggregation,
    pattern_matrix,
    patterned_mhsa_forward,
    random_pattern,
    sum_of_convs_forward,
)
from monarch_surrogate.structured import monarch_from_dense_factors
from monarch_surrogate.tensor import Tensor


def test_check_result_pass_fail():
    ok = V.CheckResult("x", 1e-12, 1e-10, 3)
    bad = V.CheckResult("x", 1e-6, 1e-10, 3)
    assert ok.passed and not bad.passed
    d = ok.to_dict()
    assert d["passed"] is True and d["seeds_run"] == 3


def test_monarch_oracle_quick():
    assert V.check_monarch_oracle(seeds=5).passed


def test_theorem_checks_quick():
    assert V.check_theorem_diagonal(8, 3, 2, seeds=5).passed
    eq, rows = V.check_theorem_vertical(8, 2, 2, seeds=5)
    assert eq.passed and rows.passed


def test_theorem_diagonal_rejects_even_lambda():
    with pytest.raises(ConfigurationError):
        V.check_theorem_diagonal(8, 2, 1, seeds=1)
    with pytest.raises(ConfigurationError):
        V.check_theorem_diagonal(4, 7, 1, seeds=1)


def test_expressiveness_construction_structure():
    c = V.build_expressiveness(16, "long_term", 5)
    assert c.source_index == 0
    b = 4
    for mat in (c.l1, c.r1, c.l2, c.r2):
        rows, cols = np.nonzero(mat)
        assert np.all(rows // b == cols // b)


def test_expressiveness_exact_values():
    # worked example: input (2, 3, 5, 7)
    x = np.array([2.0, 3.0, 5.0, 7.0])
    from monarch_surrogate.structured import monarch_from_dense_factors, monarch_to_dense

    for mode, k, expected in (("short_term", 1, 12.0), ("long_term", 2, 20.0)):
        c = V.build_expressiveness(4, mode, k)
        m1 = monarch_to_dense(monarch_from_dense_factors(4, c.l1, c.r1))
        m2 = monarch_to_dense(monarch_from_dense_factors(4, c.l2, c.r2))
        y = (m2 @ ((m1 @ x) * x)) * x
        assert y[k] == expected


def test_expressiveness_check_quick():
    for mode in ("short_term", "long_term"):
        c = V.build_expressiveness(4, mode, 2)
        assert V.check_expressiveness(c, seeds=20).passed


def test_expressiveness_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        V.build_expressiveness(4, "medium_term", 1)
    with pytest.raises(ConfigurationError):
        V.build_expressiveness(4, "short_term", 0)
    with pytest.raises(ConfigurationError):
        V.build_expressiveness(4, "short_term", 4)


def test_lti_decomposition_quick():
    assert V.check_lti_decomposition(seeds=5).passed


def test_block_oracles_quick():
    assert V.check_sab_oracle(seeds=3).passed
    assert V.check_sfb_oracle(seeds=3).passed


def test_layer_gradients_quick():
    assert V.check_layer_gradients(probes=5).passed


def test_run_all_select_filters():
    cfg = V.VerifyConfig(
        seeds_oracle=2, seeds_theorem=2, seeds_expressiveness=2,
        seeds_lti=2, seeds_block_oracle=2, gradient_probes=2,
        select=["parameter_law", "lti"],
    )
    checks = V.run_all(cfg)
    names = {c.name for c in checks}
    assert names == {"parameter_law", "lti_decomposition"}
    assert all(c.passed for c in checks)
    with pytest.raises(ConfigurationError, match="no_such_check"):
        V.run_all(V.VerifyConfig(select=["no_such_check"]))


@pytest.mark.parametrize("select", [[""], ["lti", ""]])
def test_run_all_rejects_an_empty_select_name(select):
    # "" is a substring of every check name: it would run the whole suite
    with pytest.raises(ConfigurationError, match="empty name"):
        V.run_all(V.VerifyConfig(select=select))


def test_a_check_that_runs_no_trial_raises():
    # a fold over no trial shows nothing: it must not report a pass
    with pytest.raises(ConfigurationError):
        V.check_monarch_oracle(seeds=0)
    with pytest.raises(ConfigurationError):
        V.run_all(V.VerifyConfig(seeds_lti=0, select=["lti"]))


@pytest.mark.parametrize("probes", [0, -5])
def test_layer_gradients_with_no_probe_raises(probes):
    with pytest.raises(ConfigurationError, match="probes >= 1"):
        V.run_all(V.VerifyConfig(gradient_probes=probes, select=["layer_gradients"]))


def test_layer_gradients_reports_the_coordinates_it_probed():
    # one coordinate per parameter tensor at least, then up to `probes`
    tensors = len(V.EnhancedLayerParams.create(6, 4, 2, np.random.default_rng(0)).parameters())
    assert tensors == 19
    assert V.check_layer_gradients(probes=5).seeds_run == tensors
    assert V.check_layer_gradients(probes=30).seeds_run == 30


def test_every_reported_check_can_be_selected_by_name():
    names = [c.name for c in V.run_all(V.VerifyConfig(**V.QUICK))]
    assert len(names) == 95
    for name in names:
        assert name in {c.name for c in V.run_all(V.VerifyConfig(**V.QUICK, select=[name]))}


def _nan_output(f):
    return lambda *args: Tensor(f(*args).data * np.nan)


def _nan_grads(f):
    return lambda *args: [g * np.nan for g in f(*args)]


def _nan_array(f):
    return lambda *args: f(*args) * np.nan


def _nan_projection(f):
    return lambda *args: tuple([Tensor(t.data * np.nan) for t in ts] for ts in f(*args))


def _nan_column(f, t=1):  # a batched expressiveness trial t is column t
    def poisoned(*args):
        out = f(*args).data.copy()
        out[:, t] = np.nan
        return Tensor(out)
    return poisoned


def _nan_slice(f, t=1):  # a batched theorem trial t is slice t
    def poisoned(*args):
        out = f(*args).copy()
        out[t] = np.nan
        return out
    return poisoned


# a fold with max() would drop NaN: max(0.0, nan) is 0.0, and the check would pass
# a batched check shares one evaluation among its seeds: a NaN in one seed must still fail it
@pytest.mark.parametrize(
    "module, name, poison, check",
    [
        (V, "monarch_apply", _nan_output, lambda: V.check_monarch_oracle(seeds=2)),
        (V, "surrogate_attention_forward", _nan_output,
         lambda: V.check_sab_oracle(seeds=2)),
        (V, "surrogate_ffn_forward", _nan_output,
         lambda: V.check_sfb_oracle(seeds=2)),
        (V, "surrogate_mix", _nan_output,
         lambda: V.check_expressiveness(V.build_expressiveness(4, "short_term", 1), seeds=2)),
        (V, "surrogate_mix", _nan_output, lambda: V.check_lti_decomposition(seeds=2)),
        # NaN states as well: the memorylessness test must fail, not raise
        (V, "structured_projection", _nan_projection, lambda: V.check_lti_decomposition(seeds=2)),
        (V, "sum_of_convs_forward", _nan_array, lambda: V.check_theorem_diagonal(8, 3, 2, seeds=2)),
        (V, "fixed_tap_aggregation", _nan_array,
         lambda: V.check_theorem_vertical(8, 2, 2, seeds=2)[0]),
        (G, "analytic_grad", _nan_grads, lambda: V.check_layer_gradients(probes=4)),
        (V, "surrogate_mix", _nan_column,
         lambda: V.check_expressiveness(V.build_expressiveness(4, "short_term", 1), seeds=3)),
        (V, "sum_of_convs_forward", _nan_slice, lambda: V.check_theorem_diagonal(8, 3, 2, seeds=3)),
        (V, "fixed_tap_aggregation", _nan_slice,
         lambda: V.check_theorem_vertical(8, 2, 2, seeds=3)[0]),
    ],
    ids=["monarch_oracle", "sab_oracle", "sfb_oracle", "expressiveness", "lti",
         "lti-projection", "theorem_diagonal", "theorem_vertical", "gradcheck",
         "expressiveness-one-seed", "theorem_diagonal-one-seed", "theorem_vertical-one-seed"],
)
def test_a_nan_trial_fails_its_check(monkeypatch, module, name, poison, check):
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    res = check()
    assert np.isnan(res.max_abs_diff) and not res.passed


@pytest.mark.parametrize("check", [
    lambda: V.check_theorem_diagonal(8, 3, 0, seeds=2),
    lambda: V.check_theorem_vertical(8, 2, 0, seeds=2),
    lambda: V.check_theorem_diagonal(8, 3, -1, seeds=2),
], ids=["diagonal", "vertical", "diagonal-negative"])
def test_a_theorem_check_with_no_head_raises(check):
    with pytest.raises(ConfigurationError, match="heads >= 1"):
        check()


def _trial_rows(monkeypatch, check):
    """Run check, returning the error rows its trial handed to the fold, per case."""
    rows, fold = [], V._worst

    def spy(trial, seeds, cases=(None,)):
        def recorded(rngs, case):
            rows.append(np.asarray(trial(rngs, case), dtype=float))
            return rows[-1]
        return fold(recorded, seeds, cases)

    with monkeypatch.context() as m:
        m.setattr(V, "_worst", spy)
        check()
    return rows


def _one_theorem_trial(kind, n, lam, heads, seed):
    """One seed's theorem trial, drawn and evaluated on its own with the list-form references."""
    rng = np.random.default_rng(seed)
    patterns = [random_pattern(kind, n, lam, rng) for _ in range(heads)]
    w = [rng.standard_normal((V._D_IN, V._D_OUT)) for _ in range(heads)]
    x = rng.standard_normal((n, V._D_IN))
    attn = patterned_mhsa_forward(x, [pattern_matrix(p) for p in patterns], w)
    if kind == "diagonal":
        kernels = [{int(d): f * wh for d, f in zip(p.offsets, p.weights)}
                   for p, wh in zip(patterns, w)]
        return [np.abs(attn - sum_of_convs_forward(x, kernels)).max()]
    tap = sum(fixed_tap_aggregation(x, p, [wh]) for p, wh in zip(patterns, w))
    return [np.abs(attn - tap).max(), np.abs(attn - attn[0]).max()]


def test_the_batched_theorem_trials_are_the_per_seed_trials(monkeypatch):
    seeds = 5
    (diag,) = _trial_rows(monkeypatch, lambda: V.check_theorem_diagonal(8, 3, 2, seeds=seeds))
    (vert,) = _trial_rows(monkeypatch, lambda: V.check_theorem_vertical(8, 2, 2, seeds=seeds))
    assert diag.shape == (seeds,) and vert.shape == (seeds, 2)
    for s in range(seeds):
        assert diag[s] == _one_theorem_trial("diagonal", 8, 3, 2, s)[0]
        assert np.abs(vert[s] - _one_theorem_trial("vertical", 8, 2, 2, s)).max() <= 1e-15


def test_the_batched_expressiveness_trials_are_the_per_seed_trials(monkeypatch):
    seeds = 5
    c = V.build_expressiveness(16, "short_term", 15)
    (rows,) = _trial_rows(monkeypatch, lambda: V.check_expressiveness(c, seeds=seeds))
    m1 = monarch_from_dense_factors(c.n, c.l1, c.r1)
    m2 = monarch_from_dense_factors(c.n, c.l2, c.r2)
    assert rows.shape == (seeds,)
    for s in range(seeds):
        x = Tensor(np.random.default_rng(s).uniform(-2.0, 2.0, (c.n, 1)))
        y = V.surrogate_mix(x, x, x, m1, m2).data[:, 0]
        one = abs(y[c.k] - x.data[c.k, 0] * x.data[c.source_index, 0] ** 2)
        assert abs(rows[s] - one) <= 1e-15
