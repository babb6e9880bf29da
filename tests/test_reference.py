"""Unit tests for the dense baselines and attention-pattern generators."""

import numpy as np
import pytest

from monarch_surrogate.errors import ConfigurationError, DimensionError
from monarch_surrogate.reference import (
    AttentionPattern,
    DenseMHSAParams,
    dense_ffn_forward,
    dense_mhsa_forward,
    fixed_tap_aggregation,
    pattern_matrix,
    patterned_mhsa_forward,
    random_pattern,
    sum_of_convs_forward,
)
from monarch_surrogate.tensor import Tensor


def test_dense_mhsa_shapes_and_finiteness():
    rng = np.random.default_rng(0)
    p = DenseMHSAParams.create(d_in=8, heads=2, rng=rng)
    y = dense_mhsa_forward(Tensor(rng.standard_normal((5, 8))), p)
    assert y.shape == (5, 8)
    assert np.all(np.isfinite(y.data))
    with pytest.raises(ConfigurationError):
        DenseMHSAParams.create(d_in=8, heads=3, rng=rng)


def test_dense_mhsa_single_head_manual():
    rng = np.random.default_rng(1)
    p = DenseMHSAParams.create(d_in=4, heads=1, rng=rng)
    x = rng.standard_normal((6, 4))
    q = x @ p.w_qry.data[0]
    k = x @ p.w_key.data[0]
    scores = q @ k.T / np.sqrt(4)
    a = np.exp(scores - scores.max(axis=1, keepdims=True))
    a /= a.sum(axis=1, keepdims=True)
    expected = a @ x @ p.w_val.data[0] @ p.w_out.data
    got = dense_mhsa_forward(Tensor(x), p).data
    assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("heads", [1, 2, 3, 8])
def test_dense_mhsa_matches_per_head_formula(heads):
    d_k, n = 6, 5  # d_k not a perfect square
    d_in = heads * d_k
    p = DenseMHSAParams.create(d_in, heads, np.random.default_rng(heads))
    # the stacks hold the draws a per-head layout would take, head by head
    rng = np.random.default_rng(heads)
    per_head = [[rng.normal(0.0, d_in**-0.5, (d_in, d_k)) for _ in range(heads)] for _ in range(3)]
    for stack, draws in zip((p.w_qry, p.w_key, p.w_val), per_head):
        assert np.array_equal(stack.data, np.stack(draws))
    assert np.array_equal(p.w_out.data, rng.normal(0.0, d_in**-0.5, (d_in, d_in)))
    x = np.random.default_rng(100 + heads).standard_normal((n, d_in))
    expected = np.zeros((n, d_in))
    for h, (wq, wk, wv) in enumerate(zip(*per_head)):
        scores = (x @ wq) @ (x @ wk).T / np.sqrt(d_k)
        a = np.exp(scores - scores.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        expected += a @ x @ wv @ p.w_out.data[h * d_k : (h + 1) * d_k]
    got = dense_mhsa_forward(Tensor(x), p).data
    assert np.abs(got - expected).max() < 1e-12


def test_dense_ffn_manual():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4))
    w1 = rng.standard_normal((4, 6))
    w2 = rng.standard_normal((6, 4))
    got = dense_ffn_forward(Tensor(x), Tensor(w1), Tensor(w2), "relu").data
    assert np.abs(got - np.maximum(x @ w1, 0.0) @ w2).max() < 1e-12
    with pytest.raises(DimensionError):  # a hidden width of 6 meets 5 rows of W2
        dense_ffn_forward(Tensor(x), Tensor(w1), Tensor(w2[:5]), "relu")


def test_pattern_validation():
    with pytest.raises(ConfigurationError):
        AttentionPattern(kind="spiral", n=8, lam=1, weights=np.ones(1))
    with pytest.raises(ConfigurationError):  # even lambda on a diagonal band
        AttentionPattern(kind="diagonal", n=8, lam=2, weights=np.full(2, 0.5))
    with pytest.raises(ConfigurationError):  # duplicate columns
        AttentionPattern(
            kind="vertical", n=8, lam=2, weights=np.full(2, 0.5),
            columns=np.array([3, 3]),
        )
    with pytest.raises(ConfigurationError):  # column out of range
        AttentionPattern(
            kind="vertical", n=8, lam=2, weights=np.full(2, 0.5),
            columns=np.array([0, 8]),
        )
    with pytest.raises(ConfigurationError):  # weights not normalized
        AttentionPattern(kind="diagonal", n=8, lam=1, weights=np.array([0.5]))


def test_pattern_matrices_are_row_stochastic():
    rng = np.random.default_rng(3)
    for kind, lam in (("diagonal", 3), ("vertical", 4)):
        a = pattern_matrix(random_pattern(kind, 8, lam, rng))
        assert np.all(a >= 0)
        assert np.allclose(a.sum(axis=1), 1.0)


def test_diagonal_pattern_band_placement():
    p = AttentionPattern(
        kind="diagonal", n=5, lam=3, weights=np.array([0.2, 0.3, 0.5])
    )
    a = pattern_matrix(p)
    for q in range(5):
        assert a[q, (q + 1) % 5] == 0.2  # offset -1
        assert a[q, q] == 0.3
        assert a[q, (q - 1) % 5] == 0.5  # offset +1


def test_patterned_mhsa_requires_matching_heads():
    with pytest.raises(DimensionError):
        patterned_mhsa_forward(np.zeros((4, 2)), [np.eye(4)], [])
    with pytest.raises(DimensionError):
        patterned_mhsa_forward(np.zeros((4, 2)), [np.eye(3)], [np.zeros((2, 2))])


def test_sum_of_convs_identity_offset():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 3))
    w = rng.standard_normal((3, 2))
    out = sum_of_convs_forward(x, [{0: w}])
    assert np.abs(out - x @ w).max() < 1e-12


def test_fixed_tap_rows_identical():
    rng = np.random.default_rng(5)
    p = random_pattern("vertical", 8, 3, rng)
    x = rng.standard_normal((8, 4))
    out = fixed_tap_aggregation(x, p, [rng.standard_normal((4, 2))])
    assert np.abs(out - out[0]).max() == 0.0
    with pytest.raises(ConfigurationError):
        diag = random_pattern("diagonal", 8, 3, rng)
        fixed_tap_aggregation(x, diag, [np.zeros((4, 2))])


@pytest.mark.parametrize("kind, lam", [("diagonal", 3), ("vertical", 2), ("vertical", 5)])
def test_stacked_reference_functions_equal_their_list_form(kind, lam):
    n, trials = 8, 4
    stacked = random_pattern(kind, n, lam, [np.random.default_rng(s) for s in range(trials)])
    singles = [random_pattern(kind, n, lam, np.random.default_rng(s)) for s in range(trials)]
    rng = np.random.default_rng(6)
    x = rng.standard_normal((trials, n, 3))
    w = rng.standard_normal((trials, 3, 2))
    a = pattern_matrix(stacked)
    assert a.shape == (trials, n, n)
    mhsa = patterned_mhsa_forward(x, [a, a], [w, 2.0 * w])
    conv = sum_of_convs_forward(x, [{-1: w, 1: 2.0 * w}, {0: w}])
    for t, p in enumerate(singles):
        assert np.array_equal(stacked.weights[t], p.weights)
        assert np.array_equal(a[t], pattern_matrix(p))
        assert np.array_equal(mhsa[t], patterned_mhsa_forward(x[t], [a[t], a[t]], [w[t], 2.0 * w[t]]))
        assert np.array_equal(conv[t], sum_of_convs_forward(x[t], [{-1: w[t], 1: 2.0 * w[t]}, {0: w[t]}]))
        if kind == "vertical":
            assert np.array_equal(stacked.columns[t], p.columns)
            tap = fixed_tap_aggregation(x, stacked, [w])
            assert np.array_equal(tap[t], fixed_tap_aggregation(x[t], p, [w[t]]))


def test_stacked_pattern_validation_sees_each_trial():
    good = np.full((3, 2), 0.5)
    cols = np.array([[0, 1], [2, 5], [3, 7]])
    AttentionPattern(kind="vertical", n=8, lam=2, weights=good, columns=cols)
    bad_cols = cols.copy()
    bad_cols[1] = [4, 4]  # duplicate columns in one trial only
    with pytest.raises(ConfigurationError, match="distinct"):
        AttentionPattern(kind="vertical", n=8, lam=2, weights=good, columns=bad_cols)
    bad_cols[1] = [4, 8]  # out of range in one trial only
    with pytest.raises(ConfigurationError, match="out of range"):
        AttentionPattern(kind="vertical", n=8, lam=2, weights=good, columns=bad_cols)
    bad_w = good.copy()
    bad_w[2] = [0.5, 0.6]  # one trial's weights do not sum to 1
    with pytest.raises(ConfigurationError, match="sum to 1"):
        AttentionPattern(kind="vertical", n=8, lam=2, weights=bad_w, columns=cols)
    with pytest.raises(ConfigurationError):  # one column row per weight row
        AttentionPattern(kind="vertical", n=8, lam=2, weights=good, columns=cols[:2])
    with pytest.raises(ConfigurationError):  # at most one leading trial axis
        AttentionPattern(kind="diagonal", n=8, lam=1, weights=np.ones((2, 2, 1)))
