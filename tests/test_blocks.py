"""Unit tests for the surrogate attention/FFN blocks and the enhanced layer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monarch_surrogate import training
from monarch_surrogate.blocks import (
    EnhancedLayerParams,
    SurrogateAttentionParams,
    SurrogateFFNParams,
    enhanced_layer_forward,
    surrogate_attention_forward,
    surrogate_ffn_forward,
)
from monarch_surrogate.data import build_dataset
from monarch_surrogate.errors import ConfigurationError, DimensionError
from monarch_surrogate.structured import pad_to_square
from monarch_surrogate.tensor import LAYER_NORM_EPS, Tensor
from monarch_surrogate.training import DenseLayerParams, ForecasterParams
from monarch_surrogate.verification import (
    THRESH_BLOCK_ORACLE,
    _dense_sab_oracle,
    _dense_sfb_oracle,
)


def test_attention_params_shapes():
    rng = np.random.default_rng(0)
    p = SurrogateAttentionParams.create(96, 32, heads=4, rng=rng)
    assert p.head_width == 8
    assert p.d_head == 9
    assert p.n_pad == 100
    assert len(p.m_q) == len(p.w_out) == 4
    assert all(w.shape == (9, 32) for w in p.w_out)
    assert np.array_equal(p.m_q[-1].right.data, p.q_stack.right.data[3])
    with pytest.raises(IndexError):
        p.m_q[4]
    heads = p.w_out[1:3]  # a slice of the views: still views of heads 1 and 2
    assert len(heads) == 2
    for h, w in zip((1, 2), heads):
        rows = p.w_stack.data[h * 9 : (h + 1) * 9]
        assert not w.data.flags.writeable and np.shares_memory(w.data, p.w_stack.data)
        assert np.array_equal(w.data, rows)
    # built straight from the stacks, the params read heads and d_in off them
    q = SurrogateAttentionParams(p.q_stack, p.k_stack, p.v_stack, p.m1, p.m2, p.w_stack)
    assert (q.heads, q.d_in, q.head_width, q.d_head, q.n_pad) == (4, 32, 8, 9, 100)


def test_attention_rejects_indivisible_heads():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        SurrogateAttentionParams.create(16, 10, heads=3, rng=rng)


def test_attention_rejects_mismatched_stacks():
    rng = np.random.default_rng(0)
    p = SurrogateAttentionParams.create(16, 8, heads=2, rng=rng)
    q = SurrogateAttentionParams.create(16, 8, heads=4, rng=rng)
    with pytest.raises(DimensionError):  # 4 groups for Q's 2 heads
        SurrogateAttentionParams(p.q_stack, q.k_stack, p.v_stack, p.m1, p.m2, p.w_stack)
    with pytest.raises(DimensionError):
        SurrogateAttentionParams(p.q_stack, p.k_stack, p.v_stack, p.m1, p.m2, q.w_stack)


@pytest.mark.parametrize("n,d,heads", [(4, 4, 1), (16, 8, 2), (10, 6, 3)])
def test_attention_matches_dense_oracle(n, d, heads):
    rng = np.random.default_rng(n + d)
    p = SurrogateAttentionParams.create(n, d, heads=heads, rng=rng)
    x = rng.standard_normal((n, d))
    fast = surrogate_attention_forward(Tensor(x), p).data
    assert fast.shape == (n, d)
    assert np.abs(fast - _dense_sab_oracle(x, p)).max() < 1e-10


def test_attention_input_validation():
    rng = np.random.default_rng(1)
    p = SurrogateAttentionParams.create(4, 4, heads=2, rng=rng)
    with pytest.raises(DimensionError):
        surrogate_attention_forward(Tensor(np.zeros((4, 5))), p)
    with pytest.raises(DimensionError):
        surrogate_attention_forward(Tensor(np.zeros((9, 4))), p)


def test_ffn_defaults_and_validation():
    rng = np.random.default_rng(2)
    p = SurrogateFFNParams.create(6, rng)
    assert p.d_ffn == 9
    with pytest.raises(ConfigurationError):
        SurrogateFFNParams.create(6, rng, d_ffn=8)
    with pytest.raises(ConfigurationError):
        SurrogateFFNParams.create(16, rng, d_ffn=9)


@pytest.mark.parametrize("sigma", ["relu", "gelu"])
def test_ffn_matches_dense_oracle(sigma):
    rng = np.random.default_rng(3)
    p = SurrogateFFNParams.create(6, rng, d_ffn=16, sigma=sigma)
    x = rng.standard_normal((5, 6))
    fast = surrogate_ffn_forward(Tensor(x), p).data
    assert fast.shape == (5, 6)
    assert np.abs(fast - _dense_sfb_oracle(x, p)).max() < 1e-10


@pytest.mark.parametrize("norm_style", ["post-ln", "pre-ln"])
def test_enhanced_layer_shapes(norm_style):
    rng = np.random.default_rng(4)
    p = EnhancedLayerParams.create(6, 4, 2, rng, norm_style=norm_style)
    y = enhanced_layer_forward(Tensor(rng.standard_normal((6, 4))), p)
    assert y.shape == (6, 4)
    assert np.all(np.isfinite(y.data))


def test_enhanced_layer_rejects_unknown_norm_style():
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigurationError):
        EnhancedLayerParams.create(6, 4, 2, rng, norm_style="sandwich")


def test_enhanced_layer_checks_norm_style_however_built():
    # "post_ln" is not "post-ln"; left unchecked it would run the pre-LN branch
    p = EnhancedLayerParams.create(6, 4, 2, np.random.default_rng(5))
    with pytest.raises(ConfigurationError, match="post_ln"):
        dataclasses.replace(p, norm_style="post_ln")
    with pytest.raises(ConfigurationError, match="post_ln"):
        EnhancedLayerParams(**{**vars(p), "norm_style": "post_ln"})


def test_parameter_lists_cover_all_learnables():
    rng = np.random.default_rng(7)
    # surrogate layer: 3 head-stacked QKV Monarchs x 2 factors + M1/M2 x 2 + stacked W_out
    #   + FFN 2 Monarchs x 2 + 4 layer-norm tensors
    # dense layer: 3 head-stacked projections + W_out + W1, W2 + 4 layer-norm tensors
    per_layer = {"surrogate": 6 + 4 + 1 + 4 + 4, "dense": 3 + 1 + 2 + 4}
    layers = {
        "surrogate": EnhancedLayerParams.create(6, 4, 2, rng),
        "dense": DenseLayerParams.create(4, 2, 8, rng),
    }
    for variant, layer in layers.items():
        params = layer.parameters()
        assert len(params) == per_layer[variant]
        assert len({id(t) for t in params}) == len(params)
        assert all(t.requires_grad for t in params)
        model = ForecasterParams.create(variant, 6, 3, 4, 2, 2, 8, rng)
        params = model.parameters()
        assert len(params) == 2 * per_layer[variant] + 2
        assert len({id(t) for t in params}) == len(params)
        assert params[0] is model.embed and params[-1] is model.head


def test_parameters_hold_each_stack_once_and_views_follow_the_stacks(monkeypatch):
    rng = np.random.default_rng(8)
    layer = EnhancedLayerParams.create(6, 6, 3, rng)
    attn = layer.attn
    stacks = [attn.q_stack.left, attn.q_stack.right, attn.k_stack.left, attn.k_stack.right,
              attn.v_stack.left, attn.v_stack.right, attn.m1.left, attn.m1.right,
              attn.m2.left, attn.m2.right, attn.w_stack]
    params = layer.parameters()
    assert [id(t) for t in attn.parameters()] == [id(t) for t in stacks]
    assert len({id(t) for t in params}) == len(params) == len(stacks) + 4 + 4

    def views_match(attn):
        views = [(m.left, attn.q_stack.left.data[h]) for h, m in enumerate(attn.m_q)]
        views += [(m.right, attn.q_stack.right.data[h]) for h, m in enumerate(attn.m_q)]
        views += [(w, attn.w_stack.data[h * attn.d_head : (h + 1) * attn.d_head])
                  for h, w in enumerate(attn.w_out)]
        ids = {id(p) for p in attn.parameters()}
        return all(id(v) not in ids and not v.data.flags.writeable
                   and np.shares_memory(v.data, s) and np.array_equal(v.data, s)
                   for v, s in views)

    assert views_match(attn)
    for p in params:
        p.grad = np.ones_like(p.data)
    before = attn.w_out[1].data.copy()
    training.Adam(params, lr=0.1).step()
    assert views_match(attn) and not np.array_equal(attn.w_out[1].data, before)
    with pytest.raises(ValueError):  # read-only: a write must go through the stack
        attn.w_out[0].data[0, 0] = 1.0

    # Adam rebinds every parameter's .data to its view of one flat buffer, and
    # train_forecaster's best-state restore writes into that buffer
    created = []
    real_create = training.ForecasterParams.create

    def create(*args):
        created.append(real_create(*args))
        assert views_match(created[-1].layers[0].attn)  # seen before training, too
        return created[-1]

    monkeypatch.setattr(training.ForecasterParams, "create", create)
    series = np.sin(np.arange(80) * 2 * np.pi / 8)
    cfg = training.TrainConfig(d_model=6, heads=3, layers=1, d_ff=16, epochs=2, seed=1)
    training.train_forecaster(build_dataset(series, 8, 4), cfg)
    (model,) = created
    assert views_match(model.layers[0].attn)


# random shapes: any sequence length (square or not) and head widths that
# are often not perfect squares, so every Monarch sees padded inputs
block_shapes = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "heads": st.integers(1, 4),
    "head_width": st.integers(1, 7),
    "ffn_extra": st.integers(0, 2),  # d_ffn = (ceil(sqrt(d_model)) + extra)^2
    "norm_style": st.sampled_from(["post-ln", "pre-ln"]),
    "sigma": st.sampled_from(["relu", "gelu", "identity"]),
    "seed": st.integers(0, 2**32 - 1),
}).filter(lambda s: s["heads"] * s["head_width"] >= 2)  # layer norm needs two features


def _layer(shape):
    rng = np.random.default_rng(shape["seed"])
    d = shape["heads"] * shape["head_width"]
    root = round(pad_to_square(d) ** 0.5) + shape["ffn_extra"]
    p = EnhancedLayerParams.create(shape["n"], d, shape["heads"], rng, norm_style=shape["norm_style"],
                                   d_ffn=root * root, sigma=shape["sigma"])
    for t in (p.ln1_gain, p.ln1_bias, p.ln2_gain, p.ln2_bias):
        t.data = rng.standard_normal(t.shape)
    return p, rng.standard_normal((shape["n"], d))


@settings(max_examples=50, deadline=None)
@given(shape=block_shapes)
def test_attention_matches_dense_oracle_on_random_shapes(shape):
    p, x = _layer(shape)
    fast = surrogate_attention_forward(Tensor(x), p.attn).data
    assert np.abs(fast - _dense_sab_oracle(x, p.attn)).max() <= THRESH_BLOCK_ORACLE


@settings(max_examples=50, deadline=None)
@given(shape=block_shapes)
def test_ffn_matches_dense_oracle_on_random_shapes(shape):
    p, x = _layer(shape)
    fast = surrogate_ffn_forward(Tensor(x), p.ffn).data
    assert np.abs(fast - _dense_sfb_oracle(x, p.ffn)).max() <= THRESH_BLOCK_ORACLE


@settings(max_examples=50, deadline=None)
@given(shape=block_shapes)
def test_layer_matches_dense_oracle_on_random_shapes(shape):
    p, x = _layer(shape)

    def ln(a, gain, bias):
        mu = a.mean(axis=-1, keepdims=True)
        return (a - mu) / np.sqrt(a.var(axis=-1, keepdims=True) + LAYER_NORM_EPS) * gain + bias

    ln1 = lambda a: ln(a, p.ln1_gain.data, p.ln1_bias.data)
    ln2 = lambda a: ln(a, p.ln2_gain.data, p.ln2_bias.data)
    sab = lambda a: _dense_sab_oracle(a, p.attn)
    sfb = lambda a: _dense_sfb_oracle(a, p.ffn)
    if p.norm_style == "post-ln":
        x1 = ln1(x + sab(x))
        dense = ln2(x1 + sfb(x1))
    else:
        x1 = x + sab(ln1(x))
        dense = x1 + sfb(ln2(x1))
    fast = enhanced_layer_forward(Tensor(x), p).data
    assert np.abs(fast - dense).max() <= THRESH_BLOCK_ORACLE
