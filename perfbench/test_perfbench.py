"""Tests of the benchmark's own logic: run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Span, Tracer, self_time  # noqa: E402
from stats import min_samples, percentile, valid_name, valid_unit  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = Span("p", start=0.0, end=10.0)
    children = [Span("a", 1.0, 3.0), Span("b", 2.0, 4.0), Span("c", 8.0, 12.0)]
    # covered: [1, 4) and [8, 10) -> 5 of 10
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_tracer_nests_wrapped_calls_and_restores_attributes():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.inner
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner", count=lambda args: {"arg": args[0]})
    tracer.wrap(ns, "outer", "outer")
    tracer.context = "ctx"
    assert ns.outer(3) == 8
    outer, inner = tracer.select("outer")[0], tracer.select("inner")[0]
    assert inner.parent == tracer.spans.index(outer) and outer.parent == -1
    assert inner.context == "ctx" and inner.counts == {"arg": 3}
    own = tracer.self_times()
    assert own[tracer.spans.index(outer)] == pytest.approx(outer.seconds - inner.seconds)
    tracer.unwrap_all()
    assert ns.inner is original


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    assert percentile(range(1, 101), 90) == 90.0
    assert percentile(range(1, 21), 50) == 10.0
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert W.MIN_INFER == min_samples(90)


@pytest.mark.parametrize("name", ["setup_s", "surrogate.infer_ms_p90", "blocks.attn_out.fwd_ms",
                                  "trace.overhead.verify_s", "9lives", "a-b_c.d"])
def test_valid_metric_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                                  "ünïcode"])
def test_invalid_metric_names(name):
    assert not valid_name(name)


def test_units():
    assert all(valid_unit(u) for u in ("ms", "s", "windows/s", "GFLOP/s", "count", "%", "MSE"))
    assert not valid_unit("per second") and not valid_unit("x" * 17)


def _fake_samples():
    out = W.Samples()
    for v in W.VARIANTS:
        for rate in (100.0, 110.0):
            out.add(f"{v}.train", rate)
        for i in range(W.MIN_INFER):
            out.add(f"{v}.infer", 1e-3 * (1 + i / 1000))
        out.test_mse[v] = 0.01
    for t in (0.2, 0.3, 0.25):
        out.add("verify", t)
    return out


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
    e2e = W.end_to_end(types.SimpleNamespace(setup_s=[0.1, 0.2, 0.3]), _fake_samples())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_names()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert valid_name(m["name"]) and valid_unit(m["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_seed_reaches_the_inference_inputs_only():
    pkg = W.Package()
    w = W.WORKLOADS["sine-train"]
    s = types.SimpleNamespace(pkg=pkg, cfg=pkg.bench.ModelConfig(**w.model))
    a, b, c = (W.inference_inputs(s, w, seed) for seed in (1, 1, 2))
    assert a.shape == (w.samples - s.cfg.n_seq - s.cfg.l_out + 1, s.cfg.n_seq)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the model and its training order do not depend on the seed
    p1, p2 = (W.create_params(pkg, s.cfg, "surrogate") for _ in range(2))
    assert all(np.array_equal(x.data, y.data) for x, y in zip(p1.parameters(), p2.parameters()))


def test_cli_passes_the_seed_through():
    args = run.parse_args(["--workload", "paper-shape", "--seed", "7", "--seconds", "3",
                           "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("paper-shape", 7, 3.0, 1)
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope"])
