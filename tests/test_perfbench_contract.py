"""The benchmark under perfbench/ keeps working against the package.

perfbench drives the package through its public names (params fields, block
and apply functions, the oracles, the meter).  This runs the pieces of a
traced `sine-train` run in a subprocess, since perfbench re-imports the
package afresh and must not leave those modules behind in this process.
The same subprocess then runs an untraced pass of batch-1 training steps at
the sine shape: the `zero_grad`, backward, `Adam.step` path that paper-shape
and verify-suite train by, where sine-train goes through `train_forecaster`.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import dataclasses, json, math, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import gates, layers, workloads as W
    from spans import Tracer

    w = W.WORKLOADS["sine-train"]
    s = W.set_up(w)
    tally, tracer = W.Tally(), Tracer()
    # span name of every function install() rebinds, read before it rebinds them
    pkg = s.pkg
    spans = {f"{m}.{a}": layers.span_name(getattr(getattr(pkg, m), a)) for m, a in layers.WRAPPED}
    spans.update((n, n) for n in map(layers.span_name, (pkg.tensor.Tape.backward,
                                                        pkg.training.Adam.step)))
    layers.install(tracer, s.pkg)
    gate = gates.run_gates(s, tally)
    out = W.Pass(s, w, 0, tally, tracer).run(0)
    tracer.unwrap_all()
    fired = {span.name for span in tracer.spans}
    values = layers.span_metrics(tracer, out)
    values.update(layers.role_metrics(s, 0))
    values["structured.muladds_per_fwd"] = gate["muladds_per_fwd"]
    values["data.build_ms"] = W.median(s.build_ms)
    e2e = W.end_to_end(s, out)
    for name in layers.OVERHEAD_OF:  # a traced-minus-untraced difference in run.py
        values[f"trace.overhead.{name}"] = e2e[name][0]
    steps = W.Tally()
    W.Pass(s, dataclasses.replace(w, train="steps", length=2), 0, steps).run(0)
    names = [n for n, _ in layers.per_layer_names()]
    print(json.dumps({
        "failed": tally.failed, "attempted": tally.attempted, "reasons": tally.reasons,
        "missing": [n for n in names if n not in values],
        "not_finite": [n for n in names if n in values and not math.isfinite(values[n])],
        "e2e_not_finite": [n for n, (v, _) in e2e.items() if not math.isfinite(v)],
        "wrapped": len(spans), "span_names": len(set(spans.values())),
        "unfired": [k for k, n in spans.items() if n not in fired],
        "steps": {"failed": steps.failed, "attempted": steps.attempted, "reasons": steps.reasons},
    }))
    """
)


@pytest.fixture(scope="module")
def result():
    # one BLAS thread, as perfbench/run.py sets; no bytecode written under perfbench/
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_perfbench_sine_train_runs_traced_with_no_failed_operation(result):
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["reasons"]
    assert result["missing"] == []
    assert result["not_finite"] == [] and result["e2e_not_finite"] == []


def test_perfbench_spans_fire_for_every_wrapped_function(result):
    # a call that skips the module attribute (a dispatch table bound at
    # import, say) runs the original function, and its span never fires
    assert result["wrapped"] == result["span_names"] == 24
    assert result["unfired"] == []


def test_perfbench_batch1_training_steps_run_with_no_failed_operation(result):
    steps = result["steps"]
    assert steps["attempted"] > 0
    assert steps["failed"] == 0, steps["reasons"]
