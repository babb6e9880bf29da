"""Central finite-difference oracle for validating analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, tape_scope


def analytic_grad(f: Callable[[], Tensor], params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar closure for each parameter, via one taped pass."""
    for p in params:
        p.grad = None
    with tape_scope() as tape:
        loss = f()
        tape.backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def _worst_rel_error(
    f: Callable[[], Tensor], params: Sequence[Tensor], coords: list[tuple[int, int]], step: float
) -> float:
    """Worst relative error of central differences against the analytic gradient.

    ``f`` must re-run the computation from current parameter values; it is
    evaluated twice per (parameter index, flat coordinate) pair.
    """
    analytic = analytic_grad(f, params)
    worst = 0.0
    for pi, ci in coords:
        flat = params[pi].data.ravel()
        orig = flat[ci]
        flat[ci] = orig + step
        fp = float(f().data)
        flat[ci] = orig - step
        fm = float(f().data)
        flat[ci] = orig
        num = (fp - fm) / (2.0 * step)
        ana = analytic[pi].ravel()[ci]
        worst = np.maximum(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-8))
    return float(worst)


def max_rel_error(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Worst element-wise relative error between analytic and numeric grads, at step 1e-6."""
    coords = [(pi, ci) for pi, p in enumerate(params) for ci in range(p.data.size)]
    return _worst_rel_error(f, params, coords, 1e-6)


def probe_rel_errors(
    f: Callable[[], Tensor], params: Sequence[Tensor], probes: int, rng: np.random.Generator
) -> float:
    """Spot-check random coordinates across all parameters, at step 1e-5.

    Every parameter gets at least one probe; the remaining probes are spread
    uniformly over coordinates.  Returns the worst relative error seen.
    """
    coords = [(pi, int(rng.integers(p.data.size))) for pi, p in enumerate(params)]
    total = sum(p.data.size for p in params)
    while len(coords) < probes:
        flat_i = int(rng.integers(total))
        for pi, p in enumerate(params):
            if flat_i < p.data.size:
                coords.append((pi, flat_i))
                break
            flat_i -= p.data.size
    return _worst_rel_error(f, params, coords, 1e-5)
