"""Summary statistics, metric-name rules and the run environment record."""

from __future__ import annotations

import math
import os
import platform
import re
import statistics
import sys
from pathlib import Path

# A metric name starts with a letter or digit and holds at most 64 letters,
# digits, '_', '.' and '-'.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
# A unit holds at most 16 letters, digits, '_', '/', '%', '.' and '-'.
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

MIN_TAIL = 10  # samples that must lie beyond a reported percentile


def valid_name(name: str) -> bool:
    return _NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT_RE.fullmatch(unit) is not None


def median(samples) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def min_samples(pct: float) -> int:
    """Fewest samples that leave MIN_TAIL of them beyond the pct-th percentile."""
    n = MIN_TAIL
    while n - math.ceil(pct / 100.0 * n) < MIN_TAIL:
        n += 1
    return n


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_TAIL samples lie beyond it."""
    s = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(s))
    beyond = len(s) - rank
    if rank < 1 or beyond < MIN_TAIL:
        raise ValueError(
            f"p{pct:g} of {len(s)} samples leaves {beyond} beyond it, need {MIN_TAIL}"
        )
    return float(s[rank - 1])


def _git_revision(root: Path) -> str:
    """Read HEAD from the .git directory without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "git_revision": _git_revision(root),
    }
