"""Synthetic sine series, chronological splits, and sliding-window pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class SineSpec:
    samples: int = 480
    period: float = 24.0
    amplitude: float = 1.0
    noise_std: float = 0.0
    seed: int = 0

    def generate(self) -> np.ndarray:
        if self.samples < 1:
            raise ConfigurationError(f"need at least one sample, got {self.samples}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be non-negative, got {self.noise_std}")
        t = np.arange(self.samples)
        z = self.amplitude * np.sin(2.0 * np.pi * t / self.period)
        if self.noise_std > 0.0:
            z = z + np.random.default_rng(self.seed).normal(0.0, self.noise_std, self.samples)
        return z


def chronological_split(series: np.ndarray) -> tuple:
    """Cut the series into 60/20/20 train/val/test segments in time order."""
    n = len(series)
    n_train = int(n * 0.6)
    n_val = int(n * 0.2)
    return series[:n_train], series[n_train : n_train + n_val], series[n_train + n_val :]


def make_windows(segment: np.ndarray, l_in: int, l_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 (input, target) pairs entirely inside one split segment.

    Returns arrays of shape (count, l_in) and (count, l_out) where
    count = len(segment) - (l_in + l_out) + 1.
    """
    span = l_in + l_out
    count = len(segment) - span + 1
    if count < 1:
        raise ConfigurationError(
            f"segment of {len(segment)} samples too short for windows of {span}"
        )
    x = np.stack([segment[i : i + l_in] for i in range(count)])
    y = np.stack([segment[i + l_in : i + span] for i in range(count)])
    return x, y


@dataclass
class WindowedDataset:
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    l_in: int
    l_out: int


def build_dataset(series: np.ndarray, l_in: int, l_out: int) -> WindowedDataset:
    segments = chronological_split(series)
    train, val, test = (make_windows(s, l_in, l_out) for s in segments)
    return WindowedDataset(train=train, val=val, test=test, l_in=l_in, l_out=l_out)

