"""The three workloads and the measured pass shared by the untraced and traced runs.

Everything is driven through the package's public functions.  Model
initialisation and training order always use TRAIN_SEED, so the test MSE a
workload reports is the same for every --seed and bit-identical while the
arithmetic is unchanged.  The --seed draws the inference inputs.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from stats import median, min_samples, percentile

PACKAGE = "monarch_surrogate"
MODULES = ("tensor", "structured", "blocks", "reference", "training", "data",
           "verification", "bench")
VARIANTS = ("surrogate", "dense")
TRAIN_SEED = 0
INFER_NOISE = 0.1  # noise on the seeded inference series
SETUP_REPEATS = 9
MIN_TRAIN_SAMPLES = 3
MIN_VERIFY_PASSES = 3
MIN_INFER = min_samples(90)  # forecasts per variant, so ten lie beyond p90
QUICK_VERIFY = dict(seeds_oracle=10, seeds_theorem=10, seeds_expressiveness=50,
                    seeds_lti=10, seeds_block_oracle=5, gradient_probes=10)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict  # ModelConfig fields; n_seq is the input window l_in
    samples: int  # length of the period-24 sine series
    train: str  # "forecaster": train_forecaster for `length` epochs; "steps": batch-1 steps
    length: int
    verify: dict  # VerifyConfig overrides; {} is the default suite
    shares: tuple[float, float, float]  # of --seconds: train, infer, verify


SINE_MODEL = dict(d_model=16, heads=2, n_seq=48, layers=1, d_ff=64, l_out=24)
PAPER_MODEL = dict(d_model=512, heads=8, n_seq=96, layers=2, d_ff=2048, l_out=24)
WORKLOADS = {
    w.name: w
    for w in (
        # TrainConfig defaults on the 480-sample sine of `msb train sine`: the
        # Monarchs are tiny (n = 9/49/64), so Python, tape and Adam overhead
        # dominate and BLAS-kernel gains barely show.
        Workload("sine-train", SINE_MODEL, samples=480, train="forecaster", length=1,
                 verify=QUICK_VERIFY, shares=(0.6, 0.25, 0.15)),
        # ModelConfig(), the paper's headline shape: BLAS-bound Monarch and dense
        # products dominate the forward pass, and training steps reuse the same
        # layers in backward and Adam.
        Workload("paper-shape", PAPER_MODEL, samples=720, train="steps", length=6,
                 verify=QUICK_VERIFY, shares=(0.4, 0.4, 0.2)),
        # The full `msb verify` suite: many tiny Monarchs (n = 4..256), gradcheck
        # and the dense oracles.  Its forecaster is the paper-shape one on a
        # small share of the time: BLAS-bound latencies drift least when the
        # shared machine's load changes.
        Workload("verify-suite", PAPER_MODEL, samples=720, train="steps", length=6,
                 verify={}, shares=(0.15, 0.25, 0.6)),
    )
}


class Package:
    """The package's modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


@dataclass
class Setup:
    pkg: Package
    cfg: object  # ModelConfig
    dataset: object  # WindowedDataset
    params: dict  # variant -> ForecasterParams
    setup_s: list[float] = field(default_factory=list)
    build_ms: list[float] = field(default_factory=list)


def create_params(pkg: Package, cfg, variant: str):
    rng = np.random.default_rng(TRAIN_SEED)
    return pkg.training.ForecasterParams.create(
        variant, cfg.n_seq, cfg.l_out, cfg.d_model, cfg.heads, cfg.layers, cfg.d_ff, rng)


def set_up(w: Workload) -> Setup:
    """Import, dataset build and parameter creation, repeated; the last one is kept."""
    times, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = Package()
        cfg = pkg.bench.ModelConfig(**w.model)
        series = pkg.data.SineSpec(samples=w.samples).generate()
        t1 = time.perf_counter()
        dataset = pkg.data.build_dataset(series, cfg.n_seq, cfg.l_out)
        t2 = time.perf_counter()
        params = {v: create_params(pkg, cfg, v) for v in VARIANTS}
        times.append(time.perf_counter() - t0)
        builds.append(1e3 * (t2 - t1))
    return Setup(pkg, cfg, dataset, params, times, builds)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += 1
            self.reasons.append(what)


def timed(fn):
    """(fn(), seconds it took)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


@dataclass
class Samples:
    """Recorded samples by series ("<variant>.train" in windows/s, "<variant>.infer"
    and "verify" in s), each with its time in seconds from the start of the pass."""

    values: dict = field(default_factory=dict)
    at: dict = field(default_factory=dict)
    test_mse: dict = field(default_factory=dict)
    checks_run: int = 0
    start: float = field(default_factory=time.perf_counter)

    def add(self, series: str, value: float) -> None:
        self.values.setdefault(series, []).append(value)
        self.at.setdefault(series, []).append(time.perf_counter() - self.start)

    def count(self, series: str) -> int:
        return len(self.values.get(series, ()))


def _order(i: int) -> tuple[str, str]:
    """Alternate which variant goes first, so drift falls on both alike."""
    return VARIANTS if i % 2 == 0 else VARIANTS[::-1]


def _record_mse(out: Samples, tally: Tally, variant: str, mse: float) -> None:
    """The first value is kept; every later one must repeat it bit for bit."""
    if variant not in out.test_mse:
        out.test_mse[variant] = mse
        tally.op(bool(np.isfinite(mse)), f"{variant} test MSE is not finite")
    else:
        tally.op(mse == out.test_mse[variant], f"{variant} test MSE changed between repeats")


def inference_inputs(s: Setup, w: Workload, seed: int) -> np.ndarray:
    """Every input window of a noisy sine drawn from the seed, in a seeded order."""
    series = s.pkg.data.SineSpec(samples=w.samples, noise_std=INFER_NOISE, seed=seed).generate()
    xs, _ = s.pkg.data.make_windows(series, s.cfg.n_seq, s.cfg.l_out)
    return xs[np.random.default_rng(seed).permutation(len(xs))]


class Pass:
    """One measured pass: training, inference and verify units, interleaved.

    Each unit goes to the phase furthest behind its share of the time, so
    every metric samples the whole pass and a slow spell of the machine falls
    on all of them alike.  Variants alternate which goes first.  The first
    training unit of each variant and the first forecast warm up and are not
    recorded.
    """

    PHASES = ("train", "infer", "verify")

    def __init__(self, s: Setup, w: Workload, seed: int, tally: Tally, tracer=None):
        self.s, self.w, self.tally, self.tracer = s, w, tally, tracer
        self.out = Samples()
        self.inputs = inference_inputs(s, w, seed)
        self.units = dict.fromkeys(self.PHASES, 0)
        self.spent = dict.fromkeys(self.PHASES, 0.0)
        if w.train == "steps":
            training = s.pkg.training
            self.order = np.random.default_rng(TRAIN_SEED).permutation(len(s.dataset.train[0]))
            self.opts = {v: training.Adam(s.params[v].parameters(), lr=training.TrainConfig().lr)
                         for v in VARIANTS}

    def run(self, seconds: float) -> Samples:
        shares = dict(zip(self.PHASES, self.w.shares))
        start = time.perf_counter()
        while True:
            over = time.perf_counter() - start >= seconds
            todo = [p for p in self.PHASES if not over or self.short(p)]
            if not todo:
                return self.out
            phase = min(todo, key=lambda p: self.spent[p] / shares[p])
            t0 = time.perf_counter()
            getattr(self, phase)()
            self.spent[phase] += time.perf_counter() - t0
            self.units[phase] += 1

    def short(self, phase: str) -> bool:
        """Whether a phase still lacks the samples its metrics need."""
        out = self.out
        if phase == "train":
            fixed = self.w.train == "steps" and self.units["train"] < 2 * self.w.length
            return fixed or min(out.count(f"{v}.train") for v in VARIANTS) < MIN_TRAIN_SAMPLES
        if phase == "infer":
            return min(out.count(f"{v}.infer") for v in VARIANTS) < MIN_INFER
        return out.count("verify") < MIN_VERIFY_PASSES

    def _tag(self, context: str, step: int | None = None) -> None:
        if self.tracer is not None:
            self.tracer.context, self.tracer.step = context, step

    def train(self) -> None:
        u = self.units["train"]
        k = u // 2
        v = _order(k)[u % 2]
        self._tag(v, k)
        if self.w.train == "forecaster":
            self._train_forecaster(v, record=k > 0)
        else:
            self._train_step(v, self.order[k % len(self.order)], record=k > 0)
            if u == 2 * self.w.length - 1:
                self._test_pass()

    def _train_forecaster(self, v: str, record: bool) -> None:
        """`train_forecaster` for w.length epochs."""
        s, w = self.s, self.w
        n_train = len(s.dataset.train[0])
        cfg = s.pkg.training.TrainConfig(
            variant=v, d_model=s.cfg.d_model, heads=s.cfg.heads, layers=s.cfg.layers,
            d_ff=s.cfg.d_ff, epochs=w.length, seed=TRAIN_SEED)
        res, dt = timed(lambda: s.pkg.training.train_forecaster(s.dataset, cfg))
        self.tally.op(not res.failed, f"{v} training hit a non-finite loss",
                      count=w.length * n_train)
        if record:
            self.out.add(f"{v}.train", w.length * n_train / dt)
        _record_mse(self.out, self.tally, v, res.test_mse)

    def _train_step(self, v: str, j: int, record: bool) -> None:
        """One batch-1 step: forward under a tape, backward, Adam."""
        pkg, T, tracer = self.s.pkg, self.s.pkg.tensor, self.tracer
        xs, ys = self.s.dataset.train

        def step() -> bool:
            with T.tape_scope() as tape:
                pred = pkg.training.forecaster_forward(
                    T.Tensor(xs[j][:, None]), self.s.params[v], training=True)
                diff = T.sub(pred, T.Tensor(ys[j][None, :]))
                loss = T.mean_all(T.elementwise_mul(diff, diff))
                finite = bool(np.isfinite(loss.data))
                if finite:
                    self.opts[v].zero_grad()
                    tape.backward(loss)
            if finite:
                self.opts[v].step()
            return finite

        if tracer is not None:
            span = tracer.begin("bench.train_step")
        finite, dt = timed(step)
        if tracer is not None:
            tracer.end(span)
        self.tally.op(finite, f"{v} training step on window {j} hit a non-finite loss")
        if record:
            self.out.add(f"{v}.train", 1.0 / dt)

    def _test_pass(self) -> None:
        """Forecast every test window with no tape: fixes the test MSE, counts as inference."""
        xs, ys = self.s.dataset.test
        for v in VARIANTS:
            self._tag(v)
            if self.tracer is not None:
                span = self.tracer.begin("bench.test_pass")
            se = 0.0
            for x, y in zip(xs, ys):
                pred = self._forecast(v, x)
                se += float(np.mean((pred[0] - y) ** 2))
            if self.tracer is not None:
                self.tracer.end(span)
            _record_mse(self.out, self.tally, v, se / len(xs))

    def _forecast(self, v: str, x: np.ndarray, record: bool = True) -> np.ndarray:
        pkg = self.s.pkg
        out, dt = timed(
            lambda: pkg.training.forecaster_forward(pkg.tensor.Tensor(x[:, None]), self.s.params[v]))
        pred = out.data
        if record:
            self.out.add(f"{v}.infer", dt)
        self.tally.op(bool(np.isfinite(pred).all()), f"{v} forecast is not finite")
        return pred

    def infer(self) -> None:
        """One seeded window, forecast by both variants with no tape active."""
        k = self.units["infer"]
        for v in _order(k):
            self._tag(v, k)
            self._forecast(v, self.inputs[k % len(self.inputs)], record=k > 0)

    def verify(self) -> None:
        """verification.run_all at the workload's config; every check counts."""
        V = self.s.pkg.verification
        self._tag("verify")
        checks, dt = timed(lambda: V.run_all(V.VerifyConfig(**self.w.verify)))
        self.out.add("verify", dt)
        self.out.checks_run = len(checks)
        for c in checks:
            self.tally.op(c.passed, f"verify check {c.name} failed")


def end_to_end(s: Setup, out: Samples) -> dict:
    """Every end-to-end metric as {name: (value, unit)}."""
    m = {"setup_s": (median(s.setup_s), "s")}
    for v in VARIANTS:
        m[f"{v}.train_samples_per_s"] = (median(out.values[f"{v}.train"]), "windows/s")
        ms = [1e3 * t for t in out.values[f"{v}.infer"]]
        m[f"{v}.infer_ms_p50"] = (median(ms), "ms")
        m[f"{v}.infer_ms_p90"] = (percentile(ms, 90), "ms")
    for v in VARIANTS:
        m[f"{v}.test_mse"] = (out.test_mse[v], "MSE")
    m["verify_s"] = (median(out.values["verify"]), "s")
    return m
