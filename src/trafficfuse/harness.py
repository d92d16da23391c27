"""End-to-end experiments on synthetic road networks.

Everything the pipeline needs to rehearse the full workflow at desk
scale lives here: probe thinning at a heterogeneous penetration rate,
two built-in ground-truth twins (a short chain and a 5x10 grid with a
bottleneck), metric computation, and run_pipeline, which chains
simulate -> thin -> features -> train -> predict -> assimilate ->
calibrate -> evaluate and writes every artifact with the seed embedded
in its metadata. The pipeline draws one probe sample; pool_windows sums
a sample with independent others of the same weeks.

All randomness descends from one experiment seed through named
substreams, so a rerun with the same config is byte-identical.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ensrf
from .ctm import FdArrays, TurnRatios, default_fd_params, simulate
from .features import FEATURE_NAMES, WEEKEND_DAYS, build_tensor
from .model import DTYPE, ModelConfig, normalized_adjacency
from .network import (
    BIN_SECONDS,
    CountMatrix,
    RoadNetwork,
    Segment,
    boundary_segments,
    load_network,
    save_counts,
)
from .observability import analyze, report_to_csv, report_to_json
from .propagation import (
    build_transition,
    calibrate_counts,
    export_localization,
    export_transition,
    localization_vectors,
    shrink_blend,
    update_confidence,
)
from .train import build_windows, predict, save_checkpoint, train
from .util import config_kwargs, substream, write_csv, write_json

__all__ = [
    "RATE_FLOOR",
    "PenetrationModel",
    "thin_counts",
    "pool_windows",
    "LocationMetrics",
    "MetricsReport",
    "evaluate",
    "grid_network",
    "chain_network",
    "demand_profile",
    "ExperimentConfig",
    "load_config",
    "PipelineError",
    "Pipeline",
    "run_pipeline",
]

RATE_FLOOR = 1e-6
START = dt.datetime(2024, 3, 4)  # a Monday: where the simulated clock starts
# the probe fleet's share of traffic: the base, times 1 + a sin(2 pi (h - 16) / 24)
# at hour h and the weekend factor on Saturday and Sunday
PENETRATION_BASE = 0.10
PENETRATION_HOUR_AMPLITUDE = 0.4
PENETRATION_DAY_WEEKEND = 0.85
BURN_DAYS = 1  # days of assimilation left out of scoring while the filter settles


# -- probe sampling ----------------------------------------------------------


@dataclass(frozen=True)
class PenetrationModel:
    """Heterogeneous probe sampling rates.

    base is the per-segment rate (scalar or length-N array); hour and day
    multipliers, when given, modulate it by time of week. The effective
    rate is clipped to [RATE_FLOOR, 1]. seed sets the thinning draws.
    """

    base: float | np.ndarray
    seed: int
    hour_mult: np.ndarray | None = None
    day_mult: np.ndarray | None = None

    def __post_init__(self):
        base = np.atleast_1d(np.asarray(self.base, dtype=float))
        if not ((base > 0) & (base <= 1)).all():
            raise ValueError("base penetration rates must lie in (0, 1]")
        for name, mult, k in (("hour", self.hour_mult, 24), ("day", self.day_mult, 7)):
            if mult is None:
                continue
            m = np.asarray(mult, dtype=float)
            if m.shape != (k,) or not (m > 0).all():
                raise ValueError(f"{name} multipliers must be {k} positive values")

    def effective(self, n_segments: int, hours: np.ndarray, days: np.ndarray) -> np.ndarray:
        """Clipped rate matrix (n_segments, n_bins)."""
        base = np.broadcast_to(np.atleast_1d(np.asarray(self.base, dtype=float)), (n_segments,))
        hm = np.ones(24) if self.hour_mult is None else np.asarray(self.hour_mult, dtype=float)
        dm = np.ones(7) if self.day_mult is None else np.asarray(self.day_mult, dtype=float)
        rate = base[:, None] * hm[hours][None, :] * dm[days][None, :]
        return np.clip(rate, RATE_FLOOR, 1.0)


def thin_counts(truth: CountMatrix, pen: PenetrationModel) -> CountMatrix:
    """Binomial probe sample of a true count matrix; NaN bins stay NaN."""
    values = truth.values
    if (values < 0).any():
        raise ValueError("true counts must be nonnegative")
    rate = pen.effective(values.shape[0], truth.hours(), truth.days())
    missing = np.isnan(values)
    n = np.rint(np.where(missing, 0.0, values))
    # an int64 holds counts below 2**63; casting a larger one wraps
    too_big = np.argwhere(n >= 2.0**63)
    if too_big.size:
        i, t = too_big[0]
        raise ValueError(f"segment row {i}, bin {t}: count {values[i, t]} is too large to sample (>= 2**63)")
    rng = substream(pen.seed, "thinning")
    probe = rng.binomial(n.astype(np.int64), rate).astype(float)
    probe[missing] = np.nan
    return CountMatrix(probe, truth.bin_seconds, truth.start_time)


def _week_keys(cm: CountMatrix) -> np.ndarray:
    """Second of the week of each bin start (Monday 00:00:00 is 0), shape (n_bins,)."""
    return (cm.start_time.weekday() * 86400 + cm._seconds()) % (7 * 86400)


def pool_windows(probe: CountMatrix, others) -> CountMatrix:
    """Sum count matrices whose bins start at the same second of the week.

    Pooling independent samples of the same underlying traffic raises the
    effective penetration additively: k datasets at rate p behave like
    one at k*p. Bins missing everywhere stay missing; otherwise missing
    bins contribute zero. With no others, the result equals probe.
    """
    matrices = [probe, *others]
    ref_keys = _week_keys(probe)
    for k, cm in enumerate(matrices[1:], start=1):
        if cm.values.shape != probe.values.shape or cm.bin_seconds != probe.bin_seconds:
            raise ValueError(f"pooled dataset {k} does not match the reference shape")
        if not np.array_equal(_week_keys(cm), ref_keys):
            raise ValueError(f"pooled dataset {k} is misaligned in time-of-week bins")
    stack = np.stack([cm.values for cm in matrices])
    pooled = np.nansum(stack, axis=0)
    pooled[np.isnan(stack).all(axis=0)] = np.nan
    return CountMatrix(pooled, probe.bin_seconds, probe.start_time)


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class LocationMetrics:
    mae: float
    rmse: float
    r2: float | None
    r: float | None


@dataclass(frozen=True)
class MetricsReport:
    """Per-location and pooled scores against a per-location mean baseline."""

    per_location: dict
    pooled_r2: float | None
    coverage: float | None
    n_points: int
    notes: tuple = ()

    def to_dict(self) -> dict:
        """asdict, with per_location keyed by strings, as JSON keys are."""
        d = asdict(self)
        d["per_location"] = {str(k): v for k, v in d["per_location"].items()}
        return d


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if x.std() == 0.0 or y.std() == 0.0:
        return None
    r = float(np.corrcoef(x, y)[0, 1])
    return min(1.0, max(-1.0, r))


def evaluate(estimate, truth, locations, lo=None, hi=None) -> MetricsReport:
    """Score estimates at the given segments.

    R^2 is 1 - SSE/SST with SST taken about each location's own mean;
    a zero-variance location gets r2 = None with a note rather than a
    division by zero. Coverage is the fraction of scored points falling
    inside [lo, hi] when interval arrays are supplied.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth shapes differ")
    locations = [int(i) for i in locations]
    if not locations:
        raise ValueError("need at least one location to score")
    per: dict = {}
    notes: list = []
    sse_tot = sst_tot = 0.0
    n_points = 0
    hits = trials = 0
    for i in locations:
        if not 0 <= i < truth.shape[0]:
            raise ValueError(f"location {i} outside the network")
        mask = np.isfinite(estimate[i]) & np.isfinite(truth[i])
        e, t = estimate[i][mask], truth[i][mask]
        if e.size == 0:
            raise ValueError(f"location {i} has no scorable bins")
        n_points += e.size
        err = e - t
        sse = float((err**2).sum())
        sst = float(((t - t.mean()) ** 2).sum())
        sse_tot += sse
        sst_tot += sst
        if sst == 0.0:
            r2 = None
            notes.append(f"segment {i}: zero-variance truth, r2 undefined")
        else:
            r2 = 1.0 - sse / sst
        per[i] = LocationMetrics(
            mae=float(np.abs(err).mean()),
            rmse=float(np.sqrt((err**2).mean())),
            r2=r2,
            r=_pearson(e, t),
        )
        if lo is not None and hi is not None:
            cmask = mask & np.isfinite(lo[i]) & np.isfinite(hi[i])
            hits += int(((truth[i] >= lo[i]) & (truth[i] <= hi[i]))[cmask].sum())
            trials += int(cmask.sum())
    pooled = None if sst_tot == 0.0 else 1.0 - sse_tot / sst_tot
    coverage = hits / trials if trials else None
    return MetricsReport(per, pooled, coverage, n_points, tuple(notes))


def _band_crit(interval: float) -> float:
    """The standard normal quantile at 0.5 + interval / 2: a central band
    of +-crit standard deviations holds an `interval` share."""
    return statistics.NormalDist().inv_cdf(0.5 + interval / 2.0)


# -- synthetic twins ---------------------------------------------------------

GRID_CONNECTOR_COLS = (0, 3, 6)
GRID_SOURCES = ((0, 0), (2, 0))  # (row, col) of the cells where demand enters
EAST_SHARE = 0.8  # connector cells send the rest south
# every twin segment: metres, lanes, free-flow speed in metres per second
TWIN_LENGTH, TWIN_LANES, TWIN_VFREE = 500.0, 2, 10.0


def grid_network():
    """The 5 x 10 grid twin: eastbound rows linked southward at connector
    columns; GRID_CAMERAS is laid out on it.

    Returns (net, beta, source_ids). Demand enters at the source cells,
    each row drains at its eastern end, and one 1700 veh/h cell in the
    middle, (row 2, column 5), queues up during peaks so both
    fundamental-diagram branches are exercised.
    """
    rows, cols = 5, 10

    def sid(r, c):
        return r * cols + c

    source_ids = [sid(r, c) for r, c in GRID_SOURCES]
    flagged = set(source_ids) | {sid(r, cols - 1) for r in range(rows)}
    segs = tuple(
        Segment(id=sid(r, c), length_m=TWIN_LENGTH, lanes=TWIN_LANES,
                capacity_vph=1700.0 if (r, c) == (2, 5) else 3600.0,
                free_flow_mps=TWIN_VFREE, is_boundary=sid(r, c) in flagged)
        for r in range(rows) for c in range(cols)
    )
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((sid(r, c), sid(r, c + 1)))
            if r + 1 < rows and c in GRID_CONNECTOR_COLS:
                edges.append((sid(r, c), sid(r + 1, c)))
    net = RoadNetwork(segs, tuple(edges), tuple(f"g{r}_{c}" for r in range(rows) for c in range(cols)))

    # a segment splits only east (the next id) and south
    src, dst = net.edge_from, net.edge_to
    b = np.where(net.out_degree[src] == 1, 1.0, np.where(dst == src + 1, EAST_SHARE, 1.0 - EAST_SHARE))
    return net, TurnRatios(b, net), source_ids


def chain_network():
    """The 4-segment boundary-fed chain twin, for fast end-to-end runs;
    CHAIN_CAMERAS is laid out on it."""
    n = 4
    segs = tuple(
        Segment(id=i, length_m=TWIN_LENGTH, lanes=TWIN_LANES, capacity_vph=2400.0,
                free_flow_mps=TWIN_VFREE, is_boundary=i in (0, n - 1))
        for i in range(n)
    )
    net = RoadNetwork(segs, tuple((i, i + 1) for i in range(n - 1)), tuple(f"c{i}" for i in range(n)))
    return net, TurnRatios.uniform(net), [0]


GRID_CAMERAS = {"calibration": (2, 14, 23, 36, 48), "validation": (5, 16, 27, 37)}
CHAIN_CAMERAS = {"calibration": (1,), "validation": (3,)}
# twin name -> (network builder, default camera layout)
TWINS = {"grid": (grid_network, GRID_CAMERAS), "chain": (chain_network, CHAIN_CAMERAS)}


def _daily_weight(hour_frac: np.ndarray) -> np.ndarray:
    """Two-peak weekday demand shape, normalized to max 1."""

    def bump(center, width):
        d = (hour_frac - center + 12.0) % 24.0 - 12.0
        return np.exp(-((d / width) ** 2))

    w = bump(8.5, 2.5) + 0.9 * bump(17.75, 3.0)
    return w / w.max()


DAY_FACTORS = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.8, 0.7])
DEMAND_FLOOR = 0.12  # off-peak demand as a share of the peak


def demand_profile(net: RoadNetwork, counts_like: CountMatrix, sources, peak: float) -> np.ndarray:
    """Daily two-peak demand from one scalar peak at every source segment, damped on weekends."""
    t = counts_like.n_bins
    hour_frac = counts_like.hours() + counts_like.minutes() / 60.0
    days = counts_like.days()
    shape = DEMAND_FLOOR + (1.0 - DEMAND_FLOOR) * _daily_weight(hour_frac)
    profile = np.zeros((net.n_segments, t))
    profile[list(sources)] = peak * shape * DAY_FACTORS[days]
    return profile


# -- experiment config -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One JSON-serializable document describing a full experiment.

    twin names a built-in network; a network of one's own needs twin None
    and network_path. The model and filter take their field defaults from
    ModelConfig and FilterConfig. Values no experiment varies live in
    code: START, PENETRATION_* and BURN_DAYS here, train.LR and
    train.EVAL_EVERY, propagation.CONFIDENCE_DECAY and the defaults of
    build_transition. The predictor trains
    on the first 70% of the days, rounded.
    """

    twin: str | None = "grid"
    network_path: str | None = None
    days: int = 14
    forecast_days: int = 0
    bin_seconds: int = BIN_SECONDS
    demand_peak: float = 700.0
    cameras_calibration: tuple = ()
    cameras_validation: tuple = ()
    model: ModelConfig = field(default_factory=ModelConfig)
    train_steps: int = 400
    train_batch: int = 8
    filter: ensrf.FilterConfig = field(default_factory=ensrf.FilterConfig)
    interval: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.twin is None:
            if self.network_path is None:
                raise ValueError("config needs a twin name or a network path")
        elif self.twin not in TWINS:
            raise ValueError(f"unknown twin {self.twin!r}: choose {', '.join(map(repr, TWINS))} or null")
        elif self.network_path is not None:
            raise ValueError(f"network_path needs twin null; twin {self.twin!r} would ignore it")
        if self.model.n_features != len(FEATURE_NAMES):
            raise ValueError(f"model.n_features {self.model.n_features} must be {len(FEATURE_NAMES)}, the feature count")
        overlap = set(self.cameras_calibration) & set(self.cameras_validation)
        if overlap:
            raise ValueError(f"calibration and validation cameras overlap: {sorted(overlap)}")
        if not 0 <= self.demand_peak < float("inf"):
            raise ValueError(f"demand_peak {self.demand_peak} must be finite and >= 0")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        # a day to train on, and one to score after the BURN_DAYS day
        if self.days < 2 or self.forecast_days < 0:
            raise ValueError("days must be >= 2 and forecast_days >= 0")
        for name in ("train_steps", "train_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 1")
        if not 0 < self.interval < 1:
            raise ValueError("interval must lie in (0, 1)")
        if self.bin_seconds <= 0 or 86400 % self.bin_seconds:
            raise ValueError(f"bin_seconds {self.bin_seconds} does not divide a day (86400 s)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = config_kwargs(d, cls, "experiment")
        for key, section in (("model", ModelConfig), ("filter", ensrf.FilterConfig)):
            if key in d:
                d[key] = section(**config_kwargs(d[key], section, key))
        for key in ("cameras_calibration", "cameras_validation"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8-sig") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


# -- pipeline ----------------------------------------------------------------


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _once(method):
    """Make a Pipeline stage method run to completion at most once.

    A stage that raised (as PipelineError naming the method) runs again on
    its next call; one that completed returns self at once.
    """

    @functools.wraps(method)
    def run(self):
        if method.__name__ not in self._done:
            with _stage(method.__name__):
                method(self)
            self._done.add(method.__name__)
        return self

    return run


class Pipeline:
    """Stage-by-stage pipeline; each stage caches its output on self.

    Stages recompute deterministically from the config, so any prefix of
    the chain, run in a fresh process, lands on identical numbers.
    """

    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        self._done: set = set()  # names of the stage methods that completed

    # - network and ground truth -

    @_once
    def build(self):
        cfg = self.cfg
        if cfg.twin is None:
            self.net = load_network(cfg.network_path)
            self.beta = TurnRatios.uniform(self.net)
            self.sources = [i for i in boundary_segments(self.net) if self.net.in_degree[i] == 0]
            cameras = {"calibration": (), "validation": ()}
        else:
            make, cameras = TWINS[cfg.twin]
            self.net, self.beta, self.sources = make()
        # a repeated id is one camera, kept at its first position
        self.calibration = tuple(dict.fromkeys(cfg.cameras_calibration)) or cameras["calibration"]
        self.validation = tuple(dict.fromkeys(cfg.cameras_validation)) or cameras["validation"]
        overlap = set(self.calibration) & set(self.validation)
        if overlap:
            raise ValueError(f"calibration and validation cameras overlap: {sorted(overlap)}")
        for i in (*self.calibration, *self.validation):
            if not 0 <= i < self.net.n_segments:
                raise ValueError(f"camera segment {i} outside the network")
        self.fd = default_fd_params(self.net, cfg.bin_seconds)
        self.bins_per_day = int(round(86400 / cfg.bin_seconds))

    @_once
    def simulate(self):
        self.build()
        cfg = self.cfg
        n_bins = (cfg.days + cfg.forecast_days) * self.bins_per_day
        shell = CountMatrix(np.zeros((1, n_bins)), cfg.bin_seconds, START)
        profile = demand_profile(self.net, shell, self.sources, cfg.demand_peak)
        self.sim = simulate(self.net, self.fd, self.beta, profile, cfg.bin_seconds, START)
        self.truth = self.sim.counts

    @_once
    def sample(self):
        self.simulate()
        hours = np.arange(24)
        hour_mult = 1.0 + PENETRATION_HOUR_AMPLITUDE * np.sin(2 * np.pi * (hours - 16) / 24.0)
        day_mult = np.array([PENETRATION_DAY_WEEKEND if d in WEEKEND_DAYS else 1.0 for d in range(7)])
        self.penetration = PenetrationModel(
            base=PENETRATION_BASE, hour_mult=hour_mult, day_mult=day_mult,
            seed=int(substream(self.cfg.seed, "penetration").integers(2**31)),
        )
        self.probe = thin_counts(self.truth, self.penetration)

    @_once
    def features(self):
        self.sample()
        self.train_bins = round(0.7 * self.cfg.days) * self.bins_per_day
        self.tensor = build_tensor(
            self.net, self.fd, self.probe, self.sim.speeds, train_cols=self.train_bins
        )

    @_once
    def fit(self):
        self.features()
        cfg = self.cfg
        # the model's dense message-passing operand, scattered from the edges
        a = np.zeros((self.net.n_segments, self.net.n_segments))
        a[self.net.edge_from, self.net.edge_to] = 1.0
        self.a_hat = normalized_adjacency(a).astype(DTYPE)
        self.qmax = FdArrays.build(self.net.segments, self.fd, cfg.bin_seconds).qmax
        windows = build_windows(
            self.tensor, self.probe.values, cfg.model,
            t_last=self.train_bins - cfg.model.horizon - 1,
        )
        del self.tensor  # training reads windows' float32 copy; features() rebuilds it
        self._done.discard("features")
        self.trained = train(
            cfg.model, self.a_hat, windows, self.qmax,
            seed=cfg.seed, steps=cfg.train_steps, batch_size=cfg.train_batch,
        )
        self.feats = windows.feats  # the bin-major features, read once more by forecasts

    @_once
    def forecasts(self):
        self.fit()
        cfg = self.cfg
        h = cfg.model.history
        anchors = np.arange(h - 1, self.truth.n_bins - 1)
        raw = predict(
            self.trained.params, cfg.model, self.a_hat, self.feats,
            self.probe.values, anchors,
        )
        del self.feats
        # q_hat[:, b] is the one-step-ahead probe-scale estimate of bin b
        self.q_hat = np.full((self.net.n_segments, self.truth.n_bins), np.nan)
        self.q_hat[:, anchors + 1] = np.maximum(raw[:, :, 0], 0.0).T
        self.first_bin = h  # earliest bin with an estimate

    @_once
    def transition(self):
        self.simulate()
        # the probe fleet reports a binomial share of each edge's simulated moves
        totals = self.sim.link_flows.sum(axis=1)
        moves = substream(self.cfg.seed, "transitions").binomial(np.rint(totals).astype(np.int64), PENETRATION_BASE)
        n = self.net.n_segments
        flows = np.zeros((n, n))
        flows[self.beta.edge_from, self.beta.edge_to] = moves
        self.trans = build_transition(flows)
        self.localization = localization_vectors(self.trans, self.calibration)
        # a segment no camera's localization vector reaches is far; the zero
        # row keeps the mask's shape when there are no cameras
        self.reached = np.vstack([np.zeros(n), *self.localization.values()]).any(axis=0)
        self.far_segments = np.flatnonzero(~self.reached).tolist()

    @_once
    def calibrate(self):
        # fail before the predictor trains, not after
        self.build()
        if not self.calibration:
            raise ValueError("no calibration cameras configured")
        self.forecasts()
        self.transition()
        self._assimilation_loop()

    def _assimilation_loop(self):
        cfg = self.cfg
        fcfg = cfg.filter
        n = self.net.n_segments
        t_total = self.truth.n_bins
        t_assim = cfg.days * self.bins_per_day
        ratios = np.clip(self.sim.speed_ratios(self.net), 0.0, 1.0)
        valid_set = set(self.validation)

        # prior scale from the first day of the assimilation span, starting
        # at the first bin where a calibration camera has a finite pair
        cams = list(self.calibration)
        y_cams = self.truth.values[cams]
        # a camera bin without a finite count or predictor estimate gets no
        # observation: the one place a missing reading is dropped
        missing = ~(np.isfinite(y_cams) & np.isfinite(self.q_hat[cams]))
        span = slice(self.first_bin, t_assim)
        y_span, q_span = y_cams[:, span], self.q_hat[cams, span]
        finite = ~missing[:, span]
        paired = np.flatnonzero(finite.any(axis=0))
        if paired.size == 0:
            raise ValueError("no calibration camera has a finite count and predictor estimate in the assimilation span")
        warm = slice(paired[0], paired[0] + self.bins_per_day)
        ok = finite[:, warm]
        self.alpha_star = ensrf.warmup_alpha(y_span[:, warm][ok], q_span[:, warm][ok])

        leaked = [c for c in cams if c in valid_set]
        if leaked:
            raise RuntimeError(f"validation cameras {leaked} entered assimilation")

        # everything that does not depend on the filter state, for all bins
        first = self.first_bin
        run = slice(first, t_total)
        regimes = ensrf.regime_index(ratios[:, run].T)  # (bins, N)
        hour_of, day_of = self.truth.hours().tolist(), self.truth.days().tolist()

        rng = substream(cfg.seed, "ensrf")
        ens = ensrf.init_ensemble(n, fcfg, rng, alpha_0=self.alpha_star)
        delta = np.ones(n)
        # per bin: member_moments, then the confidence after it
        moments = np.empty((t_total - first, 4, n))
        deltas = np.empty((t_total - first, n))
        far = self.far_segments
        far_change = 0.0

        for k, t in enumerate(range(first, t_total)):
            ens = ensrf.forecast_step(ens, fcfg, rng, transition=self.trans)
            # confidence is pinned only where a camera reported this bin
            reported = ()
            if t < t_assim:
                obs = [
                    ensrf.CameraObservation(segment=c, t_index=t, count=y)
                    for c, y, miss in zip(cams, y_cams[:, t].tolist(), missing[:, t].tolist()) if not miss
                ]
                reported = [o.segment for o in obs]
                before = ens.base[:, far] if far else None
                ens = ensrf.analysis_step(
                    ens, obs, self.q_hat[:, t], self.localization, fcfg,
                    hour_of[t], day_of[t], regimes[k],
                )
                if far:
                    far_change = max(far_change, float(np.abs(ens.base[:, far] - before).max()))
            moments[k] = ensrf.member_moments(ens.effective_beta(hour_of[t], day_of[t], regimes[k]))
            delta = update_confidence(delta, *moments[k, :2], cameras=reported)
            deltas[k] = delta

        # the blend, the counts and the bands over the whole run at once,
        # on (N, bins) arrays
        mean, _, z_mean, z_var = moments.transpose(1, 2, 0)
        q_run = self.q_hat[:, run]
        calibrated = np.full((n, t_total), np.nan)
        lo = np.full((n, t_total), np.nan)
        hi = np.full((n, t_total), np.nan)
        alpha_c = shrink_blend(mean, deltas.T, self.alpha_star)
        calibrated[:, run] = calibrate_counts(q_run, alpha_c)
        # Predictive band: posterior log-ratio spread convolved with the
        # filter's own count-noise model, moment-matched in log space.
        crit = _band_crit(cfg.interval)
        r_z = ensrf.obs_variance(q_run * mean, fcfg)
        half = crit * np.sqrt(z_var + r_z)
        lo[:, run] = q_run * np.exp(z_mean - half)
        hi[:, run] = q_run * np.exp(z_mean + half)

        self.ensemble = ens
        self.delta = delta
        self.calibrated = CountMatrix(calibrated, cfg.bin_seconds, self.truth.start_time)
        self.intervals = (lo, hi)
        # the blended field at the last assimilated bin (the warm-up found
        # a camera pair before t_assim, so first < t_assim)
        self.alpha_final = alpha_c[:, t_assim - 1 - first].copy()
        self.far_base_change = far_change
        self.t_assim = t_assim
        if cfg.forecast_days > 0 and far:
            # calibration-band width on the log-multiplier scale (pure
            # parameter spread, immune to level shifts from the learned
            # weekday/hour pattern and free of the count-noise floor) over
            # the camera-disconnected region, day-averaged so the daily
            # demand cycle drops out
            aw = (2.0 * crit * np.sqrt(z_var[far, t_assim - first:])).mean(axis=0)
            self.far_alpha_width_daily = aw.reshape(cfg.forecast_days, self.bins_per_day).mean(axis=1)
        else:
            self.far_alpha_width_daily = np.zeros(0)

    @_once
    def metrics(self):
        self.calibrate()
        t0 = max(self.first_bin, BURN_DAYS * self.bins_per_day)
        window = slice(t0, self.t_assim)
        locs = list(self.validation) or list(self.calibration)
        truth = self.truth.values[:, window]
        lo, hi = self.intervals
        self.report = evaluate(
            self.calibrated.values[:, window], truth, locs,
            lo=lo[:, window], hi=hi[:, window],
        )
        self.uncal_report = evaluate(self.q_hat[:, window], truth, locs)
        mae_cal = float(np.mean([m.mae for m in self.report.per_location.values()]))
        mae_unc = float(np.mean([m.mae for m in self.uncal_report.per_location.values()]))
        self.diagnostics = {
            "alpha_star": self.alpha_star,
            "alpha_final_median": float(np.median(self.alpha_final)),
            "far_segments": list(self.far_segments),
            "far_base_change": self.far_base_change,
            "far_width_daily": [float(v) for v in self.far_alpha_width_daily],
            "improvement_mae": 1.0 - mae_cal / mae_unc if mae_unc > 0 else None,
            "n_assimilated": self.ensemble.n_assimilated,
            "train_best_val": self.trained.best_val,
            "eval_window": [t0, self.t_assim],
        }

    # - artifacts -
    # Each writer runs the stages it needs and writes their files into an
    # existing out_dir, returning {artifact key: path} for every file it
    # writes; write_artifacts calls them all, and the CLI's observability
    # command calls write_observability alone.

    def write_metrics(self, out_dir: str) -> dict:
        self.metrics()
        with _stage("write"):
            payload = {
                "seed": self.cfg.seed,
                "config": self.cfg.to_dict(),
                "metrics": self.report.to_dict(),
                "uncalibrated": self.uncal_report.to_dict(),
                "diagnostics": self.diagnostics,
            }
            path = os.path.join(out_dir, "metrics.json")
            write_json(path, payload)
        return {"metrics": path}

    def write_training(self, out_dir: str) -> dict:
        self.fit()
        with _stage("write"):
            log = os.path.join(out_dir, "training_log.csv")
            self.trained.write_log(log)
            prefix = os.path.join(out_dir, "model")
            save_checkpoint(prefix, self.trained.params, self.cfg.model)
        return {"training_log": log, "checkpoint": prefix + ".npz", "checkpoint_config": prefix + ".json"}

    def write_calibration(self, out_dir: str) -> dict:
        self.calibrate()
        paths = {k: os.path.join(out_dir, f"{k}.csv")
                 for k in ("calibrated_counts", "calibration_field", "transition", "localization")}
        with _stage("write"):
            save_counts(self.calibrated, paths["calibrated_counts"], self.net.external_ids)
            write_csv(paths["calibration_field"], ["segment_id", "alpha", "delta", "localized"], zip(
                self.net.external_ids,
                map(repr, self.alpha_final.tolist()),
                map(repr, self.delta.tolist()),
                self.reached.astype(int).tolist(),
            ))
            export_transition(self.trans, self.net, paths["transition"])
            export_localization(self.localization, self.net, paths["localization"])
        return paths

    def write_observability(self, out_dir: str) -> dict:
        """Also keeps the report on self.obs_report."""
        self.build()
        path = os.path.join(out_dir, "observability.json")
        conf = os.path.join(out_dir, "observability_conf.csv")
        with _stage("observability"):
            self.obs_report = analyze(
                self.net, self.fd, self.calibration, beta=self.beta, bin_seconds=self.cfg.bin_seconds
            )
        with _stage("write"):
            report_to_json(self.obs_report, self.net, path)
            report_to_csv(self.obs_report, self.net, conf)
        return {"observability": path, "observability_conf": conf}

    def write_artifacts(self, out_dir: str) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        return {
            **self.write_metrics(out_dir),
            **self.write_calibration(out_dir),
            **self.write_observability(out_dir),
            **self.write_training(out_dir),
        }


def run_pipeline(config: ExperimentConfig, out_dir: str | None = None) -> Pipeline:
    """Run every stage, write the artifact set when a directory is given, and return the pipeline."""
    pipe = Pipeline(config).metrics()
    if out_dir:
        pipe.write_artifacts(out_dir)
    return pipe
