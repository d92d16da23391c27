"""Log-space localized ensemble square-root calibration filter.

The calibration factor alpha maps predictor counts onto camera counts,
y = alpha * q_hat + noise. It is estimated in log space as a sum of a
per-segment base, hour-of-day, day-of-week, and traffic-regime
components. An Ornstein-Uhlenbeck forecast keeps the field near the
network prior between observations; camera counts are assimilated one at
a time with a deterministic square-root update whose gain is masked by
the flow-localization vector of the observed segment. Global components
see a reduced gain and a per-step observation cap so a handful of
cameras cannot whip the shared temporal patterns around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import TransitionMatrix, diffuse

__all__ = [
    "REGIME_FREE",
    "REGIME_TRANSITIONAL",
    "REGIME_CONGESTED",
    "N_REGIMES",
    "FilterConfig",
    "CalibrationEnsemble",
    "CameraObservation",
    "regime_index",
    "log_ratio",
    "obs_variance",
    "warmup_alpha",
    "init_ensemble",
    "forecast_step",
    "analysis_step",
    "member_moments",
]

REGIME_FREE = 0
REGIME_TRANSITIONAL = 1
REGIME_CONGESTED = 2
N_REGIMES = 3


def regime_index(b):
    """Coarse regime from the speed ratio: free >= 0.7, congested < 0.4."""
    b = np.asarray(b, dtype=float)
    out = np.where(b >= 0.7, REGIME_FREE, np.where(b >= 0.4, REGIME_TRANSITIONAL, REGIME_CONGESTED))
    return out if out.ndim else int(out)


@dataclass(frozen=True)
class FilterConfig:
    """Ensemble size, noise levels and the Ornstein-Uhlenbeck reversion rates.

    The reversion timescales sit far above one day, so the hour-of-day
    globals can hold a persistent diurnal penetration pattern instead of
    bleeding it back to zero between revisits of the same hour bucket.
    """

    n_members: int = 128
    sigma_0: float = 0.25  # log-space noise floor
    sigma_y: float = 5.0  # camera count noise, vehicles
    eps: float = 1.0
    lambda_base: float = 1e-4
    lambda_glob: float = 3e-4
    q_base: float = 1e-4
    q_hour: float = 1e-4
    q_day: float = 1e-5
    q_regime: float = 1e-5
    global_gain_scale: float = 0.6
    max_global_obs: int = 4
    init_base_sd: float = 0.25
    init_glob_sd: float = 0.1

    def __post_init__(self):
        if self.n_members < 2:
            raise ValueError("ensemble needs at least 2 members")
        if not (0.0 < self.lambda_base < 1.0 and 0.0 < self.lambda_glob < 1.0):
            raise ValueError("mean-reversion rates must lie in (0, 1)")
        if self.lambda_base >= self.lambda_glob:
            raise ValueError("base reversion must be slower than global reversion")
        if self.sigma_0 <= 0:
            raise ValueError("sigma_0 must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        for name in ("sigma_y", "q_base", "q_hour", "q_day", "q_regime"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_global_obs < 0:
            raise ValueError("max_global_obs must be nonnegative")


N_GLOBAL = 24 + 7 + N_REGIMES  # hour, day and regime columns after the base


class CalibrationEnsemble:
    """Factorized log-calibration members.

    The members live in one (M, N + 24 + 7 + N_REGIMES) state array; base,
    hour, day and regime are column views of it, so an in-place write to a
    component is a write to the state. A confidence argument is only
    checked for shape; the pipeline keeps per-segment confidence itself
    (propagation.update_confidence).
    """

    def __init__(self, base, hour, day, regime, confidence=None, n_assimilated: int = 0):
        parts = {"base": base, "hour": hour, "day": day, "regime": regime}
        parts = {name: np.asarray(v, dtype=float) for name, v in parts.items()}
        widths = {"hour": 24, "day": 7, "regime": N_REGIMES}
        if parts["base"].ndim != 2:
            raise ValueError("ensemble component base must be (members, segments)")
        m, n = parts["base"].shape
        for name, v in parts.items():
            if v.ndim != 2 or v.shape[0] != m:
                raise ValueError(f"ensemble component {name} has shape {v.shape}, not {m} members")
            if name in widths and v.shape[1] != widths[name]:
                raise ValueError(f"ensemble component {name} has {v.shape[1]} columns, not {widths[name]}")
        if confidence is not None and np.shape(confidence) != (n,):
            raise ValueError(f"ensemble component confidence has shape {np.shape(confidence)}, not ({n},)")
        self._adopt(np.concatenate(list(parts.values()), axis=1), n_assimilated)
        self._check()

    @classmethod
    def from_state(cls, state: np.ndarray, n_assimilated: int = 0) -> "CalibrationEnsemble":
        """Wrap an (M, N + N_GLOBAL) state array without copying it."""
        ens = cls.__new__(cls)
        ens._adopt(state, n_assimilated)
        ens._check()
        return ens

    def _adopt(self, state, n_assimilated):
        n = state.shape[1] - N_GLOBAL
        self.state = state
        self.base = state[:, :n]
        self.hour = state[:, n:n + 24]
        self.day = state[:, n + 24:n + 31]
        self.regime = state[:, n + 31:]
        self.n_assimilated = n_assimilated

    def _check(self):
        """One finiteness pass over the state; a failure names the component."""
        if not np.isfinite(self.state).all():
            bad = next(name for name in ("base", "hour", "day", "regime")
                       if not np.isfinite(getattr(self, name)).all())
            raise ValueError(f"ensemble component {bad} is not finite")

    @property
    def n_members(self) -> int:
        return self.state.shape[0]

    @property
    def n_segments(self) -> int:
        return self.state.shape[1] - N_GLOBAL

    def effective_beta(self, hour: int, day: int, regimes: np.ndarray) -> np.ndarray:
        """Member-wise log-calibration per segment, (M, N)."""
        regimes = np.asarray(regimes, dtype=int)
        return self.base + self.hour[:, hour, None] + self.day[:, day, None] + self.regime[:, regimes]

    def copy(self) -> "CalibrationEnsemble":
        ens = CalibrationEnsemble.__new__(CalibrationEnsemble)
        ens._adopt(self.state.copy(), self.n_assimilated)
        return ens


@dataclass(frozen=True)
class CameraObservation:
    segment: int
    t_index: int
    count: float
    missing: bool = False


def log_ratio(y, q_hat, eps: float = 1.0):
    """Observed log-calibration z = log(y + eps) - log(q_hat + eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    y = np.asarray(y, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    if (y < 0).any() or (q_hat < 0).any():
        raise ValueError("counts must be nonnegative")
    out = np.log(y + eps) - np.log(q_hat + eps)
    return out if out.ndim else float(out)


def obs_variance(y, config: FilterConfig):
    """Delta-method log-space variance with floor: sigma_0^2 + sigma_y^2/(y+eps)^2.

    The square is one multiply, so a scalar count and the same count in an
    array round alike (a scalar ** 2 goes through libm pow).
    """
    d = np.asarray(y, dtype=float) + config.eps
    out = config.sigma_0**2 + config.sigma_y**2 / (d * d)
    return out if out.ndim else float(out)


def warmup_alpha(y, q_hat, eps: float = 1.0) -> float:
    """Median count ratio over a warm-up window; the initial alpha guess."""
    y = np.asarray(y, dtype=float).ravel()
    q_hat = np.asarray(q_hat, dtype=float).ravel()
    if y.size == 0 or y.size != q_hat.size:
        raise ValueError("warm-up needs matched, nonempty count arrays")
    return float(np.median((y + eps) / (q_hat + eps)))


def init_ensemble(n_segments: int, config: FilterConfig, rng: np.random.Generator,
                  alpha_0: float = 1.0) -> CalibrationEnsemble:
    if alpha_0 <= 0:
        raise ValueError("alpha_0 must be positive")
    m = config.n_members
    return CalibrationEnsemble(
        base=np.log(alpha_0) + rng.normal(0.0, config.init_base_sd, size=(m, n_segments)),
        hour=rng.normal(0.0, config.init_glob_sd, size=(m, 24)),
        day=rng.normal(0.0, config.init_glob_sd, size=(m, 7)),
        regime=rng.normal(0.0, config.init_glob_sd, size=(m, N_REGIMES)),
    )


def _median(values: np.ndarray) -> float:
    """np.median of a finite 1-D array, bit for bit, without its dispatch."""
    v = sorted(values.tolist())
    h = len(v) // 2
    return v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2.0


def forecast_step(
    ens: CalibrationEnsemble,
    config: FilterConfig,
    rng: np.random.Generator,
    beta_star: float | None = None,
    transition: TransitionMatrix | None = None,
) -> CalibrationEnsemble:
    """OU forecast: pull the base toward the network prior, globals toward 0.

    The base component is first diffused along the flow kernel (when a
    transition matrix is supplied), then relaxed toward beta_star, the
    median of the baseline ensemble mean unless given explicitly. Draw
    order (base, hour, day, regime) is fixed for reproducibility.
    """
    if beta_star is None:
        beta_star = _median(ens.base.sum(axis=0) / ens.n_members)  # bits of base.mean(axis=0)
    base = ens.base
    if transition is not None:
        base = diffuse(base, transition)
    m, n = ens.n_members, ens.n_segments
    lb, lg = config.lambda_base, config.lambda_glob
    noise = np.concatenate([
        rng.normal(0.0, np.sqrt(q), size=(m, width))
        for q, width in ((config.q_base, n), (config.q_hour, 24), (config.q_day, 7), (config.q_regime, N_REGIMES))
    ], axis=1)
    # (1 - lg) * component + noise for the globals and (1 - lb) * base +
    # lb * beta_star + noise for the base, in that operation order
    state = np.multiply(ens.state, 1.0 - lg)
    state[:, :n] = (1.0 - lb) * base + lb * beta_star
    state += noise
    return CalibrationEnsemble.from_state(state, ens.n_assimilated)


def _serial_update(state: np.ndarray, z_anom: np.ndarray, denom: float, gamma: float,
                   nu: float, gain: np.ndarray, m: int):
    """One square-root update of the (M, K) state, in place, column j's gain scaled by gain[j]."""
    anom = state - state.sum(axis=0) / m  # the bits of state.mean(axis=0), without its overhead
    k = (anom.T @ z_anom) / (m - 1) / denom
    k *= gain
    # k * nu - gamma * outer(z_anom, k), reusing the anomaly buffer; adding
    # in place leaves zero-gain columns bitwise unchanged
    upd = np.multiply(z_anom[:, None], k, out=anom)
    upd *= gamma
    np.subtract(k * nu, upd, out=upd)
    state += upd


def analysis_step(
    ens: CalibrationEnsemble,
    observations,
    q_hat: np.ndarray,
    localization: dict,
    config: FilterConfig,
    hour: int,
    day: int,
    regimes: np.ndarray,
) -> CalibrationEnsemble:
    """Assimilate camera counts one at a time, ascending segment id.

    q_hat holds the predictor counts the ratios are taken against, at the
    observation time. localization maps camera segment id to its gain
    mask. Duplicate observations for a segment are dropped after the
    first; missing-flagged ones are skipped, and a non-finite count must
    be flagged missing. Each observation is one update of the whole state,
    with gain row [rho | global_gain_scale] for the first max_global_obs
    observations and [rho | 0] after them.
    """
    regimes = np.asarray(regimes, dtype=int)
    out = ens.copy()
    m, n = out.n_members, out.n_segments
    seen = set()
    todo = []
    for obs in observations:
        if obs.missing or obs.segment in seen:
            continue
        if not 0 <= obs.segment < n:
            raise ValueError(f"observation at unknown segment {obs.segment}")
        if not np.isfinite(obs.count):
            raise ValueError(f"non-finite camera count at segment {obs.segment} is not flagged missing")
        if obs.count < 0:
            raise ValueError(f"negative camera count at segment {obs.segment}")
        seen.add(obs.segment)
        todo.append(obs)
    todo.sort(key=lambda o: o.segment)
    state = out.state
    gain = np.full(state.shape[1], config.global_gain_scale)  # the row [rho | gs * 1]
    for j, obs in enumerate(todo):
        i = obs.segment
        z_obs = log_ratio(obs.count, q_hat[i], config.eps)
        r_z = obs_variance(obs.count, config)
        z = out.base[:, i] + out.hour[:, hour] + out.day[:, day] + out.regime[:, regimes[i]]
        z_bar = z.mean()
        z_anom = z - z_bar
        p_zz = float(z_anom @ z_anom) / (m - 1)
        denom = p_zz + r_z
        gamma = 1.0 / (1.0 + np.sqrt(r_z / denom))
        nu = z_obs - z_bar
        rho = localization.get(i)
        if rho is None:
            raise ValueError(f"no localization vector for camera segment {i}")
        if j == config.max_global_obs:
            gain[n:] = 0.0
        gain[:n] = rho
        _serial_update(state, z_anom, denom, gamma, nu, gain, m)
        out.n_assimilated += 1
    return out


def member_moments(beta: np.ndarray):
    """Per-segment mean and ddof-1 variance of exp(beta) and of beta.

    beta is (M, N) member log-calibrations. Returns (alpha_mean, alpha_var,
    beta_mean, beta_var), bit for bit numpy's mean and var(ddof=1) over the
    members, from one pass over both fields.
    """
    m, n = beta.shape
    x = np.concatenate((np.exp(beta), beta), axis=1)
    mean = x.sum(axis=0) / m
    dev = x - mean
    dev *= dev
    var = dev.sum(axis=0) / (m - 1)
    return mean[:n], var[:n], mean[n:], var[n:]
