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
    "alpha_statistics",
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
    n_members: int = 64
    sigma_0: float = 0.05  # log-space noise floor
    sigma_y: float = 5.0  # camera count noise, vehicles
    eps: float = 1.0
    lambda_base: float = 0.02
    lambda_glob: float = 0.2
    q_base: float = 1e-4
    q_hour: float = 1e-5
    q_day: float = 1e-5
    q_regime: float = 1e-5
    global_gain_scale: float = 0.1
    max_global_obs: int = 4
    init_base_sd: float = 0.25
    init_glob_sd: float = 0.05

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


@dataclass
class CalibrationEnsemble:
    """Factorized log-calibration members plus per-segment confidence."""

    base: np.ndarray  # (M, N)
    hour: np.ndarray  # (M, 24)
    day: np.ndarray  # (M, 7)
    regime: np.ndarray  # (M, N_REGIMES)
    confidence: np.ndarray  # (N,)
    n_assimilated: int = 0

    def __post_init__(self):
        for name in ("base", "hour", "day", "regime", "confidence"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"ensemble component {name} is not finite")

    @property
    def n_members(self) -> int:
        return self.base.shape[0]

    @property
    def n_segments(self) -> int:
        return self.base.shape[1]

    def effective_beta(self, hour: int, day: int, regimes: np.ndarray) -> np.ndarray:
        """Member-wise log-calibration per segment, (M, N)."""
        regimes = np.asarray(regimes, dtype=int)
        return self.base + self.hour[:, [hour]] + self.day[:, [day]] + self.regime[:, regimes]

    def copy(self) -> "CalibrationEnsemble":
        return CalibrationEnsemble(
            self.base.copy(), self.hour.copy(), self.day.copy(), self.regime.copy(),
            self.confidence.copy(), self.n_assimilated,
        )


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
    """Delta-method log-space variance with floor: sigma_0^2 + sigma_y^2/(y+eps)^2."""
    y = np.asarray(y, dtype=float)
    out = config.sigma_0**2 + config.sigma_y**2 / (y + config.eps) ** 2
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
        confidence=np.zeros(n_segments),
    )


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
        beta_star = float(np.median(ens.base.mean(axis=0)))
    base = ens.base
    if transition is not None:
        base = diffuse(base, transition)
    lb, lg = config.lambda_base, config.lambda_glob
    base = (1.0 - lb) * base + lb * beta_star + rng.normal(0.0, np.sqrt(config.q_base), size=ens.base.shape)
    hour = (1.0 - lg) * ens.hour + rng.normal(0.0, np.sqrt(config.q_hour), size=ens.hour.shape)
    day = (1.0 - lg) * ens.day + rng.normal(0.0, np.sqrt(config.q_day), size=ens.day.shape)
    regime = (1.0 - lg) * ens.regime + rng.normal(0.0, np.sqrt(config.q_regime), size=ens.regime.shape)
    return CalibrationEnsemble(
        base=base, hour=hour, day=day, regime=regime,
        confidence=ens.confidence.copy(), n_assimilated=ens.n_assimilated,
    )


def _serial_update(component: np.ndarray, z_anom: np.ndarray, denom: float, gamma: float,
                   nu: float, gain_mask: np.ndarray | None, scale: float, m: int):
    """One square-root update of a (M, k) component, in place."""
    mean = component.mean(axis=0)
    anom = component - mean
    k = (anom.T @ z_anom) / (m - 1) / denom * scale
    if gain_mask is not None:
        k = gain_mask * k
    # updating in place leaves zero-gain columns bitwise unchanged
    component += k * nu - gamma * np.outer(z_anom, k)


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
    be flagged missing.
    """
    regimes = np.asarray(regimes, dtype=int)
    out = ens.copy()
    m = out.n_members
    seen = set()
    todo = []
    for obs in observations:
        if obs.missing or obs.segment in seen:
            continue
        if not 0 <= obs.segment < out.n_segments:
            raise ValueError(f"observation at unknown segment {obs.segment}")
        if not np.isfinite(obs.count):
            raise ValueError(f"non-finite camera count at segment {obs.segment} is not flagged missing")
        if obs.count < 0:
            raise ValueError(f"negative camera count at segment {obs.segment}")
        seen.add(obs.segment)
        todo.append(obs)
    todo.sort(key=lambda o: o.segment)

    n_global = 0
    for obs in todo:
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
        _serial_update(out.base, z_anom, denom, gamma, nu, rho, 1.0, m)
        if n_global < config.max_global_obs:
            gs = config.global_gain_scale
            _serial_update(out.hour, z_anom, denom, gamma, nu, None, gs, m)
            _serial_update(out.day, z_anom, denom, gamma, nu, None, gs, m)
            _serial_update(out.regime, z_anom, denom, gamma, nu, None, gs, m)
            n_global += 1
        out.n_assimilated += 1
    return out


def alpha_statistics(ens: CalibrationEnsemble, hour: int, day: int, regimes: np.ndarray):
    """Physical-space calibration mean and unbiased variance per segment."""
    alpha = np.exp(ens.effective_beta(hour, day, regimes))
    return alpha.mean(axis=0), alpha.var(axis=0, ddof=1)
