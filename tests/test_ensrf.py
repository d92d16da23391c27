"""Calibration filter: observation model, OU forecast, square-root update."""

import math

import numpy as np
import pytest

from trafficfuse.ensrf import (
    N_REGIMES,
    REGIME_CONGESTED,
    REGIME_FREE,
    REGIME_TRANSITIONAL,
    CalibrationEnsemble,
    CameraObservation,
    FilterConfig,
    alpha_statistics,
    analysis_step,
    forecast_step,
    init_ensemble,
    log_ratio,
    obs_variance,
    regime_index,
    warmup_alpha,
)
from trafficfuse.propagation import build_transition
from trafficfuse.util import substream


def _bare_ensemble(base, n_segments=None):
    """Members with the given base column(s) and all globals zero."""
    base = np.asarray(base, dtype=float)
    if base.ndim == 1:
        base = base[:, None]
    m = base.shape[0]
    n = base.shape[1] if n_segments is None else n_segments
    return CalibrationEnsemble(
        base=np.broadcast_to(base, (m, n)).copy(),
        hour=np.zeros((m, 24)),
        day=np.zeros((m, 7)),
        regime=np.zeros((m, N_REGIMES)),
        confidence=np.zeros(n),
    )


def test_regime_banding():
    assert regime_index(1.0) == REGIME_FREE
    assert regime_index(0.7) == REGIME_FREE
    assert regime_index(0.5) == REGIME_TRANSITIONAL
    assert regime_index(0.4) == REGIME_TRANSITIONAL
    assert regime_index(0.39) == REGIME_CONGESTED
    assert np.array_equal(regime_index(np.array([0.9, 0.5, 0.1])), [0, 1, 2])


def test_log_ratio_basics():
    assert log_ratio(7.0, 7.0) == 0.0
    assert log_ratio(0.0, 0.0, eps=0.3) == 0.0
    big = 1e7
    assert log_ratio(math.e * big, big) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="nonnegative"):
        log_ratio(-1.0, 2.0)
    with pytest.raises(ValueError, match="eps"):
        log_ratio(1.0, 2.0, eps=0.0)


def test_obs_variance_frozen_and_limits():
    cfg = FilterConfig(sigma_0=0.05, sigma_y=2.0, eps=1.0)
    assert obs_variance(0.0, cfg) == pytest.approx(4.0025, abs=1e-12)
    assert obs_variance(1e9, cfg) == pytest.approx(0.05**2, rel=1e-6)
    cfg0 = FilterConfig(sigma_y=0.0)
    assert obs_variance(123.0, cfg0) == cfg0.sigma_0**2


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        FilterConfig(n_members=1)
    with pytest.raises(ValueError, match="slower"):
        FilterConfig(lambda_base=0.3, lambda_glob=0.2)
    with pytest.raises(ValueError, match="sigma_0"):
        FilterConfig(sigma_0=0.0)
    with pytest.raises(ValueError, match="q_base"):
        FilterConfig(q_base=-1.0)


def test_effective_beta_is_component_sum():
    ens = _bare_ensemble(np.array([[0.5, 0.5]]), n_segments=2)
    ens = CalibrationEnsemble(
        base=ens.base, hour=ens.hour, day=ens.day, regime=ens.regime,
        confidence=ens.confidence,
    )
    ens.hour[:, 7] = 0.1
    ens.day[:, 2] = -0.05
    ens.regime[:, REGIME_TRANSITIONAL] = 0.02
    z = ens.effective_beta(7, 2, np.array([REGIME_TRANSITIONAL, REGIME_FREE]))
    assert z[0, 0] == pytest.approx(0.57, abs=1e-12)
    assert z[0, 1] == pytest.approx(0.55, abs=1e-12)


def test_forecast_fixed_point_and_contraction():
    cfg = FilterConfig(n_members=4, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.1, lambda_glob=0.2)
    rng = substream(0, "forecast")
    star = 0.37
    ens = _bare_ensemble(np.full((4, 3), star))
    out = forecast_step(ens, cfg, rng, beta_star=star)
    assert np.allclose(out.base, star, atol=1e-15)
    # deviation of 1 contracts to 1 - lambda_base
    ens2 = _bare_ensemble(np.full((4, 3), 1.0))
    out2 = forecast_step(ens2, cfg, rng, beta_star=0.0)
    assert np.array_equal(out2.base, np.full((4, 3), 0.9))


def test_forecast_globals_decay_geometrically():
    cfg = FilterConfig(n_members=3, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_glob=0.2)
    ens = _bare_ensemble(np.zeros((3, 1)))
    ens.hour[:] = 1.0
    rng = substream(0, "decay")
    for k in range(1, 6):
        ens = forecast_step(ens, cfg, rng, beta_star=0.0)
        assert np.allclose(ens.hour, 0.8**k, rtol=1e-12)


def test_forecast_default_prior_is_median_of_base_means():
    cfg = FilterConfig(n_members=2, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.5, lambda_glob=0.6)
    base = np.array([[0.0, 1.0, 5.0], [0.0, 1.0, 5.0]])
    ens = _bare_ensemble(base)
    out = forecast_step(ens, cfg, substream(0, "x"))
    # beta_star = median(0, 1, 5) = 1; segment 0 moves halfway toward it
    assert np.allclose(out.base[:, 0], 0.5)
    assert np.allclose(out.base[:, 1], 1.0)
    assert np.allclose(out.base[:, 2], 3.0)


def test_forecast_consumes_diffused_base():
    flows = np.zeros((2, 2))
    flows[0, 1] = 1.0
    t = build_transition(flows, gamma_pd=0.8, s=0.5)
    cfg = FilterConfig(n_members=2, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.01)
    ens = _bare_ensemble(np.array([[1.0, 0.0], [1.0, 0.0]]))
    out = forecast_step(ens, cfg, substream(0, "d"), beta_star=0.0, transition=t)
    # diffusion moves both segments toward each other before the OU pull
    assert out.base[0, 0] < 1.0
    assert out.base[0, 1] > 0.0


ORACLE_MEMBERS = np.array([-0.1, 0.0, 0.1])


def _oracle_setup(rho=None, n=1):
    # sigma_y = 0 pins R_z to sigma_0^2 = 0.01; q_hat and y chosen so the
    # observed log ratio is 0.2
    cfg = FilterConfig(n_members=3, sigma_0=0.1, sigma_y=0.0, eps=1.0)
    ens = _bare_ensemble(ORACLE_MEMBERS, n_segments=n)
    q_hat = np.full(n, 100.0)
    y = math.exp(0.2) * 101.0 - 1.0
    obs = [CameraObservation(segment=0, t_index=0, count=y)]
    loc = {0: np.ones(n) if rho is None else np.asarray(rho, dtype=float)}
    return ens, obs, q_hat, loc, cfg


def test_scalar_update_matches_kalman_oracle():
    # members {-0.1, 0, 0.1}: P_zz = 0.01; with R = 0.01 the gain is 0.5,
    # the posterior mean 0.1, gamma = 1/(1 + sqrt(0.5)), anomalies shrink
    # by 1 - gamma/2 = 0.707107, and the variance halves to 0.005
    ens, obs, q_hat, loc, cfg = _oracle_setup()
    out = analysis_step(ens, obs, q_hat, loc, cfg, hour=0, day=0, regimes=np.zeros(1, dtype=int))
    post = out.base[:, 0]
    assert post.mean() == pytest.approx(0.1, abs=1e-6)
    gamma = 1.0 / (1.0 + math.sqrt(0.5))
    scale = 1.0 - gamma * 0.5
    assert scale == pytest.approx(0.7071067811865476, abs=1e-12)
    assert post - post.mean() == pytest.approx(scale * ORACLE_MEMBERS, abs=1e-6)
    assert post.var(ddof=1) == pytest.approx(0.005, rel=1e-4)
    # exact Kalman posterior variance: (1 - K) * P = 0.5 * 0.01
    assert out.n_assimilated == 1


def test_localization_zero_blocks_update():
    ens, obs, q_hat, loc, cfg = _oracle_setup(rho=[1.0, 0.0], n=2)
    before = ens.base.copy()
    out = analysis_step(ens, obs, q_hat, loc, cfg, hour=0, day=0, regimes=np.zeros(2, dtype=int))
    assert np.array_equal(out.base[:, 1], before[:, 1])
    assert not np.array_equal(out.base[:, 0], before[:, 0])


def test_zero_innovation_keeps_mean_shrinks_spread():
    cfg = FilterConfig(n_members=3, sigma_0=0.1, sigma_y=0.0, eps=1.0)
    ens = _bare_ensemble(ORACLE_MEMBERS)
    q_hat = np.array([50.0])
    y = 51.0 * math.exp(0.0) - 1.0  # log ratio exactly the prior mean 0
    obs = [CameraObservation(0, 0, y)]
    out = analysis_step(ens, obs, q_hat, {0: np.ones(1)}, cfg, 0, 0, np.zeros(1, dtype=int))
    assert out.base[:, 0].mean() == pytest.approx(0.0, abs=1e-9)
    assert out.base[:, 0].var(ddof=1) < ens.base[:, 0].var(ddof=1)


def test_degenerate_ensemble_does_not_divide_by_zero():
    cfg = FilterConfig(n_members=3, sigma_0=0.1, sigma_y=0.0)
    ens = _bare_ensemble(np.zeros(3))
    obs = [CameraObservation(0, 0, 80.0)]
    out = analysis_step(ens, obs, np.array([20.0]), {0: np.ones(1)}, cfg, 0, 0, np.zeros(1, dtype=int))
    # zero anomalies: gain 0, mean cannot move, but nothing blows up
    assert np.array_equal(out.base, ens.base)


def test_duplicate_and_missing_observations():
    ens, obs, q_hat, loc, cfg = _oracle_setup()
    doubled = obs + [CameraObservation(0, 0, obs[0].count * 3), CameraObservation(0, 0, 5.0, missing=True)]
    out_once = analysis_step(ens, obs, q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    out_twice = analysis_step(ens, doubled, q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    assert np.array_equal(out_once.base, out_twice.base)
    assert out_twice.n_assimilated == 1


def test_analysis_rejects_unknown_segment_and_negative_count():
    ens, obs, q_hat, loc, cfg = _oracle_setup()
    with pytest.raises(ValueError, match="unknown segment"):
        analysis_step(ens, [CameraObservation(5, 0, 1.0)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="negative"):
        analysis_step(ens, [CameraObservation(0, 0, -1.0)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="non-finite camera count at segment 0"):
        analysis_step(ens, [CameraObservation(0, 0, np.nan)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))


def test_global_observation_cap():
    cfg = FilterConfig(n_members=4, sigma_0=0.1, sigma_y=0.0, max_global_obs=1,
                       global_gain_scale=0.5)
    rng = substream(3, "cap")
    base = rng.normal(0, 0.2, size=(4, 3))
    ens = _bare_ensemble(base)
    ens.hour[:] = rng.normal(0, 0.2, size=ens.hour.shape)
    q_hat = np.full(3, 40.0)
    obs = [CameraObservation(i, 0, 55.0 + 3 * i) for i in range(3)]
    loc = {i: np.ones(3) for i in range(3)}
    out = analysis_step(ens, obs, q_hat, loc, cfg, 2, 3, np.zeros(3, dtype=int))
    # only the first (lowest-id) observation may touch the globals
    one = analysis_step(ens, obs[:1], q_hat, loc, cfg, 2, 3, np.zeros(3, dtype=int))
    assert np.array_equal(out.hour, one.hour)
    assert not np.array_equal(out.base, one.base)


def test_alpha_statistics_frozen_pair():
    ens = _bare_ensemble(np.array([0.0, math.log(4.0)]))
    mean, var = alpha_statistics(ens, 0, 0, np.zeros(1, dtype=int))
    assert mean[0] == pytest.approx(2.5, rel=1e-12)
    assert var[0] == pytest.approx(4.5, rel=1e-12)
    neutral = _bare_ensemble(np.zeros(5))
    mean, var = alpha_statistics(neutral, 3, 2, np.zeros(1, dtype=int))
    assert mean[0] == 1.0 and var[0] == 0.0


def test_warmup_alpha_median_ratio():
    y = np.array([10.0, 40.0, 90.0])
    q = np.array([4.0, 19.0, 100.0])
    want = np.median((y + 1) / (q + 1))
    assert warmup_alpha(y, q) == want
    with pytest.raises(ValueError, match="nonempty"):
        warmup_alpha([], [])


def test_init_ensemble_centering():
    cfg = FilterConfig(n_members=4000)
    ens = init_ensemble(3, cfg, substream(9, "init"), alpha_0=10.0)
    assert ens.base.shape == (4000, 3)
    assert ens.base.mean() == pytest.approx(math.log(10.0), abs=0.02)
    assert ens.base.std() == pytest.approx(cfg.init_base_sd, rel=0.05)
    assert ens.hour.std() == pytest.approx(cfg.init_glob_sd, rel=0.1)
    with pytest.raises(ValueError, match="positive"):
        init_ensemble(3, cfg, substream(9, "init"), alpha_0=0.0)


def test_ou_stationary_variance():
    cfg = FilterConfig(n_members=4000, lambda_base=0.1, q_base=1e-3,
                       q_hour=0.0, q_day=0.0, q_regime=0.0)
    rng = substream(1, "ou")
    ens = _bare_ensemble(np.zeros((4000, 1)))
    for _ in range(300):
        ens = forecast_step(ens, cfg, rng, beta_star=0.0)
    want = 1e-3 / (1.0 - 0.9**2)
    assert ens.base[:, 0].var(ddof=1) == pytest.approx(want, rel=0.05)


def test_seeded_determinism():
    cfg = FilterConfig(n_members=16)
    a = init_ensemble(4, cfg, substream(5, "run"))
    b = init_ensemble(4, cfg, substream(5, "run"))
    ra, rb = substream(6, "fc"), substream(6, "fc")
    for _ in range(3):
        a = forecast_step(a, cfg, ra)
        b = forecast_step(b, cfg, rb)
    assert np.array_equal(a.base, b.base)
    assert np.array_equal(a.hour, b.hour)


def test_ensemble_rejects_nonfinite():
    with pytest.raises(ValueError, match="base"):
        _bare_ensemble(np.array([np.nan, 0.0]))


def test_matches_exact_kalman_filter_1d():
    # linear-Gaussian twin: same observation stream through the ensemble
    # filter (globals disabled) and the closed-form scalar Kalman filter
    m = 10_000
    lam, q, r = 0.05, 4e-4, 0.01
    cfg = FilterConfig(
        n_members=m, sigma_0=math.sqrt(r), sigma_y=0.0, lambda_base=lam,
        q_base=q, q_hour=0.0, q_day=0.0, q_regime=0.0,
        init_base_sd=0.3, init_glob_sd=0.0, max_global_obs=0,
    )
    rng = substream(2, "kf-twin")
    ens = init_ensemble(1, cfg, rng, alpha_0=1.0)
    kf_mean, kf_var = 0.0, cfg.init_base_sd**2
    q_hat = np.array([100.0])
    loc = {0: np.ones(1)}
    regimes = np.zeros(1, dtype=int)
    worst_mean, worst_var = 0.0, 0.0
    for cycle in range(50):
        ens = forecast_step(ens, cfg, rng, beta_star=0.0)
        kf_mean = (1 - lam) * kf_mean
        kf_var = (1 - lam) ** 2 * kf_var + q
        z = 0.25 * math.sin(cycle / 5.0) + rng.normal(0, math.sqrt(r))
        y = (101.0) * math.exp(z) - 1.0
        ens = analysis_step(ens, [CameraObservation(0, cycle, y)], q_hat, loc, cfg,
                            hour=cycle % 24, day=0, regimes=regimes)
        gain = kf_var / (kf_var + r)
        kf_mean = kf_mean + gain * (z - kf_mean)
        kf_var = (1 - gain) * kf_var
        got_mean = ens.base[:, 0].mean()
        got_var = ens.base[:, 0].var(ddof=1)
        worst_var = max(worst_var, abs(got_var - kf_var) / kf_var)
        worst_mean = max(worst_mean, abs(got_mean - kf_mean) / max(abs(kf_mean), 0.05))
    assert worst_var < 0.05, f"variance off by {worst_var:.3%}"
    assert worst_mean < 0.05, f"mean off by {worst_mean:.3%}"


def test_zero_gain_columns_stay_bitwise_unchanged():
    # splitting a column into mean + anomaly and adding them back can move
    # it by 1 ulp, so columns outside the localization must not be rebuilt
    cfg = FilterConfig(n_members=32)
    ens = init_ensemble(20, cfg, np.random.default_rng(0), alpha_0=1.7)
    rho = np.zeros(20)
    rho[:5] = [1.0, 0.8, 0.6, 0.4, 0.2]
    obs = [CameraObservation(0, 0, 40.0)]
    out = analysis_step(ens, obs, np.full(20, 20.0), {0: rho}, cfg, 0, 0, np.zeros(20, dtype=int))
    assert np.array_equal(out.base[:, 5:], ens.base[:, 5:])
    assert not np.array_equal(out.base[:, :5], ens.base[:, :5])
