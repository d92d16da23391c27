"""Calibration filter: observation model, OU forecast, square-root update."""

import math

import numpy as np
import pytest

from trafficfuse.ensrf import (
    MAX_LOG_SD,
    N_REGIMES,
    REGIME_CONGESTED,
    REGIME_FREE,
    REGIME_TRANSITIONAL,
    CalibrationEnsemble,
    CameraObservation,
    FilterConfig,
    analysis_step,
    forecast_step,
    init_ensemble,
    log_ratio,
    member_moments,
    obs_variance,
    regime_index,
    warmup_alpha,
)
from trafficfuse.propagation import build_transition, diffuse
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
    assert log_ratio(0.0, 0.0) == 0.0
    big = 1e7
    assert log_ratio(math.e * big, big) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="nonnegative"):
        log_ratio(-1.0, 2.0)


def test_obs_variance_frozen_and_limits():
    cfg = FilterConfig(sigma_0=0.05, sigma_y=2.0)
    assert obs_variance(0.0, cfg) == pytest.approx(4.0025, abs=1e-12)
    assert obs_variance(1e9, cfg) == pytest.approx(0.05**2, rel=1e-6)
    cfg0 = FilterConfig(sigma_y=0.0)
    assert obs_variance(123.0, cfg0) == cfg0.sigma_0**2


def test_obs_variance_scalar_and_array_forms_agree_bitwise():
    # the filter calls it per camera count, the predictive band per array
    cfg = FilterConfig()
    y = np.random.default_rng(12).uniform(0.0, 200.0, size=10_000)
    scalar = np.array([obs_variance(float(v), cfg) for v in y])
    assert np.array_equal(scalar, obs_variance(y, cfg))


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        FilterConfig(n_members=1)
    with pytest.raises(ValueError, match="slower"):
        FilterConfig(lambda_base=0.3, lambda_glob=0.2)
    with pytest.raises(ValueError, match="sigma_0"):
        FilterConfig(sigma_0=0.0)
    with pytest.raises(ValueError, match="q_base"):
        FilterConfig(q_base=-1.0)
    for name in ("init_base_sd", "init_glob_sd"):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            FilterConfig(**{name: -1.0})
    for gain in (-3.0, 1.5, 5.0, float("nan")):
        with pytest.raises(ValueError, match="^global_gain_scale .* must lie in"):
            FilterConfig(global_gain_scale=gain)
    FilterConfig(global_gain_scale=1.0, init_base_sd=0.0, init_glob_sd=0.0)


def test_config_bounds_every_log_space_spread():
    # the bound is inclusive and applies to sqrt(q_*) and to init_*_sd
    with np.errstate(over="ignore"):
        assert np.isfinite(np.exp(40 * MAX_LOG_SD)) and not np.isfinite(np.exp(40.01 * MAX_LOG_SD))
    above = np.nextafter(MAX_LOG_SD, np.inf)
    for name in ("init_base_sd", "init_glob_sd"):
        FilterConfig(**{name: MAX_LOG_SD})
        with pytest.raises(ValueError, match=f"^{name} .*: log-space spread .* exceeds 17.74$"):
            FilterConfig(**{name: above})
    for name in ("q_base", "q_hour", "q_day", "q_regime"):
        FilterConfig(**{name: 314.0})  # sqrt 17.72
        with pytest.raises(ValueError, match=f"^{name} .*: log-space spread .* exceeds 17.74$"):
            FilterConfig(**{name: 315.0})


def test_effective_beta_is_component_sum():
    ens = _bare_ensemble(np.array([[0.5, 0.5]]), n_segments=2)
    ens = CalibrationEnsemble(base=ens.base, hour=ens.hour, day=ens.day, regime=ens.regime)
    ens.hour[:, 7] = 0.1
    ens.day[:, 2] = -0.05
    ens.regime[:, REGIME_TRANSITIONAL] = 0.02
    z = ens.effective_beta(7, 2, np.array([REGIME_TRANSITIONAL, REGIME_FREE]))
    assert z[0, 0] == pytest.approx(0.57, abs=1e-12)
    assert z[0, 1] == pytest.approx(0.55, abs=1e-12)


def _still(n):
    """The kernel of n flow-isolated segments: W_eff is the identity."""
    return build_transition(np.zeros((n, n)))


def test_an_identity_kernel_diffuses_nothing():
    # the forecast tests that need no spatial spread run on this kernel
    t = _still(4)
    assert np.array_equal(t.w_eff, np.eye(4))
    base = np.random.default_rng(2).normal(size=(5, 4))
    assert np.array_equal(diffuse(base, t).view(np.uint64), base.view(np.uint64))


def test_forecast_fixed_point_and_contraction():
    cfg = FilterConfig(n_members=4, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.1, lambda_glob=0.2)
    rng = substream(0, "forecast")
    star = 0.37
    ens = _bare_ensemble(np.full((4, 3), star))
    out = forecast_step(ens, cfg, rng, _still(3))
    assert np.allclose(out.base, star, atol=1e-15)
    # deviation of 1 from a prior of 0 (the median of 1, 0, 0) contracts to 1 - lambda_base
    ens2 = _bare_ensemble(np.tile([1.0, 0.0, 0.0], (4, 1)))
    out2 = forecast_step(ens2, cfg, rng, _still(3))
    assert np.array_equal(out2.base, np.tile([0.9, 0.0, 0.0], (4, 1)))


def test_forecast_globals_decay_geometrically():
    cfg = FilterConfig(n_members=3, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_glob=0.2)
    ens = _bare_ensemble(np.zeros((3, 1)))
    ens.hour[:] = 1.0
    rng = substream(0, "decay")
    for k in range(1, 6):
        ens = forecast_step(ens, cfg, rng, _still(1))
        assert np.allclose(ens.hour, 0.8**k, rtol=1e-12)


def test_forecast_default_prior_is_median_of_base_means():
    cfg = FilterConfig(n_members=2, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.5, lambda_glob=0.6)
    base = np.array([[0.0, 1.0, 5.0], [0.0, 1.0, 5.0]])
    ens = _bare_ensemble(base)
    out = forecast_step(ens, cfg, substream(0, "x"), _still(3))
    # beta_star = median(0, 1, 5) = 1; segment 0 moves halfway toward it
    assert np.allclose(out.base[:, 0], 0.5)
    assert np.allclose(out.base[:, 1], 1.0)
    assert np.allclose(out.base[:, 2], 3.0)


def test_forecast_consumes_diffused_base():
    flows = np.zeros((2, 2))
    flows[0, 1] = 1.0
    t = build_transition(flows, gamma_pd=0.8, s=0.5)
    cfg = FilterConfig(n_members=2, q_base=0.0, q_hour=0.0, q_day=0.0, q_regime=0.0,
                       lambda_base=0.01, lambda_glob=0.2)
    ens = _bare_ensemble(np.array([[1.0, 0.0], [1.0, 0.0]]))
    out = forecast_step(ens, cfg, substream(0, "d"), t)
    # diffusion moves both segments toward each other before the OU pull
    # toward their prior 0.5 (the median of 1 and 0), and by more than it
    assert out.base[0, 0] < 0.99 * 1.0 + 0.01 * 0.5
    assert out.base[0, 1] > 0.99 * 0.0 + 0.01 * 0.5


ORACLE_MEMBERS = np.array([-0.1, 0.0, 0.1])


def _oracle_setup(rho=None, n=1):
    # sigma_y = 0 pins R_z to sigma_0^2 = 0.01; q_hat and y chosen so the
    # observed log ratio is 0.2
    cfg = FilterConfig(n_members=3, sigma_0=0.1, sigma_y=0.0)
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
    cfg = FilterConfig(n_members=3, sigma_0=0.1, sigma_y=0.0)
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
    doubled = obs + [CameraObservation(0, 0, obs[0].count * 3)]
    out_once = analysis_step(ens, obs, q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    out_twice = analysis_step(ens, doubled, q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    assert np.array_equal(out_once.base, out_twice.base)
    assert out_twice.n_assimilated == 1
    # a camera without a reading has no observation, so a NaN count raises,
    # before or after a finite reading at the same segment
    for listed in ([CameraObservation(0, 0, np.nan)] + obs, obs + [CameraObservation(0, 0, np.nan)]):
        with pytest.raises(ValueError, match="^non-finite camera count at segment 0$"):
            analysis_step(ens, listed, q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))


def test_analysis_rejects_unknown_segment_and_negative_count():
    ens, obs, q_hat, loc, cfg = _oracle_setup()
    with pytest.raises(ValueError, match="unknown segment"):
        analysis_step(ens, [CameraObservation(5, 0, 1.0)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="negative"):
        analysis_step(ens, [CameraObservation(0, 0, -1.0)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="non-finite camera count at segment 0"):
        analysis_step(ens, [CameraObservation(0, 0, np.nan)], q_hat, loc, cfg, 0, 0, np.zeros(1, dtype=int))


def test_analysis_rejects_a_camera_without_a_localization_vector():
    ens, obs, q_hat, loc, cfg = _oracle_setup(n=2)
    before = ens.state.copy()
    with pytest.raises(ValueError, match="^no localization vector for camera segment 1$"):
        analysis_step(ens, [CameraObservation(1, 0, 5.0)], q_hat, loc, cfg, 0, 0, np.zeros(2, dtype=int))
    assert np.array_equal(ens.state, before)


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
    mean, var, beta_mean, beta_var = member_moments(ens.effective_beta(0, 0, np.zeros(1, dtype=int)))
    assert mean[0] == pytest.approx(2.5, rel=1e-12)
    assert var[0] == pytest.approx(4.5, rel=1e-12)
    assert beta_mean[0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert beta_var[0] == pytest.approx(0.5 * math.log(4.0) ** 2, rel=1e-12)
    neutral = _bare_ensemble(np.zeros(5))
    mean, var, beta_mean, beta_var = member_moments(neutral.effective_beta(3, 2, np.zeros(1, dtype=int)))
    assert mean[0] == 1.0 and var[0] == 0.0
    assert beta_mean[0] == 0.0 and beta_var[0] == 0.0


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
    cfg = FilterConfig(n_members=4000, lambda_base=0.1, lambda_glob=0.2, q_base=1e-3,
                       q_hour=0.0, q_day=0.0, q_regime=0.0)
    rng = substream(1, "ou")
    ens = _bare_ensemble(np.zeros((4000, 1)))
    # one segment: the prior is its own ensemble mean, so the spread about
    # that mean contracts by 1 - lambda_base each step
    for _ in range(300):
        ens = forecast_step(ens, cfg, rng, _still(1))
    want = 1e-3 / (1.0 - 0.9**2)
    assert ens.base[:, 0].var(ddof=1) == pytest.approx(want, rel=0.05)


def test_seeded_determinism():
    cfg = FilterConfig(n_members=16)
    a = init_ensemble(4, cfg, substream(5, "run"), alpha_0=1.0)
    b = init_ensemble(4, cfg, substream(5, "run"), alpha_0=1.0)
    ra, rb = substream(6, "fc"), substream(6, "fc")
    for _ in range(3):
        a = forecast_step(a, cfg, ra, _still(4))
        b = forecast_step(b, cfg, rb, _still(4))
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
        n_members=m, sigma_0=math.sqrt(r), sigma_y=0.0, lambda_base=lam, lambda_glob=0.2,
        q_base=q, q_hour=0.0, q_day=0.0, q_regime=0.0,
        init_base_sd=0.3, init_glob_sd=0.0, max_global_obs=0,
    )
    rng = substream(2, "kf-twin")
    one = init_ensemble(1, cfg, rng, alpha_0=1.0)
    # two anchor segments that no camera reaches start every member at 0,
    # so the prior (the median of the three segment means) holds at 0 but
    # for the mean of the anchors' forecast noise, sd sqrt(q / m) = 2e-4
    ens = CalibrationEnsemble(np.hstack([one.base, np.zeros((m, 2))]), one.hour, one.day, one.regime)
    kf_mean, kf_var = 0.0, cfg.init_base_sd**2
    q_hat = np.full(3, 100.0)
    loc = {0: np.array([1.0, 0.0, 0.0])}
    regimes = np.zeros(3, dtype=int)
    worst_mean, worst_var = 0.0, 0.0
    for cycle in range(50):
        ens = forecast_step(ens, cfg, rng, _still(3))
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
    assert abs(float(np.median(ens.base.mean(axis=0)))) < 2e-3


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


# -- the four-array filter, kept as the oracle of the single-state form -------


def _four_array_analysis(parts, observations, q_hat, localization, config, hour, day, regimes):
    """Per-component serial updates of separate base/hour/day/regime arrays."""
    base, hour_c, day_c, regime = (np.array(a, dtype=float) for a in parts)
    m = base.shape[0]
    n_global = 0
    for obs in sorted(observations, key=lambda o: o.segment):
        i = obs.segment
        z_obs = log_ratio(obs.count, q_hat[i])
        r_z = obs_variance(obs.count, config)
        z = base[:, i] + hour_c[:, hour] + day_c[:, day] + regime[:, regimes[i]]
        z_anom = z - z.mean()
        denom = float(z_anom @ z_anom) / (m - 1) + r_z
        gamma = 1.0 / (1.0 + np.sqrt(r_z / denom))
        nu = z_obs - z.mean()
        targets = [(base, localization[i], 1.0)]
        if n_global < config.max_global_obs:
            targets += [(c, None, config.global_gain_scale) for c in (hour_c, day_c, regime)]
            n_global += 1
        for comp, mask, scale in targets:
            anom = comp - comp.mean(axis=0)
            k = (anom.T @ z_anom) / (m - 1) / denom * scale
            if mask is not None:
                k = mask * k
            comp += k * nu - gamma * np.outer(z_anom, k)
    return base, hour_c, day_c, regime


def _four_draw_forecast(parts, config, rng, transition):
    """OU forecast of separate arrays: one normal draw per component."""
    base, hour_c, day_c, regime = parts
    beta_star = float(np.median(base.mean(axis=0)))
    base = diffuse(base, transition)
    lb, lg = config.lambda_base, config.lambda_glob
    base = (1.0 - lb) * base + lb * beta_star + rng.normal(0.0, np.sqrt(config.q_base), size=base.shape)
    hour_c = (1.0 - lg) * hour_c + rng.normal(0.0, np.sqrt(config.q_hour), size=hour_c.shape)
    day_c = (1.0 - lg) * day_c + rng.normal(0.0, np.sqrt(config.q_day), size=day_c.shape)
    regime = (1.0 - lg) * regime + rng.normal(0.0, np.sqrt(config.q_regime), size=regime.shape)
    return base, hour_c, day_c, regime


def _components(ens):
    return ens.base, ens.hour, ens.day, ens.regime


def _two_camera_case(max_global_obs):
    cfg = FilterConfig(n_members=24, sigma_0=0.1, sigma_y=2.0, max_global_obs=max_global_obs,
                       global_gain_scale=0.3)
    ens = init_ensemble(6, cfg, substream(4, "two-cams"), alpha_0=1.4)
    q_hat = np.array([30.0, 40.0, 25.0, 60.0, 35.0, 20.0])
    obs = [CameraObservation(4, 0, 52.0), CameraObservation(1, 0, 61.0)]
    loc = {1: np.array([0.5, 1.0, 0.5, 0.25, 0.0, 0.0]), 4: np.array([0.0, 0.0, 0.25, 0.5, 1.0, 0.5])}
    regimes = np.array([0, 1, 2, 0, 1, 2])
    return ens, obs, q_hat, loc, cfg, regimes


def test_single_state_analysis_matches_four_array_oracle():
    ens, obs, q_hat, loc, cfg, regimes = _two_camera_case(max_global_obs=1)
    out = analysis_step(ens, obs, q_hat, loc, cfg, 7, 3, regimes)
    want = _four_array_analysis(_components(ens), obs, q_hat, loc, cfg, 7, 3, regimes)
    for name, got, ref in zip(("base", "hour", "day", "regime"), _components(out), want):
        err = np.abs(got - ref).max() / np.abs(ref).max()
        assert err <= 1e-14, f"{name} off by {err:.2e} relative"
    # the oracle itself moved every component, so the match is not vacuous
    assert all(not np.array_equal(a, b) for a, b in zip(want, _components(ens)))
    assert out.n_assimilated == 2


def test_global_columns_bitwise_unchanged_past_the_cap():
    ens, obs, q_hat, loc, cfg, regimes = _two_camera_case(max_global_obs=1)
    n = ens.n_segments
    first_only = analysis_step(ens, obs[1:], q_hat, loc, cfg, 7, 3, regimes)
    both = analysis_step(ens, obs, q_hat, loc, cfg, 7, 3, regimes)
    # the second observation's gain row is [rho | 0]: its update adds an
    # exact zero to every global column
    assert np.array_equal(both.state[:, n:], first_only.state[:, n:])
    assert not np.array_equal(both.base, first_only.base)
    ens0, obs, q_hat, loc, cfg0, regimes = _two_camera_case(max_global_obs=0)
    none = analysis_step(ens0, obs, q_hat, loc, cfg0, 7, 3, regimes)
    assert np.array_equal(none.state[:, n:], ens0.state[:, n:])


@pytest.mark.parametrize("n_segments", [5, 6])
def test_single_state_forecast_matches_four_draw_form(n_segments):
    # odd and even segment counts take both branches of the median; distinct
    # noise levels tell the four draws apart
    cfg = FilterConfig(n_members=16, q_base=2e-4, q_hour=3e-5, q_day=1e-5, q_regime=5e-6)
    ens = init_ensemble(n_segments, cfg, substream(8, "fc-init"), alpha_0=0.8)
    flows = np.zeros((n_segments, n_segments))
    for i in range(n_segments - 1):
        flows[i, i + 1] = 1.0 + i
    t = build_transition(flows, gamma_pd=0.8, s=0.2)
    for transition in (_still(n_segments), t):
        out = forecast_step(ens, cfg, substream(9, "fc"), transition)
        want = _four_draw_forecast(_components(ens), cfg, substream(9, "fc"), transition)
        for got, ref in zip(_components(out), want):
            assert np.array_equal(got, ref)


def test_components_are_views_of_one_state():
    ens = init_ensemble(3, FilterConfig(n_members=4), substream(1, "views"), alpha_0=1.0)
    assert ens.state.shape == (4, 3 + 24 + 7 + N_REGIMES)
    ens.hour[:, 5] = 0.5
    assert np.array_equal(ens.state[:, 3 + 5], np.full(4, 0.5))
    regimes = np.zeros(3, dtype=int)
    want = ens.base + 0.5 + ens.day[:, [1]] + ens.regime[:, [0]]
    assert np.array_equal(ens.effective_beta(5, 1, regimes), want)
    dup = ens.copy()
    assert not np.shares_memory(dup.state, ens.state)
    assert np.shares_memory(dup.hour, dup.state)
    dup.hour[:] = 9.0
    assert np.array_equal(ens.hour[:, 5], np.full(4, 0.5))


def test_ensemble_shape_mismatch_names_the_component():
    m, n = 4, 3

    def build(**over):
        parts = dict(base=np.zeros((m, n)), hour=np.zeros((m, 24)), day=np.zeros((m, 7)),
                     regime=np.zeros((m, N_REGIMES)), confidence=np.zeros(n))
        parts.update(over)
        return CalibrationEnsemble(**parts)

    build()
    with pytest.raises(ValueError, match="component hour .* not 4 members"):
        build(hour=np.zeros((m + 1, 24)))
    with pytest.raises(ValueError, match="component day has 6 columns, not 7"):
        build(day=np.zeros((m, 6)))
    with pytest.raises(ValueError, match="component regime has 4 columns"):
        build(regime=np.zeros((m, 4)))
    with pytest.raises(ValueError, match="component hour has 7 columns, not 24"):
        build(hour=np.zeros((m, 7)))
    with pytest.raises(ValueError, match="component base"):
        build(base=np.zeros(n))
    with pytest.raises(ValueError, match="component confidence"):
        build(confidence=np.zeros(n + 1))
    with pytest.raises(ValueError, match="component regime is not finite"):
        build(regime=np.full((m, N_REGIMES), np.inf))
