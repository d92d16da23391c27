"""Probe thinning, pooling, metrics, synthetic twins, and the pipeline."""

import ctypes
import datetime as dt
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from trafficfuse import cli, ensrf, harness
from trafficfuse.ctm import simulate
from trafficfuse.harness import (
    CHAIN_CAMERAS,
    GRID_CAMERAS,
    RATE_FLOOR,
    ExperimentConfig,
    PenetrationModel,
    Pipeline,
    PipelineError,
    chain_network,
    demand_profile,
    evaluate,
    grid_network,
    load_config,
    pool_windows,
    run_pipeline,
    thin_counts,
)
from trafficfuse.model import ModelConfig
from trafficfuse.network import CountMatrix, boundary_segments
from trafficfuse.observability import analyze

MONDAY = dt.datetime(2024, 3, 4)


def odd_bins_over_a_week():
    # a Saturday 21:47:13 start and 700 s bins that do not divide an hour,
    # over 8.1 days, so the span crosses a week boundary
    cm = CountMatrix(np.zeros((1, 1000)), 700, dt.datetime(2024, 3, 9, 21, 47, 13))
    starts = [cm.bin_start(t) for t in range(cm.n_bins)]
    assert starts[-1] - starts[0] > dt.timedelta(days=7)
    return cm, starts


def make_counts(values, start=MONDAY, bin_seconds=900):
    return CountMatrix(np.asarray(values, dtype=float), bin_seconds, start)


def flat_counts(n, t, level, **kw):
    return make_counts(np.full((n, t), float(level)), **kw)


# -- penetration and thinning -------------------------------------------------


class TestPenetrationModel:
    def test_rate_matrix_combines_base_and_multipliers(self):
        hour_mult = np.ones(24)
        hour_mult[8] = 2.0
        day_mult = np.ones(7)
        day_mult[6] = 0.5
        pen = PenetrationModel(base=0.2, hour_mult=hour_mult, day_mult=day_mult)
        rate = pen.effective(3, np.array([0, 8, 8]), np.array([0, 0, 6]))
        assert rate.shape == (3, 3)
        assert np.allclose(rate[:, 0], 0.2)
        assert np.allclose(rate[:, 1], 0.4)
        assert np.allclose(rate[:, 2], 0.2)

    def test_rates_clip_into_unit_interval(self):
        pen = PenetrationModel(base=0.9, hour_mult=np.full(24, 3.0))
        rate = pen.effective(1, np.arange(24), np.zeros(24, dtype=int))
        assert np.all(rate == 1.0)
        tiny = PenetrationModel(base=1e-9 + RATE_FLOOR, hour_mult=np.full(24, 1e-6))
        rate = tiny.effective(1, np.array([0]), np.array([0]))
        assert rate[0, 0] == RATE_FLOOR

    def test_per_segment_base_vector(self):
        pen = PenetrationModel(base=np.array([0.1, 0.5]))
        rate = pen.effective(2, np.array([0]), np.array([0]))
        assert rate[0, 0] == pytest.approx(0.1)
        assert rate[1, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("base", [0.0, -0.1, 1.5])
    def test_base_outside_unit_interval_rejected(self, base):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PenetrationModel(base=base)

    def test_multiplier_shape_and_sign_checked(self):
        with pytest.raises(ValueError, match="hour multipliers"):
            PenetrationModel(hour_mult=np.ones(23))
        with pytest.raises(ValueError, match="day multipliers"):
            PenetrationModel(day_mult=-np.ones(7))


class TestThinCounts:
    def test_full_penetration_returns_rounded_truth(self):
        truth = make_counts([[10.4, 20.6, 0.0]])
        probe = thin_counts(truth, PenetrationModel(base=1.0))
        assert np.array_equal(probe.values, [[10.0, 21.0, 0.0]])

    def test_nan_bins_stay_nan(self):
        truth = make_counts([[100.0, np.nan, 50.0]])
        probe = thin_counts(truth, PenetrationModel(base=0.5, seed=3))
        assert np.isnan(probe.values[0, 1])
        assert np.isfinite(probe.values[0, [0, 2]]).all()

    def test_negative_truth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            thin_counts(make_counts([[-1.0]]), PenetrationModel())

    def test_same_seed_reproduces_sample(self):
        truth = flat_counts(4, 96, 300)
        a = thin_counts(truth, PenetrationModel(base=0.3, seed=9))
        b = thin_counts(truth, PenetrationModel(base=0.3, seed=9))
        assert np.array_equal(a.values, b.values)

    def test_thinning_is_unbiased_within_3_sigma(self):
        # 9600 cells of Binomial(400, 0.2): total mean 768000, sd ~784
        truth = flat_counts(20, 480, 400)
        probe = thin_counts(truth, PenetrationModel(base=0.2, seed=5))
        total = probe.values.sum()
        mean = 20 * 480 * 400 * 0.2
        sd = np.sqrt(20 * 480 * 400 * 0.2 * 0.8)
        assert abs(total - mean) < 3 * sd


# -- pooling ------------------------------------------------------------------


class TestPoolWindows:
    def test_single_matrix_is_identity(self):
        probe = flat_counts(2, 96, 50)
        assert pool_windows(probe) is probe

    def test_three_identical_copies_triple(self):
        probe = make_counts(np.arange(192, dtype=float).reshape(2, 96))
        pooled = pool_windows(probe, [probe, probe])
        assert np.array_equal(pooled.values, 3.0 * probe.values)

    def test_missing_bins_contribute_zero_unless_missing_everywhere(self):
        a = make_counts([[1.0, np.nan]])
        b = make_counts([[np.nan, np.nan]])
        pooled = pool_windows(a, [b])
        assert pooled.values[0, 0] == 1.0
        assert np.isnan(pooled.values[0, 1])

    def test_pooled_rates_add(self):
        # three independent 5% samples behave like one 15% sample
        truth = flat_counts(10, 7 * 96, 1000)
        parts = [thin_counts(truth, PenetrationModel(base=0.05, seed=s)) for s in (1, 2, 3)]
        pooled = pool_windows(parts[0], parts[1:])
        rate = pooled.values.sum() / truth.values.sum()
        assert abs(rate - 0.15) < 0.01

    def test_shape_mismatch_rejected(self):
        a, b = flat_counts(2, 4, 1), flat_counts(3, 4, 1)
        with pytest.raises(ValueError, match="dataset 1 does not match"):
            pool_windows(a, [b])

    def test_time_of_week_misalignment_rejected(self):
        a = flat_counts(1, 4, 1)
        shifted = flat_counts(1, 4, 1, start=MONDAY + dt.timedelta(seconds=900))
        with pytest.raises(ValueError, match="misaligned in time-of-week"):
            pool_windows(a, [shifted])

    def test_sub_minute_misalignment_rejected(self):
        a = flat_counts(1, 4, 1)
        late = flat_counts(1, 4, 1, start=MONDAY + dt.timedelta(seconds=45))
        with pytest.raises(ValueError, match="misaligned in time-of-week"):
            pool_windows(a, [late])

    def test_week_keys_match_datetime_arithmetic(self):
        cm, starts = odd_bins_over_a_week()
        keys = harness._week_keys(cm)
        assert np.array_equal(keys, [s.weekday() * 86400 + s.hour * 3600 + s.minute * 60 + s.second for s in starts])

    def test_alignment_uses_time_of_week_not_date(self):
        a = flat_counts(1, 4, 1)
        next_week = flat_counts(1, 4, 1, start=MONDAY + dt.timedelta(days=7))
        pooled = pool_windows(a, [next_week])
        assert np.array_equal(pooled.values, np.full((1, 4), 2.0))


# -- metrics ------------------------------------------------------------------


class TestEvaluate:
    # hand-worked series: errors (1,-1,1,-1,0), truth mean 10
    EST = np.array([[10.0, 12.0, 8.0, 9.0, 11.0]])
    TRUTH = np.array([[9.0, 13.0, 7.0, 10.0, 11.0]])

    def test_hand_worked_five_point_series(self):
        m = evaluate(self.EST, self.TRUTH, [0]).per_location[0]
        assert m.mae == pytest.approx(0.8)
        assert m.rmse == pytest.approx(np.sqrt(0.8))
        assert m.r2 == pytest.approx(1.0 - 4.0 / 20.0)
        assert m.r == pytest.approx(13.0 / np.sqrt(200.0))

    def test_perfect_estimate(self):
        m = evaluate(self.TRUTH, self.TRUTH, [0]).per_location[0]
        assert m.mae == 0.0 and m.rmse == 0.0
        assert m.r2 == 1.0 and m.r == 1.0

    def test_constant_offset(self):
        m = evaluate(self.TRUTH + 2.5, self.TRUTH, [0]).per_location[0]
        assert m.mae == pytest.approx(2.5)
        assert m.r == pytest.approx(1.0)
        assert m.r2 == pytest.approx(1.0 - 5 * 2.5**2 / 20.0)

    def test_zero_variance_truth_gets_note_not_crash(self):
        truth = np.full((1, 4), 7.0)
        report = evaluate(truth + 1.0, truth, [0])
        m = report.per_location[0]
        assert m.r2 is None and m.r is None
        assert report.pooled_r2 is None
        assert any("zero-variance" in note for note in report.notes)

    def test_pooled_r2_sums_sse_and_sst(self):
        est = np.vstack([self.EST, self.EST + 1.0])
        truth = np.vstack([self.TRUTH, self.TRUTH])
        report = evaluate(est, truth, [0, 1])
        # second location adds errors (2,0,2,0,1): sse 9, same sst 20
        assert report.pooled_r2 == pytest.approx(1.0 - (4.0 + 9.0) / 40.0)
        assert report.n_points == 10

    def test_coverage_counts_inclusive_hits(self):
        lo = self.TRUTH - 1.0
        hi = self.TRUTH.copy() + 1.0
        report = evaluate(self.EST, self.TRUTH, [0], lo=lo, hi=hi)
        assert report.coverage == 1.0
        hi[0, 1] = self.TRUTH[0, 1] - 0.1  # one miss
        report = evaluate(self.EST, self.TRUTH, [0], lo=lo, hi=hi)
        assert report.coverage == pytest.approx(0.8)

    def test_nan_bins_are_skipped(self):
        est = self.EST.copy()
        est[0, 0] = np.nan
        report = evaluate(est, self.TRUTH, [0])
        assert report.n_points == 4

    def test_empty_location_rejected(self):
        est = np.full((1, 3), np.nan)
        with pytest.raises(ValueError, match="location 0 has no scorable bins"):
            evaluate(est, np.ones((1, 3)), [0])

    def test_unknown_location_rejected(self):
        with pytest.raises(ValueError, match="location 5 outside"):
            evaluate(self.EST, self.TRUTH, [5])

    def test_report_serializes(self):
        report = evaluate(self.EST, self.TRUTH, [0])
        d = report.to_dict()
        assert set(d) == {"per_location", "pooled_r2", "coverage", "n_points", "notes"}
        assert d["per_location"]["0"]["mae"] == pytest.approx(0.8)
        json.dumps(d)

    @pytest.mark.parametrize("interval", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_band_crit_is_the_normal_quantile(self, interval):
        from scipy.special import ndtri  # the oracle

        want = float(ndtri(0.5 + interval / 2.0))
        assert abs(harness._band_crit(interval) - want) <= 4 * np.spacing(want)


# -- synthetic twins ----------------------------------------------------------


class TestTwins:
    def test_grid_shape_and_boundaries(self):
        net, beta, sources = grid_network()
        assert net.n_segments == 50
        assert len(net.edges) == 5 * 9 + 4 * 3  # east chains plus connectors
        assert sources == [0, 20]
        # every row drains at its own eastern end
        assert boundary_segments(net) == [0, 9, 19, 20, 29, 39, 49]

    def test_grid_turn_ratios_route_everything(self):
        net, beta, _ = grid_network()
        rows = np.bincount(beta.edge_from, weights=beta.edge_beta, minlength=net.n_segments)
        for i in range(net.n_segments):
            expected = 1.0 if any(a == i for a, _ in net.edges) else 0.0
            assert rows[i] == pytest.approx(expected)

    def test_grid_bottleneck_capacity_applies(self):
        net, _, _ = grid_network(bottleneck=(2, 5), bottleneck_capacity=1234.0)
        assert net.segments[25].capacity_vph == 1234.0
        assert net.segments[24].capacity_vph == 3600.0

    def test_chain_twin(self):
        net, beta, sources = chain_network(n=4)
        assert net.n_segments == 4
        assert net.edges == ((0, 1), (1, 2), (2, 3))
        assert sources == [0]
        assert boundary_segments(net) == [0, 3]

    def test_default_cameras_disjoint_and_in_range(self):
        for cams, n in ((GRID_CAMERAS, 50), (CHAIN_CAMERAS, 4)):
            cal, val = set(cams["calibration"]), set(cams["validation"])
            assert not cal & val
            assert all(0 <= i < n for i in cal | val)


class TestDemandProfile:
    def test_supported_on_sources_only(self):
        net, _, sources = grid_network()
        shell = flat_counts(1, 96, 0)
        profile = demand_profile(net, shell, sources, 700.0)
        busy = np.flatnonzero(profile.sum(axis=1))
        assert sorted(busy) == sorted(sources)

    def test_two_peaks_and_floor(self):
        net, _, sources = chain_network()
        shell = flat_counts(1, 96, 0)
        profile = demand_profile(net, shell, sources, 500.0)[0]
        assert profile.max() == pytest.approx(500.0)
        assert profile.min() >= 0.12 * 500.0 - 1e-9
        # morning bump around 08:30, evening around 17:45
        assert profile[34] > profile[48] < profile[71]

    def test_hour_fraction_matches_datetime_arithmetic(self, monkeypatch):
        cm, starts = odd_bins_over_a_week()
        seen = []
        weight = harness._daily_weight
        monkeypatch.setattr(harness, "_daily_weight", lambda hf: seen.append(hf) or weight(hf))
        net, _, sources = chain_network()
        demand_profile(net, cm, sources, 500.0)
        expect = np.array([s.hour + s.minute / 60.0 for s in starts])
        assert seen[0].tobytes() == expect.tobytes()

    def test_weekend_damping(self):
        net, _, sources = chain_network()
        shell = flat_counts(1, 7 * 96, 0)
        profile = demand_profile(net, shell, sources, 500.0)[0]
        monday, sunday = profile[:96], profile[6 * 96:]
        assert np.allclose(sunday, 0.7 * monday)


# -- configuration ------------------------------------------------------------


def small_config(**kw):
    model = ModelConfig(
        n_features=22, embed_dim=8, spatial_layers=1, temporal_blocks=1,
        heads=2, history=4, horizon=1, ffn_width=16,
    )
    base = dict(
        twin="chain", days=2, demand_peak=400.0, model=model, filter=ensrf.FilterConfig(n_members=16),
        train_steps=40, train_batch=4, seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trips_through_dict(self):
        cfg = small_config(cameras_calibration=(1,), cameras_validation=(3,))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_load_config(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(str(path)) == cfg

    @pytest.mark.parametrize(
        "doc,where,key",
        [
            ({"twin": "chain", "dayz": 3}, "experiment", "dayz"),
            ({"twin": "chain", "model": {"embed_dimm": 8}}, "model", "embed_dimm"),
            ({"twin": "chain", "filter": {"n_member": 8}}, "filter", "n_member"),
            # the output directory is the run's placement (--out), not the experiment
            ({"twin": "chain", "out_dir": "results"}, "experiment", "out_dir"),
        ],
    )
    def test_load_config_rejects_unknown_keys(self, tmp_path, doc, where, key):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unknown {where} config keys: {key}"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "section, name, value",
        [("model", "history", 6), ("model", "embed_dim", 48), ("filter", "n_members", 128), ("filter", "lambda_glob", 6e-4)],
    )
    def test_partial_section_takes_the_defaults(self, section, name, value):
        # a section that names one field leaves every other field at the
        # default, as an absent section does
        got = getattr(ExperimentConfig.from_dict({section: {name: value}}), section)
        assert got == replace(getattr(ExperimentConfig(), section), **{name: value})

    @pytest.mark.parametrize(
        "doc, message",
        [
            # twin defaults to "grid", which would run in place of the network
            ({"network_path": "networks/city"}, "^network_path needs twin null; twin 'grid'"),
            ({"twin": "grdi"}, "^unknown twin 'grdi'"),
            # a standalone ModelConfig may take any width; the pipeline builds 22 features
            ({"model": {"n_features": 21}}, "^model.n_features 21 must be 22"),
        ],
        ids=["network_path_with_twin", "unknown_twin", "n_features"],
    )
    def test_rejected_at_construction(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # each used to load (and be echoed into metrics.json), become
            # something else, or fail late or as a bare TypeError
            ({"seed": "7"}, "^experiment config key seed must be an integer, not '7'"),
            ({"seed": True}, "^experiment config key seed must be an integer, not True"),
            ({"cameras_calibration": [1.7]}, "^experiment config key cameras_calibration must be a list of integers"),
            ({"bin_seconds": 900.0}, "^experiment config key bin_seconds must be an integer, not 900.0"),
            ({"days": "14"}, "^experiment config key days must be an integer"),
            ({"model": None}, "^experiment config key model must be an object, not None"),
            ({"train_batch": 0}, "^train_batch 0 must be >= 1"),
            ({"train_lr": -1}, "^train_lr -1 must be positive"),
            ({"confidence_decay": 2.0}, r"^confidence_decay 2.0 must lie in \[0, 1\]"),
            # these two used to fail only in the transition stage, after training
            ({"gamma_pd": 1.5}, r"^gamma_pd 1.5 must lie in \(0, 1\)"),
            ({"diffusion_s": 1.0}, r"^diffusion_s 1.0 must lie in \[0, 1\)"),
        ],
        ids=["seed_str", "seed_bool", "camera_float", "bin_seconds_float", "days_str", "model_null",
             "train_batch_0", "train_lr_negative", "confidence_decay_2", "gamma_pd_1.5", "diffusion_s_1"],
    )
    def test_bad_values_are_rejected_by_name(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    def test_value_types_in_every_section(self):
        # a float field takes an int, and null where the field allows it
        cfg = ExperimentConfig.from_dict({"twin": "chain", "demand_peak": 500, "train_days": None,
                                          "filter": {"sigma_y": 4}, "model": {"ln_eps": 1}})
        assert (cfg.demand_peak, cfg.train_days, cfg.filter.sigma_y, cfg.model.ln_eps) == (500, None, 4, 1)
        with pytest.raises(ValueError, match="^filter config key n_members must be an integer"):
            ExperimentConfig.from_dict({"filter": {"n_members": 64.0}})
        with pytest.raises(ValueError, match="^model config key lambda_mae must be a number, not '1'"):
            ExperimentConfig.from_dict({"model": {"lambda_mae": "1"}})
        with pytest.raises(ValueError, match="^experiment config key twin must be a string or null"):
            ExperimentConfig.from_dict({"twin": 3})

    def test_camera_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            small_config(cameras_calibration=(1, 2), cameras_validation=(2,))

    def test_needs_twin_or_network_path(self):
        with pytest.raises(ValueError, match="twin name or a network path"):
            ExperimentConfig(twin=None)

    def test_day_and_interval_bounds(self):
        with pytest.raises(ValueError, match="days"):
            small_config(days=0)
        with pytest.raises(ValueError, match="interval"):
            small_config(interval=1.0)

    @pytest.mark.parametrize(
        "name, value",
        [("train_steps", 0), ("burn_days", 2), ("burn_days", -1), ("train_days", 0), ("train_days", 3)],
    )
    def test_run_length_bounds(self, name, value):
        # small_config runs 2 days; each of these used to fail only deep in
        # the run (or, for train_days=0, fell back to the default)
        with pytest.raises(ValueError, match=f"^{name} "):
            small_config(**{name: value})

    def test_run_length_bounds_are_inclusive_where_stated(self):
        cfg = small_config(burn_days=0, train_days=2, train_steps=1)
        assert (cfg.burn_days, cfg.train_days, cfg.train_steps) == (0, 2, 1)

    @pytest.mark.parametrize("bin_seconds", [700, 0])
    def test_bin_width_must_divide_a_day(self, bin_seconds):
        # 700 s would give 123 "bins per day" covering 0.996 days
        with pytest.raises(ValueError, match="does not divide a day"):
            small_config(bin_seconds=bin_seconds)


# -- pipeline -----------------------------------------------------------------


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain_run")
    result = run_pipeline(small_config(), out_dir=str(out))
    return result, out


class TestPipeline:
    def test_stage_errors_carry_the_stage_name(self, tmp_path):
        cfg = ExperimentConfig(twin=None, network_path=str(tmp_path / "missing.json"))
        with pytest.raises(PipelineError, match="^build:") as err:
            Pipeline(cfg).build()
        assert err.value.stage == "build"

    def test_validation_cameras_never_enter_assimilation(self):
        pipe = Pipeline(small_config()).transition()
        pipe.forecasts()
        pipe.calibration = (1, 3)  # 3 is a validation camera
        with pytest.raises(PipelineError, match=r"validation cameras \[3\] entered assimilation"):
            pipe.calibrate()

    def test_assimilation_needs_cameras(self):
        cfg = small_config(cameras_calibration=(), cameras_validation=())
        pipe = Pipeline(cfg)
        pipe.build()
        pipe.calibration = ()
        with pytest.raises(PipelineError, match="no calibration cameras"):
            pipe.calibrate()

    def test_failed_analysis_is_named_observability(self, monkeypatch, tmp_path):
        def fails(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness, "analyze", fails)
        with pytest.raises(PipelineError, match="^observability: injected") as err:
            Pipeline(small_config()).write_observability(str(tmp_path))
        assert err.value.stage == "observability"

    def test_failed_stage_runs_again(self, monkeypatch):
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", fails_once)
        pipe = Pipeline(small_config())
        with pytest.raises(PipelineError, match="^simulate: injected"):
            pipe.simulate()
        pipe.sample()
        pipe.simulate()
        assert len(calls) == 2
        assert pipe.probe.values.shape == pipe.truth.values.shape

    def test_nan_camera_bins_are_skipped(self, chain_run):
        pipe = Pipeline(small_config()).forecasts()
        (cam,) = pipe.calibration
        pipe.truth.values[cam, pipe.first_bin] = np.nan  # inside the warm-up day
        pipe.truth.values[cam, pipe.truth.n_bins - pipe.bins_per_day // 2] = np.nan
        pipe.calibrate()
        assert pipe.ensemble.n_assimilated == chain_run[0].diagnostics["n_assimilated"] - 2
        assert np.isfinite(pipe.ensemble.base).all()

    def test_full_day_camera_outage_delays_the_warm_up(self, chain_run):
        pipe = Pipeline(small_config()).forecasts()
        (cam,) = pipe.calibration
        pipe.truth.values[cam, pipe.first_bin : pipe.first_bin + pipe.bins_per_day] = np.nan
        pipe.calibrate()
        assert pipe.ensemble.n_assimilated == chain_run[0].diagnostics["n_assimilated"] - pipe.bins_per_day
        assert np.isfinite(pipe.alpha_star) and pipe.alpha_star > 0
        assert np.isfinite(pipe.calibrated.values[:, pipe.first_bin :]).all()

    def test_camera_dark_for_the_whole_span_is_named(self):
        pipe = Pipeline(small_config()).forecasts()
        pipe.truth.values[list(pipe.calibration), :] = np.nan
        with pytest.raises(PipelineError, match="calibrate: no calibration camera has a finite count"):
            pipe.calibrate()

    def test_nan_probe_bins_are_dropped_and_skipped(self, tmp_path):
        pipe = Pipeline(small_config()).sample()
        (cam,) = pipe.calibration
        pipe.probe.values[cam, 60] = np.nan  # in the training span
        pipe.probe.values[cam, 150] = np.nan  # anchors the estimate of a camera bin
        pipe.probe.values[2, 60] = np.nan
        pipe.write_metrics(str(tmp_path))
        assert not np.isfinite(pipe.q_hat[cam, 151])
        numbers = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, float):
                numbers.append(node)

        walk(json.loads((tmp_path / "metrics.json").read_text()))
        assert numbers and np.isfinite(numbers).all()
        assert pipe.diagnostics["far_base_change"] == 0.0

    # Fault injection: these pin behaviour the filter already has.

    @pytest.mark.parametrize("fault", ["zero", "outlier"])
    def test_faulty_camera_readings_keep_calibration_finite(self, fault):
        pipe = Pipeline(small_config()).forecasts()
        (cam,) = pipe.calibration
        t = pipe.first_bin + pipe.bins_per_day
        if fault == "zero":
            pipe.truth.values[cam, t : t + 12] = 0.0
        else:
            pipe.truth.values[cam, t] = 1e6
        pipe.calibrate()
        assert np.isfinite(pipe.calibrated.values[:, pipe.first_bin :]).all()
        assert np.isfinite(pipe.ensemble.base).all()

    def test_duplicate_calibration_ids_assimilate_once(self, chain_run):
        pipe = Pipeline(small_config(cameras_calibration=(1, 1))).calibrate()
        assert pipe.ensemble.n_assimilated == chain_run[0].diagnostics["n_assimilated"]
        assert np.isfinite(pipe.calibrated.values[:, pipe.first_bin :]).all()
        # a repeat of one of several cameras is that camera once, in the
        # warm-up median too, and keeps the first-occurrence order
        once = Pipeline(small_config(cameras_calibration=(2, 1), cameras_validation=(3,))).calibrate()
        twice = Pipeline(small_config(cameras_calibration=(2, 1, 2, 2), cameras_validation=(3, 3))).calibrate()
        assert (twice.calibration, twice.validation) == ((2, 1), (3,))
        assert twice.alpha_star == once.alpha_star
        assert np.array_equal(twice.calibrated.values, once.calibrated.values, equal_nan=True)

    def test_observability_uses_the_simulated_turn_ratios(self, tmp_path):
        pipe = Pipeline(small_config(twin="grid"))
        pipe.write_observability(str(tmp_path))
        expected = analyze(pipe.net, pipe.fd, pipe.calibration, beta=pipe.beta, bin_seconds=pipe.cfg.bin_seconds)
        assert np.array_equal(pipe.obs_report.obs, expected.obs)

    def test_chain_run_calibrates_toward_truth(self, chain_run):
        result, _ = chain_run
        # 10% probes make the raw predictor ~10x low; calibration closes most of it
        assert result.diagnostics["alpha_star"] > 5.0
        assert result.diagnostics["improvement_mae"] > 0.4
        cal = result.report.per_location[3]
        unc = result.uncal_report.per_location[3]
        assert cal.mae < unc.mae

    def test_intervals_align_with_calibrated(self, chain_run):
        result, _ = chain_run
        lo, hi = result.intervals
        assert lo.shape == result.calibrated.values.shape == hi.shape
        both = np.isfinite(lo) & np.isfinite(hi)
        assert both.any()
        assert np.all(lo[both] <= hi[both])

    def test_artifact_files_exist(self, chain_run, tmp_path):
        result, out = chain_run
        # a finished pipeline writes the same files again without rerunning a stage
        paths = result.write_artifacts(str(tmp_path))
        names = {
            "metrics": "metrics.json",
            "calibrated_counts": "calibrated_counts.csv",
            "calibration_field": "calibration_field.csv",
            "transition": "transition.csv",
            "localization": "localization.csv",
            "observability": "observability.json",
            "observability_conf": "observability_conf.csv",
            "training_log": "training_log.csv",
            "checkpoint": "model.npz",
            "checkpoint_config": "model.json",
        }
        assert paths == {key: str(tmp_path / name) for key, name in names.items()}
        # the returned paths are every file written, and nothing else
        assert sorted(paths.values()) == sorted(str(p) for p in tmp_path.iterdir())
        for name in names.values():
            assert os.path.getsize(out / name) > 0
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_metrics_json_records_seed_and_config(self, chain_run):
        result, out = chain_run
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["seed"] == 11
        assert payload["config"]["twin"] == "chain"
        assert "metrics" in payload and "uncalibrated" in payload
        assert payload["diagnostics"]["eval_window"][0] >= 4

    def test_calibration_field_covers_every_segment(self, chain_run):
        _, out = chain_run
        lines = (out / "calibration_field.csv").read_text().strip().splitlines()
        assert lines[0] == "segment_id,alpha,delta,localized"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("c0,")

    def test_count_files_label_rows_by_external_id(self, chain_run):
        result, out = chain_run
        rows = (out / "calibrated_counts.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["segment_id", *result.net.external_ids]

    def test_reruns_are_byte_identical(self, chain_run, tmp_path):
        _, out = chain_run
        rerun = tmp_path / "rerun"
        run_pipeline(small_config(), out_dir=str(rerun))
        first = (out / "metrics.json").read_bytes()
        second = (rerun / "metrics.json").read_bytes()
        assert first == second

    def test_different_seed_changes_metrics(self, chain_run, tmp_path):
        _, out = chain_run
        other = tmp_path / "other_seed"
        run_pipeline(small_config(seed=12), out_dir=str(other))
        assert (out / "metrics.json").read_bytes() != (other / "metrics.json").read_bytes()


def test_cli_stage_files_match_run(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(small_config().to_dict()))
    outs = {}
    for command in ("run", "train", "calibrate", "observability", "evaluate"):
        outs[command] = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out", str(outs[command])]) == 0
    expected = {
        "train": {"training_log.csv", "model.npz", "model.json"},
        "calibrate": {"calibrated_counts.csv", "calibration_field.csv", "transition.csv", "localization.csv"},
        "observability": {"observability.json", "observability_conf.csv"},
        "evaluate": {"metrics.json"},
    }
    for command, names in expected.items():
        assert {p.name for p in outs[command].iterdir()} == names
        for name in names:
            assert (outs[command] / name).read_bytes() == (outs["run"] / name).read_bytes(), (command, name)


def test_cli_runs_where_the_allocator_hook_finds_no_libc(tmp_path, monkeypatch):
    def no_libc(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert cli._keep_freed_memory() == ()
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(small_config(train_steps=4).to_dict()))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "metrics.json").is_file()


def test_allocator_hook_sets_both_glibc_thresholds():
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        pytest.skip("no glibc mallopt here")
    assert cli._keep_freed_memory() == (1, 1)
