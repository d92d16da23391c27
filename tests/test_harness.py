"""Probe thinning, pooling, metrics, synthetic twins, and the pipeline."""

import ctypes
import datetime as dt
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from trafficfuse import cli, ensrf, harness, propagation
from trafficfuse.ctm import simulate
from trafficfuse.features import build_tensor
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
from trafficfuse.network import CountMatrix, boundary_segments, save_network
from trafficfuse.observability import analyze
from trafficfuse.train import train

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
        pen = PenetrationModel(base=0.2, seed=0, hour_mult=hour_mult, day_mult=day_mult)
        rate = pen.effective(3, np.array([0, 8, 8]), np.array([0, 0, 6]))
        assert rate.shape == (3, 3)
        assert np.allclose(rate[:, 0], 0.2)
        assert np.allclose(rate[:, 1], 0.4)
        assert np.allclose(rate[:, 2], 0.2)

    def test_rates_clip_into_unit_interval(self):
        pen = PenetrationModel(base=0.9, seed=0, hour_mult=np.full(24, 3.0))
        rate = pen.effective(1, np.arange(24), np.zeros(24, dtype=int))
        assert np.all(rate == 1.0)
        tiny = PenetrationModel(base=1e-9 + RATE_FLOOR, seed=0, hour_mult=np.full(24, 1e-6))
        rate = tiny.effective(1, np.array([0]), np.array([0]))
        assert rate[0, 0] == RATE_FLOOR

    def test_per_segment_base_vector(self):
        pen = PenetrationModel(base=np.array([0.1, 0.5]), seed=0)
        rate = pen.effective(2, np.array([0]), np.array([0]))
        assert rate[0, 0] == pytest.approx(0.1)
        assert rate[1, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("base", [0.0, -0.1, 1.5])
    def test_base_outside_unit_interval_rejected(self, base):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PenetrationModel(base=base, seed=0)

    def test_multiplier_shape_and_sign_checked(self):
        with pytest.raises(ValueError, match="hour multipliers"):
            PenetrationModel(base=0.1, seed=0, hour_mult=np.ones(23))
        with pytest.raises(ValueError, match="day multipliers"):
            PenetrationModel(base=0.1, seed=0, day_mult=-np.ones(7))


class TestThinCounts:
    def test_full_penetration_returns_rounded_truth(self):
        truth = make_counts([[10.4, 20.6, 0.0]])
        probe = thin_counts(truth, PenetrationModel(base=1.0, seed=0))
        assert np.array_equal(probe.values, [[10.0, 21.0, 0.0]])

    def test_nan_bins_stay_nan(self):
        truth = make_counts([[100.0, np.nan, 50.0]])
        probe = thin_counts(truth, PenetrationModel(base=0.5, seed=3))
        assert np.isnan(probe.values[0, 1])
        assert np.isfinite(probe.values[0, [0, 2]]).all()

    def test_negative_truth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            thin_counts(make_counts([[-1.0]]), PenetrationModel(base=0.1, seed=0))

    def test_an_all_missing_matrix_samples_without_a_warning(self):
        # NaN compares as not negative, so an all-missing matrix is not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = thin_counts(make_counts([[np.nan, np.nan], [np.nan, np.nan]]), PenetrationModel(base=0.1, seed=0))
        assert np.isnan(probe.values).all()

    def test_a_count_too_large_to_sample_is_named(self):
        # an int64 count stops below 2**63; the largest float under it samples
        top = 2.0**63 - 1024
        assert thin_counts(make_counts([[top]]), PenetrationModel(base=1.0, seed=0)).values[0, 0] == top
        with pytest.raises(ValueError, match=r"^segment row 1, bin 2: count 1e\+19 is too large to sample"):
            thin_counts(make_counts([[0.0, 1.0, 2.0], [3.0, 4.0, 1e19]]), PenetrationModel(base=0.1, seed=0))

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
    def test_a_single_matrix_pools_to_equal_counts(self):
        probe = make_counts([[1.0, np.nan], [0.0, 7.0]])
        pooled = pool_windows(probe, ())
        assert np.array_equal(pooled.values, probe.values, equal_nan=True)
        assert (pooled.bin_seconds, pooled.start_time) == (probe.bin_seconds, probe.start_time)

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
        net, _, _ = grid_network()
        # one reduced-capacity cell, at row 2, column 5
        assert net.segments[25].capacity_vph == 1700.0
        assert [i for i, seg in enumerate(net.segments) if seg.capacity_vph != 3600.0] == [25]

    def test_chain_twin(self):
        net, beta, sources = chain_network()
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
            # these four are fixed in code now, so their keys are unknown
            ({"train_lr": -1}, "^unknown experiment config keys: train_lr$"),
            ({"confidence_decay": 2.0}, "^unknown experiment config keys: confidence_decay$"),
            ({"gamma_pd": 1.5}, "^unknown experiment config keys: gamma_pd$"),
            ({"diffusion_s": 1.0}, "^unknown experiment config keys: diffusion_s$"),
        ],
        ids=["seed_str", "seed_bool", "camera_float", "bin_seconds_float", "days_str", "model_null",
             "train_batch_0", "train_lr_negative", "confidence_decay_2", "gamma_pd_1.5", "diffusion_s_1"],
    )
    def test_bad_values_are_rejected_by_name(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    def test_value_types_in_every_section(self):
        # a float field takes an int, and null where the field allows it
        cfg = ExperimentConfig.from_dict({"twin": "chain", "demand_peak": 500, "network_path": None,
                                          "filter": {"sigma_y": 4}, "model": {"history": 3}})
        assert (cfg.demand_peak, cfg.network_path, cfg.filter.sigma_y, cfg.model.history) == (500, None, 4, 3)
        with pytest.raises(ValueError, match="^filter config key n_members must be an integer"):
            ExperimentConfig.from_dict({"filter": {"n_members": 64.0}})
        with pytest.raises(ValueError, match="^filter config key sigma_y must be a number, not '1'"):
            ExperimentConfig.from_dict({"filter": {"sigma_y": "1"}})
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
        [("train_steps", 0), ("days", 1)],
    )
    def test_run_length_bounds(self, name, value):
        # days=1 leaves no day to score after the filter's settling day
        with pytest.raises(ValueError, match=f"^{name} "):
            small_config(**{name: value})

    def test_run_length_bounds_are_inclusive_where_stated(self):
        cfg = small_config(days=2, train_steps=1)
        assert (cfg.days, cfg.train_steps) == (2, 1)

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

    @pytest.mark.parametrize("module, name, stage", [
        (harness, "simulate", "simulate"),
        (harness, "build_tensor", "features"),
        (harness, "train", "fit"),
        (harness, "predict", "forecasts"),
        (harness, "build_transition", "transition"),
        (ensrf, "analysis_step", "calibrate"),
        (harness, "evaluate", "metrics"),
        (harness, "analyze", "observability"),
    ])
    def test_a_failed_stage_is_named_by_its_method(self, monkeypatch, tmp_path, module, name, stage):
        def fails(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(module, name, fails)
        with pytest.raises(PipelineError, match=f"^{stage}: injected$") as err:
            run_pipeline(small_config(train_steps=2), out_dir=str(tmp_path))
        assert err.value.stage == stage

    def test_fit_drops_the_feature_tensor_and_a_retry_rebuilds_it(self, monkeypatch):
        built, trained = [], []

        def counted_build(*args, **kwargs):
            built.append(1)
            return build_tensor(*args, **kwargs)

        def fails_once(*args, **kwargs):
            trained.append(1)
            if len(trained) == 1:
                raise RuntimeError("injected")
            return train(*args, **kwargs)

        monkeypatch.setattr(harness, "build_tensor", counted_build)
        monkeypatch.setattr(harness, "train", fails_once)
        pipe = Pipeline(small_config(train_steps=2))
        with pytest.raises(PipelineError, match="^fit: injected") as err:
            pipe.fit()
        assert err.value.stage == "fit"
        pipe.fit()
        assert not hasattr(pipe, "tensor")
        assert len(built) == 2 and len(trained) == 2

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

    def test_confidence_is_pinned_only_where_a_camera_reported(self, monkeypatch):
        # delta is 1 at a camera in the bins the filter assimilated it, and
        # decays through an outage and through the forecast day
        pipe = Pipeline(small_config(forecast_days=1)).forecasts()
        (cam,) = pipe.calibration
        t_assim = pipe.cfg.days * pipe.bins_per_day
        pipe.truth.values[cam, t_assim - 12 : t_assim - 6] = np.nan
        at_cam = []

        def record(*args, **kwargs):
            delta = propagation.update_confidence(*args, **kwargs)
            at_cam.append(delta[cam])
            return delta

        monkeypatch.setattr(harness, "update_confidence", record)
        pipe.calibrate()
        bins = np.arange(pipe.first_bin, pipe.truth.n_bins)
        reported = (bins < t_assim) & np.isfinite(pipe.truth.values[cam, bins]) & np.isfinite(pipe.q_hat[cam, bins])
        at_cam = np.array(at_cam)
        assert at_cam.shape == bins.shape
        assert (~reported).sum() >= 6 + pipe.bins_per_day
        assert (at_cam[reported] == 1.0).all()
        assert (at_cam[~reported] < 1.0).all()
        assert pipe.delta[cam] < 1.0

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

    def test_written_files_take_the_mode_a_plain_open_gives(self, chain_run, tmp_path):
        # 0o666 less the umask, not a temp file's private 0o600
        result, _ = chain_run
        umask = os.umask(0o027)
        try:
            result.write_artifacts(str(tmp_path / "out"))
            save_network(result.net, str(tmp_path / "net"))
        finally:
            os.umask(umask)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.rglob("*") if p.is_file()}
        assert len(modes) == 12
        assert modes == dict.fromkeys(modes, 0o640)

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


def test_cli_observability_files_match_run(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(small_config().to_dict()))
    outs = {}
    for command in ("run", "observability"):
        outs[command] = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out", str(outs[command])]) == 0
    names = {"observability.json", "observability_conf.csv"}
    assert {p.name for p in outs["observability"].iterdir()} == names
    for name in names:
        assert (outs["observability"] / name).read_bytes() == (outs["run"] / name).read_bytes(), name


def test_optimized_bytecode_changes_no_artifact(tmp_path):
    # invariants are checks that raise, not asserts, so -O (which strips
    # asserts) must leave every artifact as it is
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"twin": "chain", "days": 2, "forecast_days": 1, "train_steps": 20, "seed": 4}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (os.path.dirname(os.path.dirname(harness.__file__)), os.environ.get("PYTHONPATH")))))
    outs = {}
    for flags in ((), ("-O",)):
        outs[flags] = tmp_path / ("optimized" if flags else "plain")
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "trafficfuse.cli", "run", "--config", str(config), "--out", str(outs[flags])],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    plain, optimized = outs[()], outs[("-O",)]
    names = sorted(p.name for p in plain.iterdir())
    assert len(names) == 10
    assert sorted(p.name for p in optimized.iterdir()) == names
    for name in names:
        assert (optimized / name).read_bytes() == (plain / name).read_bytes(), name


def test_a_shuffled_edge_file_changes_no_artifact(tmp_path):
    # the network sorts its edges, so the simulator's sums, the per-edge
    # probe draws and every written file ignore the order of edges.csv
    net, _, _ = grid_network()
    save_network(net, str(tmp_path / "net"))
    cfg = small_config(
        twin=None, network_path=str(tmp_path / "net"), bin_seconds=3600, train_steps=5,
        cameras_calibration=GRID_CAMERAS["calibration"], cameras_validation=GRID_CAMERAS["validation"],
    )
    run_pipeline(cfg, out_dir=str(tmp_path / "sorted"))
    edges = tmp_path / "net" / "edges.csv"
    header, *rows = edges.read_text().splitlines()
    shuffled = list(np.random.default_rng(0).permutation(rows))
    assert shuffled != rows
    edges.write_text("\n".join([header, *shuffled]) + "\n")
    run_pipeline(cfg, out_dir=str(tmp_path / "shuffled"))
    names = sorted(p.name for p in (tmp_path / "sorted").iterdir())
    assert len(names) == 10
    for name in names:
        assert (tmp_path / "shuffled" / name).read_bytes() == (tmp_path / "sorted" / name).read_bytes(), name


@pytest.mark.parametrize("edit, line", [
    ({"train_stepz": 5}, "trafficfuse: error: config: unknown experiment config keys: train_stepz"),
    # the penetration settings and filter.eps are fixed in code now, so
    # their keys are unknown
    ({"penetration_base": 1.5}, "trafficfuse: error: config: unknown experiment config keys: penetration_base"),
    ({"penetration_base": math.nan},
     "trafficfuse: error: config: unknown experiment config keys: penetration_base"),
    ({"penetration_hour_amplitude": 1.5},
     "trafficfuse: error: config: unknown experiment config keys: penetration_hour_amplitude"),
    ({"penetration_day_weekend": 0},
     "trafficfuse: error: config: unknown experiment config keys: penetration_day_weekend"),
    ({"demand_peak": -5}, "trafficfuse: error: config: demand_peak -5 must be finite and >= 0"),
    ({"demand_peak": math.nan}, "trafficfuse: error: config: experiment config key demand_peak must be finite, not nan"),
    ({"filter": {"sigma_0": math.nan}}, "trafficfuse: error: config: filter config key sigma_0 must be finite, not nan"),
    ({"filter": {"eps": math.nan}}, "trafficfuse: error: config: unknown filter config keys: eps"),
    ({"seed": -1}, "trafficfuse: error: config: seed -1 must be >= 0"),
    ({"model": {"heads": 0}}, "trafficfuse: error: config: heads must be >= 1"),
    # obs_variance squares both noise levels
    ({"filter": {"sigma_0": 1e300}}, "trafficfuse: error: config: sigma_0 1e+300 squared is not a finite float"),
    ({"filter": {"sigma_y": 1e300}}, "trafficfuse: error: config: sigma_y 1e+300 squared is not a finite float"),
    # a log-space spread whose 40-sigma draw overflows exp is rejected
    ({"filter": {"q_base": 1e300}}, "trafficfuse: error: config: q_base 1e+300: log-space spread 1e+150 exceeds 17.74"),
    ({"filter": {"q_hour": 1e300}}, "trafficfuse: error: config: q_hour 1e+300: log-space spread 1e+150 exceeds 17.74"),
    ({"filter": {"q_day": 1e300}}, "trafficfuse: error: config: q_day 1e+300: log-space spread 1e+150 exceeds 17.74"),
    ({"filter": {"q_regime": 1e300}},
     "trafficfuse: error: config: q_regime 1e+300: log-space spread 1e+150 exceeds 17.74"),
    ({"filter": {"init_base_sd": 1e300}},
     "trafficfuse: error: config: init_base_sd 1e+300: log-space spread 1e+300 exceeds 17.74"),
    ({"filter": {"init_glob_sd": 1e300}},
     "trafficfuse: error: config: init_glob_sd 1e+300: log-space spread 1e+300 exceeds 17.74"),
    # camera segments are checked against the twin in build; the chain twin
    # validates at segment 3 unless the config says otherwise
    ({"cameras_calibration": [3]}, "trafficfuse: error: build: calibration and validation cameras overlap: [3]"),
    ({"cameras_calibration": [9]}, "trafficfuse: error: build: camera segment 9 outside the network"),
])
def test_cli_reports_a_bad_config_in_one_line(tmp_path, capsys, edit, line):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**small_config().to_dict(), **edit}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


# the keys of the values no experiment varies, each with the value it held
# as a config field; each now lives in one place in the code
FIXED_KEYS = [
    (None, "start", "2024-03-04T00:00:00"), (None, "penetration_base", 0.1),
    (None, "penetration_hour_amplitude", 0.4), (None, "penetration_day_weekend", 0.85),
    (None, "train_lr", 1e-3), (None, "train_days", 10), (None, "gamma_pd", 0.8), (None, "diffusion_s", 0.1),
    (None, "confidence_decay", 0.999), (None, "burn_days", 1), ("model", "ln_eps", 1e-5),
    ("model", "tau_b_coeff", 0.01), ("model", "lambda_mae", 1.0), ("model", "lambda_nll", 1.0),
    ("model", "lambda_cons", 1.0), ("model", "lambda_cap", 1.0), ("filter", "eps", 1.0),
]


FLOAT_KEYS = [
    (section, f.name)
    for section, cls in ((None, ExperimentConfig), ("model", ModelConfig), ("filter", ensrf.FilterConfig))
    for f in fields(cls) if f.type == "float"
]
# the float fields since fixed in code keep their cases, as the explicit
# cases above do: a config that sets one now fails at load as an unknown key
FIXED_FLOAT_KEYS = [(s, k) for s, k, v in FIXED_KEYS if isinstance(v, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS + FIXED_FLOAT_KEYS,
                         ids=[f"{s or 'experiment'}.{k}" for s, k in FLOAT_KEYS + FIXED_FLOAT_KEYS])
def test_cli_rejects_every_non_finite_number_at_load(tmp_path, capsys, monkeypatch, section, key, value):
    # json writes and reads these as NaN, Infinity and -Infinity
    monkeypatch.setattr(cli, "Pipeline", lambda cfg: pytest.fail(f"{key}={value} loaded"))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("trafficfuse: error: config: ")
    if (section, key) in FIXED_FLOAT_KEYS:
        assert err[0].endswith(f": unknown {section or 'experiment'} config keys: {key}")
    else:
        assert f" {key} " in err[0]


@pytest.mark.parametrize("section, key, value", FIXED_KEYS, ids=[f"{s or 'experiment'}.{k}" for s, k, _ in FIXED_KEYS])
def test_cli_rejects_a_fixed_value_as_an_unknown_key(tmp_path, capsys, monkeypatch, section, key, value):
    monkeypatch.setattr(cli, "Pipeline", lambda cfg: pytest.fail(f"{key}={value} loaded"))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    where = section or "experiment"
    assert capsys.readouterr().err == f"trafficfuse: error: config: unknown {where} config keys: {key}\n"


def test_cli_reports_a_count_too_large_to_sample_in_one_line(tmp_path, capsys):
    # 1e300 vehicles at the peak overflow an int64 count: sample names the
    # cell before a cast that would warn and wrap
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({**small_config().to_dict(), "demand_peak": 1e300}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("trafficfuse: error: sample: "), err
    assert "too large to sample" in err[0]


@pytest.mark.parametrize("text, kind", [("[]", "list"), ("[1]", "list"), ("5", "int"), ("null", "NoneType"),
                                        ('"abc"', "str")])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text, kind):
    config = tmp_path / "experiment.json"
    config.write_text(text)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"trafficfuse: error: config: experiment config must be a JSON object, not {kind}\n"
    assert captured.out == ""


def test_a_config_with_a_byte_order_mark_loads(tmp_path):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(small_config().to_dict()), encoding="utf-8-sig")
    assert load_config(str(config)) == small_config()


def test_cli_reports_an_output_directory_below_a_file(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert cli.main(["run", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"trafficfuse: error: write: [Errno 20] Not a directory: '{out}'\n"


def test_a_run_without_calibration_cameras_fails_before_training(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: calls.append(args))
    save_network(chain_network()[0], str(tmp_path / "net"))
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"twin": None, "network_path": str(tmp_path / "net")}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "trafficfuse: error: calibrate: no calibration cameras configured\n"
    assert calls == []


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
