"""Assimilate camera counts on the chain twin and inspect what the filter learns."""

import numpy as np

from trafficfuse.harness import PENETRATION_BASE, PENETRATION_HOUR_AMPLITUDE, ExperimentConfig, Pipeline


def main():
    cfg = ExperimentConfig(twin="chain", days=7, forecast_days=2, train_steps=250, seed=3)
    pipe = Pipeline(cfg).metrics()

    # probes see ~10% of traffic, so the camera-anchored multiplier should
    # land near 1 / 0.10
    diag = pipe.diagnostics
    print(f"warm-start multiplier {diag['alpha_star']:.2f} "
          f"(true scale-up {1.0 / PENETRATION_BASE:.1f})")

    # hour-of-day globals should mirror the penetration modulation: probes
    # over-sample the evening, so the multiplier must dip there
    hours = np.arange(24)
    true_pat = -np.log(1.0 + PENETRATION_HOUR_AMPLITUDE * np.sin(2 * np.pi * (hours - 16) / 24.0))
    true_pat -= true_pat.mean()
    learned = pipe.ensemble.hour.mean(axis=0)
    learned -= learned.mean()
    corr = np.corrcoef(learned, true_pat)[0, 1]
    print(f"hour pattern: correlation {corr:.2f}, "
          f"amplitude {learned.std():.3f} vs true {true_pat.std():.3f}")

    rep, unc = pipe.report, pipe.uncal_report
    for loc, m in rep.per_location.items():
        print(f"held-out camera {loc}: mae {unc.per_location[loc].mae:.1f} -> {m.mae:.1f}, "
          f"r2 {m.r2:.3f}")
    print(f"{cfg.interval:.0%} interval coverage {rep.coverage:.3f} on {rep.n_points} bins")

    widths = diag["far_width_daily"]
    if widths:
        print("forecast-day band widths:", ", ".join(f"{w:.3f}" for w in widths))
    else:
        lo, hi = pipe.intervals
        t = pipe.t_assim
        rel = (hi[:, t:] - lo[:, t:]) / np.maximum(pipe.calibrated.values[:, t:], 1.0)
        print(f"median relative band width over the forecast window {np.nanmedian(rel):.2f}")


if __name__ == "__main__":
    main()
