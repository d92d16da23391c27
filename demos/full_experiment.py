"""End-to-end twin experiment on the grid, sized down to run in under a minute."""

import os
import tempfile

from trafficfuse.harness import ExperimentConfig, run_pipeline


def main():
    out = tempfile.mkdtemp(prefix="trafficfuse_demo_")
    cfg = ExperimentConfig(twin="grid", days=7, forecast_days=2, train_steps=300, seed=0)
    res = run_pipeline(cfg, out_dir=out)

    print(f"{cfg.twin} twin, {cfg.days} assimilated days + {cfg.forecast_days} forecast days")
    print(f"{'camera':>8} {'mae raw':>9} {'mae cal':>9} {'r2':>6} {'r':>6}")
    for loc, m in sorted(res.report.per_location.items()):
        u = res.uncal_report.per_location[loc]
        print(f"{loc:>8} {u.mae:>9.1f} {m.mae:>9.1f} {m.r2:>6.3f} {m.r:>6.3f}")
    d = res.diagnostics
    print(f"pooled r2 {res.report.pooled_r2:.3f}, coverage {res.report.coverage:.3f}, "
          f"mae improvement {d['improvement_mae']:.1%}")
    print(f"far segments untouched by analysis: {d['far_segments']} "
          f"(max base change {d['far_base_change']:.1e})")

    print(f"\nartifacts in {out}:")
    for name in sorted(os.listdir(out)):
        size = os.path.getsize(os.path.join(out, name))
        print(f"  {name:<24} {size:>9,} bytes")


if __name__ == "__main__":
    main()
