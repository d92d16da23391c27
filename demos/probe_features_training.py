"""Thin the truth to probe counts, build features, and fit the predictor."""

import numpy as np

from trafficfuse.features import FEATURE_NAMES
from trafficfuse.harness import ExperimentConfig, Pipeline
from trafficfuse.model import ModelConfig


def main():
    cfg = ExperimentConfig(
        twin="chain",
        days=3,
        demand_peak=500.0,
        train_steps=150,
        model=ModelConfig(
            n_features=22, embed_dim=16, spatial_layers=1, temporal_blocks=1,
            heads=2, history=6, horizon=2, ffn_width=32,
        ),
        seed=5,
    )
    pipe = Pipeline(cfg)

    pipe.sample()
    truth = pipe.truth.values
    probe = pipe.probe.values
    kept = np.nansum(probe) / np.nansum(truth)
    print(f"probe thinning kept {kept:.1%} of {np.nansum(truth):.0f} vehicle-bins")

    pipe.features()
    t = pipe.tensor
    print(f"feature tensor {t.values.shape}, {t.n_imputed_count} imputed counts, "
          f"normalized from the first {pipe.train_bins} columns")
    print("feature names:", ", ".join(FEATURE_NAMES[:6]), "...")

    pipe.fit()
    first_val = pipe.trained.log[0][6]
    print(f"trained {pipe.trained.steps} steps, "
          f"val loss {first_val:.3f} -> {pipe.trained.best_val:.3f}")

    pipe.forecasts()
    seg = 2
    mask = np.isfinite(pipe.q_hat[seg])
    r = np.corrcoef(pipe.q_hat[seg][mask], probe[seg][mask])[0, 1]
    print(f"one-step forecasts at segment {seg} correlate {r:.3f} with the probe series")
    print("(the predictor works on probe scale; cameras set the absolute level later)")


if __name__ == "__main__":
    main()
