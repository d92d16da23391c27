"""Network-wide traffic volume estimation from sparse probe counts.

The package chains a cell-transmission traffic model, a spatiotemporal
graph predictor trained on probe-derived counts, and an ensemble
square-root calibration filter that maps predictor counts onto camera
ground truth and propagates the correction along the flow graph. Names
are imported from their modules, for example
``from trafficfuse.harness import run_pipeline``.
"""

__version__ = "0.1.0"
