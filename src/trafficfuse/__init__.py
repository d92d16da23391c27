"""Network-wide traffic volume estimation from sparse probe counts.

The package chains a cell-transmission traffic model, a spatiotemporal
graph predictor trained on probe-derived counts, and an ensemble
square-root calibration filter that maps predictor counts onto camera
ground truth and propagates the correction along the flow graph.
"""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    CountMatrix,
    RoadNetwork,
    SchemaError,
    Segment,
    boundary_segments,
    load_counts,
    load_network,
    max_storage,
    save_counts,
    save_network,
)
from .ctm import (  # noqa: F401
    FdParams,
    SimulationResult,
    TrafficState,
    TurnRatios,
    default_fd_params,
    demand,
    density_from_speed,
    simulate,
    supply,
)
from .features import FeatureTensor, build_tensor, load_tensor  # noqa: F401
from .model import ModelConfig, forward, init_params, normalized_adjacency  # noqa: F401
from .train import TrainResult, build_windows, load_checkpoint, predict, save_checkpoint, train  # noqa: F401
from .ensrf import (  # noqa: F401
    CalibrationEnsemble,
    CameraObservation,
    FilterConfig,
    analysis_step,
    forecast_step,
    init_ensemble,
    regime_index,
    warmup_alpha,
)
from .propagation import (  # noqa: F401
    TransitionMatrix,
    build_transition,
    calibrate_counts,
    diffuse,
    localization_vectors,
    shrink_blend,
    update_confidence,
)
from .observability import (  # noqa: F401
    LinearSystem,
    ObservabilityReport,
    analyze,
    gramian,
    linearize,
    lyapunov_gramian,
    observability_rank,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    MetricsReport,
    PenetrationModel,
    Pipeline,
    PipelineError,
    PipelineResult,
    evaluate,
    load_config,
    pool_windows,
    run_pipeline,
    thin_counts,
)
