"""Edge-offloading solvers, a learned offloading model, and a split-inference
cost simulator for two-tier vehicle/edge systems."""

__version__ = "0.1.0"

from .model import (
    CostWeights,
    EdgeParams,
    OffloadInstance,
    OffloadSolution,
    VehicleParams,
    generate_instances,
    local_cost,
    offload_cost,
    total_cost,
    uplink_rate,
)
from .solvers import (
    SbbConfig,
    SolveReport,
    optimal_allocation,
    solve_batch,
    solve_sbb,
)
from .mtl import EvalMetrics, MtlModel, TrainConfig, evaluate, infer_solution, train
from .split import (
    AccuracyModel,
    EtaSweepRecord,
    InferenceScenario,
    LayerProfile,
    best_split,
    eta_sweep,
    eta_sweep_csv,
    segment_cost,
    strategy_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
