"""The four-tier fog-computing model (Sec. II-B-1, Fig. 3).

This package turns a trained early-exit model plus a simulated network
topology into end-to-end latency/throughput numbers:

- :mod:`repro.fog.split` — describe a model as a chain of stages (FLOPs,
  activation bytes, optional exit head) and place stages onto machines;
- :mod:`repro.fog.policies` — exit policies (score/entropy thresholds) and
  the batched call that runs a model under one;
- :mod:`repro.fog.pipeline` — analytic per-item cost accounting and a
  discrete-event stream simulation with queueing at every machine.
"""

from repro.fog.split import (
    PlacementError,
    Stage,
    TierPlacement,
    materialize_stages,
    model_split_from_early_exit,
    place_bottom_up,
    place_all_on,
)
from repro.fog.policies import (
    EntropyThresholdPolicy,
    ExitPolicy,
    ScoreThresholdPolicy,
    run_policy_batched,
)
from repro.fog.pipeline import (
    FailureSpec,
    FaultPolicy,
    FogPipeline,
    ItemCost,
    StreamStats,
    simulate_shared_streams,
)
from repro.fog.deployment import TwoTierDeployment, split_state_dict

__all__ = [
    "Stage", "TierPlacement", "PlacementError",
    "model_split_from_early_exit", "materialize_stages",
    "place_bottom_up", "place_all_on",
    "ExitPolicy", "ScoreThresholdPolicy", "EntropyThresholdPolicy",
    "run_policy_batched",
    "FogPipeline", "ItemCost", "StreamStats", "simulate_shared_streams",
    "FailureSpec", "FaultPolicy",
    "TwoTierDeployment", "split_state_dict",
]
