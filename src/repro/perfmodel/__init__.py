"""``repro.perfmodel`` — the machine model regenerating the evaluation."""

from .machines import MACHINES, MachineSpec, SUPPORT_MATRIX, get_machine, support_matrix_rows
from .kernelcost import DEFAULT_PROFILE, StepProfile, compute_time_per_step, measure_step_profile
from .network import (
    HALO,
    HaloCost,
    block_extents,
    comm_time_per_step,
    halo_update_cost,
    ledger_message_summary,
    ledger_wire_time,
    polar_fixed_cost,
)
from .aggregate import (
    aggregate,
    decomposition_load_imbalance,
    load_imbalance,
    measured_load_imbalance,
    rank_points,
)
from .breakdown import StepBreakdown, format_breakdown_table, step_breakdown
from .cpe_pipeline import PipelineEstimate, cpe_pipeline_time, double_buffer_speedup
from .related_work import RELATED_WORK, RelatedWorkPoint, kilometer_scale_realistic_leaders
from .scheduler import (
    JobQuote,
    PlatformOption,
    choose_platform,
    format_schedule,
    quote_job,
    throughput_options,
)
from .familycost import (
    DEFAULT_FAMILY_SHARES,
    FamilyShares,
    measure_family_shares,
    policy_halo_word,
    policy_profile,
)
from .scaling import (
    CANUTO_IMBALANCE,
    ScalingPoint,
    policy_projection,
    optimization_speedup,
    portability_sypd,
    predict_step_time,
    predict_sypd,
    strong_scaling,
    sypd_from_step_time,
    weak_scaling,
)

__all__ = [
    "MachineSpec", "MACHINES", "SUPPORT_MATRIX", "get_machine", "support_matrix_rows",
    "StepProfile", "DEFAULT_PROFILE", "measure_step_profile", "compute_time_per_step",
    "HaloCost", "halo_update_cost", "comm_time_per_step", "polar_fixed_cost",
    "block_extents", "HALO", "ledger_wire_time", "ledger_message_summary",
    "aggregate", "rank_points", "load_imbalance", "measured_load_imbalance",
    "decomposition_load_imbalance",
    "predict_sypd", "predict_step_time", "sypd_from_step_time",
    "strong_scaling", "weak_scaling", "ScalingPoint",
    "portability_sypd", "optimization_speedup", "CANUTO_IMBALANCE",
    "policy_projection",
    "FamilyShares", "DEFAULT_FAMILY_SHARES", "measure_family_shares",
    "policy_profile", "policy_halo_word",
    "StepBreakdown", "step_breakdown", "format_breakdown_table",
    "PipelineEstimate", "cpe_pipeline_time", "double_buffer_speedup",
    "PlatformOption", "choose_platform", "throughput_options", "format_schedule",
    "JobQuote", "quote_job",
    "RELATED_WORK", "RelatedWorkPoint", "kilometer_scale_realistic_leaders",
]
