"""``repro.ocean`` — the LICOM-like ocean general circulation model."""

from .config import (
    PAPER_CONFIGS,
    WEAK_SCALING_CONFIGS,
    ModelConfig,
    demo,
)
from .eos import density_linear
from .forcing import ForcingParams, SurfaceForcing, make_forcing
from .grid import EARTH_RADIUS, GRAVITY, OMEGA, Grid, make_grid, make_vertical_grid
from .localdomain import LocalDomain, local_with_halo, make_local_domain
from .diagnostics import (
    RossbyStats,
    SSTStats,
    relative_vorticity,
    rossby_number,
    rossby_stats,
    sst_stats,
    temperature_section,
)
from .model import LICOMKpp, ModelParams
from .precision import (
    FAMILIES,
    FIELD_FAMILIES,
    KERNEL_FAMILIES,
    PRESETS,
    PrecisionPolicy,
    resolve_precision,
)
from .restart import load_restart, save_restart
from .state import LeapfrogField, ModelState
from .topography import (
    MARIANA_DEPTH,
    Topography,
    bathymetry,
    land_mask,
    levels_from_depth,
    make_topography,
)
from .vmix_canuto import (
    CanutoMixFunctor,
    MIN_CANUTO_LEVELS,
    canuto_column_mask,
    stability_functions,
)

__all__ = [
    "ModelConfig", "PAPER_CONFIGS", "WEAK_SCALING_CONFIGS", "demo",
    "Grid", "make_grid", "make_vertical_grid", "EARTH_RADIUS", "GRAVITY", "OMEGA",
    "Topography", "make_topography", "land_mask", "bathymetry",
    "levels_from_depth", "MARIANA_DEPTH",
    "LocalDomain", "make_local_domain", "local_with_halo",
    "ModelState", "LeapfrogField",
    "LICOMKpp", "ModelParams",
    "PrecisionPolicy", "resolve_precision", "PRESETS",
    "FAMILIES", "FIELD_FAMILIES", "KERNEL_FAMILIES",
    "ForcingParams", "SurfaceForcing", "make_forcing",
    "density_linear",
    "CanutoMixFunctor", "canuto_column_mask", "stability_functions",
    "MIN_CANUTO_LEVELS",
    "relative_vorticity", "rossby_number", "rossby_stats", "RossbyStats",
    "sst_stats", "SSTStats", "temperature_section",
    "save_restart", "load_restart",
]
