"""Model configurations — Tables III and IV of the paper.

:data:`PAPER_CONFIGS` reproduces Table III verbatim (grid sizes and the
barotropic/baroclinic/tracer time steps).  :data:`WEAK_SCALING_CONFIGS`
reproduces Table IV (the six weak-scaling problem sizes with fixed 80
levels and 2/20/20 s steps).

The paper's grids are far beyond a laptop: ``demo()`` returns sizes the
test-suite integrates in seconds; the instrumented per-gridpoint counts
measured there are exact at full scale because every kernel is
resolution-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    """One LICOMK++ configuration.

    Attributes mirror Table III: horizontal grid ``nx x ny``, vertical
    levels ``nz``, and the three time steps [s] for the barotropic,
    baroclinic and tracer subsystems.
    """

    name: str
    resolution_km: float
    nx: int
    ny: int
    nz: int
    dt_barotropic: float
    dt_baroclinic: float
    dt_tracer: float
    full_depth: bool = False

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 4 or self.nz < 1:
            raise ConfigurationError(f"config {self.name}: grid too small")
        if min(self.dt_barotropic, self.dt_baroclinic, self.dt_tracer) <= 0:
            raise ConfigurationError(f"config {self.name}: time steps must be positive")
        if self.dt_baroclinic % self.dt_barotropic:
            raise ConfigurationError(
                f"config {self.name}: baroclinic step must be a multiple of "
                "the barotropic step (split-explicit subcycling)"
            )

    @property
    def grid_points(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def horizontal_points(self) -> int:
        return self.nx * self.ny

    @property
    def barotropic_substeps(self) -> int:
        return int(round(self.dt_baroclinic / self.dt_barotropic))

    @property
    def steps_per_day(self) -> int:
        return int(round(86400.0 / self.dt_baroclinic))


#: Table III — the four configurations of the paper.
PAPER_CONFIGS: Dict[str, ModelConfig] = {
    "coarse_100km": ModelConfig(
        name="coarse_100km", resolution_km=100.0,
        nx=360, ny=218, nz=30,
        dt_barotropic=120.0, dt_baroclinic=1440.0, dt_tracer=1440.0,
    ),
    "eddy_10km": ModelConfig(
        name="eddy_10km", resolution_km=10.0,
        nx=3600, ny=2302, nz=55,
        dt_barotropic=9.0, dt_baroclinic=180.0, dt_tracer=180.0,
    ),
    "km_2km_fulldepth": ModelConfig(
        name="km_2km_fulldepth", resolution_km=2.0,
        nx=18000, ny=11511, nz=244,
        dt_barotropic=2.0, dt_baroclinic=20.0, dt_tracer=20.0,
        full_depth=True,
    ),
    "km_1km": ModelConfig(
        name="km_1km", resolution_km=1.0,
        nx=36000, ny=22018, nz=80,
        dt_barotropic=2.0, dt_baroclinic=20.0, dt_tracer=20.0,
    ),
}

#: Table IV — the six weak-scaling problem sizes (fixed 80 levels,
#: fixed 2/20/20 s time steps) with the paper's resource counts.
WEAK_SCALING_CONFIGS: Tuple[Tuple[ModelConfig, int, int], ...] = tuple(
    (
        ModelConfig(
            name=f"weak_{label}", resolution_km=res,
            nx=nx, ny=ny, nz=80,
            dt_barotropic=2.0, dt_baroclinic=20.0, dt_tracer=20.0,
        ),
        gpus,
        sunway_cores,
    )
    for label, res, nx, ny, gpus, sunway_cores in (
        ("10km", 10.0, 3600, 2302, 160, 404625),
        ("6.66km", 6.66, 5400, 3453, 360, 910780),
        ("5km", 5.0, 7200, 4605, 640, 1608750),
        ("3.33km", 3.33, 10800, 6907, 1440, 3612375),
        ("2km", 2.0, 18000, 11511, 4000, 10042500),
        ("1km", 1.0, 36000, 22018, 15360, 38366250),
    )
)


def demo(size: str = "small", full_depth: bool = False) -> ModelConfig:
    """Laptop-scale demo configurations used by tests and examples.

    ``tiny``  — 24 x 16 x 4   (seconds to step; unit tests)
    ``small`` — 48 x 30 x 6   (integration tests, quickstart)
    ``medium``— 90 x 54 x 10  (examples, science-shape runs; ~4 deg)
    ``large`` — 180 x 109 x 20 (longer demos; ~2 deg)
    """
    presets = {
        "tiny": (24, 16, 4, 1200.0, 7200.0),
        "small": (48, 30, 6, 600.0, 7200.0),
        "medium": (90, 54, 10, 300.0, 3600.0),
        "large": (180, 109, 20, 120.0, 1440.0),
    }
    if size not in presets:
        raise ConfigurationError(f"unknown demo size {size!r}; choose from {sorted(presets)}")
    nx, ny, nz, dt_b, dt_c = presets[size]
    return ModelConfig(
        name=f"demo_{size}",
        resolution_km=40000.0 / nx,
        nx=nx, ny=ny, nz=nz,
        dt_barotropic=dt_b, dt_baroclinic=dt_c, dt_tracer=dt_c,
        full_depth=full_depth,
    )
