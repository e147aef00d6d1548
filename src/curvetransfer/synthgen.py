"""Seeded synthetic stress-strain dataset generator.

Produces the qualitative curve families seen in tensile testing of printed
polymers and metals, so the full selection/transfer pipeline can be exercised
and verified without proprietary measurement data. Shapes are artifact
choices; only their qualitative ordering matters (same family => similar
normalized shape, different family => dissimilar).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .curves import Dataset, ParamField, RawCurve
from .errors import DataValidationError
from .scaling import FeatureScaler

FAMILIES = ("plateau", "hardening", "yield_drop", "brittle")

# Per-sample DOE modifier is clipped so scaled stress/strain stay positive.
_MODIFIER_LIMIT = 0.6


@dataclass(frozen=True)
class FamilySpec:
    """Shape parameters for one synthetic curve family.

    The elastic segment runs at ``base_modulus`` up to ``yield_strain``
    (yield stress = modulus * yield strain). ``ultimate_stress`` is the
    post-yield target level: the asymptote (plateau), the end stress
    (hardening), or the softened plateau below the peak (yield_drop);
    brittle curves stay on the elastic line to fracture.
    ``param_sensitivity`` maps process-parameter names to coefficients that
    scale stress magnitude, failure strain, and yield strain per DOE point.
    """

    family: str
    base_modulus: float
    yield_strain: float
    ultimate_stress: float
    failure_strain: float
    param_sensitivity: dict[str, float] = field(default_factory=dict)
    noise_sd: float = 0.0
    points_per_curve: int = 60

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.base_modulus <= 0:
            raise DataValidationError(f"base_modulus must be positive, got {self.base_modulus}")
        if not 0 < self.yield_strain < self.failure_strain:
            raise DataValidationError(
                f"need 0 < yield_strain < failure_strain, got {self.yield_strain} / {self.failure_strain}"
            )
        if self.noise_sd < 0:
            raise DataValidationError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.points_per_curve < 2:
            raise DataValidationError(f"points_per_curve must be >= 2, got {self.points_per_curve}")
        yield_stress = self.base_modulus * self.yield_strain
        if self.family in ("plateau", "hardening") and self.ultimate_stress <= yield_stress:
            raise DataValidationError(
                f"{self.family}: ultimate_stress {self.ultimate_stress} must exceed "
                f"yield stress {yield_stress}"
            )
        if self.family == "yield_drop" and not 0 < self.ultimate_stress < yield_stress:
            raise DataValidationError(
                f"yield_drop: plateau level {self.ultimate_stress} must lie below "
                f"yield stress {yield_stress}"
            )


def _post_yield_stress(spec: FamilySpec, u: np.ndarray, yield_stress: float) -> np.ndarray:
    """Stress beyond yield as a function of u = (strain - yield) / (failure - yield) in [0, 1]."""
    if spec.family == "plateau":
        # Saturating exponential toward the ultimate stress.
        return yield_stress + (spec.ultimate_stress - yield_stress) * (1.0 - np.exp(-3.0 * u))
    if spec.family == "hardening":
        # Concave power-law rise reaching the ultimate stress at failure.
        return yield_stress + (spec.ultimate_stress - yield_stress) * u ** 0.6
    if spec.family == "yield_drop":
        # Exponential drop onto a plateau plus a damped sinusoid around it.
        plateau = spec.ultimate_stress
        drop = plateau + (yield_stress - plateau) * np.exp(-6.0 * u)
        wiggle = 0.20 * yield_stress * np.sin(6.0 * np.pi * u) * np.exp(-1.0 * u)
        return drop + wiggle
    # brittle: continue the elastic line to fracture.
    strain = spec.yield_strain + u * (spec.failure_strain - spec.yield_strain)
    return spec.base_modulus * strain


def _doe_points(doe: dict[str, list[float]]) -> list[dict[str, float]]:
    names = list(doe.keys())
    combos = itertools.product(*(doe[name] for name in names))
    return [dict(zip(names, map(float, combo))) for combo in combos]


def generate_dataset(
    spec: FamilySpec,
    doe: dict[str, list[float]],
    seed: int,
    name: str = "synthetic",
    role: str = "source",
    units: dict[str, str] | None = None,
) -> Dataset:
    """One curve per full-factorial DOE point, deterministic per seed.

    A ``scaling.FeatureScaler`` per parameter places each DOE point among its
    levels; with ``param_sensitivity`` the positions sum into a modifier m: the
    stress scales by 1 + m, the failure strain by 1 + m/2, the yield strain by 1 + m/4.
    All curves are computed as one (curves, points) block; each curve's
    noise stream derives from (seed, curve index) alone, so generation is
    order-independent.
    """
    if not doe or any(len(levels) == 0 for levels in doe.values()):
        raise DataValidationError("DOE must declare at least one level per parameter")
    units = units or {}
    schema = [ParamField(pname, units.get(pname, "-")) for pname in doe]
    points = _doe_points(doe)
    m = np.zeros(len(points))
    for pname, levels in doe.items():
        scaled = FeatureScaler(pname, min(levels), max(levels)).scale([p[pname] for p in points])
        m += spec.param_sensitivity.get(pname, 0.0) * (scaled - 0.5)
    # One (C, 1) column per curve quantity; each curve is a row of the (C, P) blocks below.
    m = np.clip(m, -_MODIFIER_LIMIT, _MODIFIER_LIMIT)[:, None]
    yield_strain = spec.yield_strain * (1.0 + 0.25 * m)
    failure_strain = spec.failure_strain * (1.0 + 0.5 * m)
    # linspace over the (C,) stops puts the curve axis first; the rows are copied contiguous.
    strain = np.ascontiguousarray(np.linspace(0.0, failure_strain[:, 0], spec.points_per_curve, axis=1))
    stress = np.where(
        strain <= yield_strain,
        spec.base_modulus * strain,
        _post_yield_stress(
            spec,
            np.clip((strain - yield_strain) / (failure_strain - yield_strain), 0.0, 1.0),
            spec.base_modulus * yield_strain,
        ),
    )
    scale = 1.0 + m
    stress *= scale
    if spec.noise_sd > 0:
        for idx, row in enumerate(stress):
            row += np.random.default_rng([seed, idx]).normal(
                0.0, spec.noise_sd * scale[idx, 0], size=spec.points_per_curve
            )
    np.maximum(stress, 0.0, out=stress)
    curves = [
        RawCurve(str(idx + 1), strain[idx], stress[idx], params) for idx, params in enumerate(points)
    ]
    return Dataset(name=name, role=role, param_schema=schema, curves=curves)


# Desk-scale analogs of the four printed polymers (sources) and the metals
# (targets) they transfer to. Matched source/target pairs share their
# normalized shape (same yield-strain fraction and stress ratios) at 10x the
# stress magnitude. Parameter effects are strong and partially cancel at the
# DOE corners, so predicting unseen parameter combinations requires the
# parameter response a rich source DOE teaches. DOE sizes: 5x5 per source,
# 3x3 per target.
_SOURCE_SPECS = {
    "poly_yield_drop": FamilySpec(
        family="yield_drop", base_modulus=3000.0, yield_strain=0.012,
        ultimate_stress=14.4, failure_strain=0.30,
        param_sensitivity={"print_speed": 0.45, "print_temp": -0.30},
        noise_sd=0.25, points_per_curve=45,
    ),
    "poly_hardening": FamilySpec(
        family="hardening", base_modulus=1800.0, yield_strain=0.020,
        ultimate_stress=53.0, failure_strain=0.06,
        param_sensitivity={"print_speed": 0.45, "print_temp": -0.30},
        noise_sd=0.35, points_per_curve=45,
    ),
    "poly_brittle": FamilySpec(
        family="brittle", base_modulus=6200.0, yield_strain=0.010,
        ultimate_stress=77.0, failure_strain=0.0125,
        param_sensitivity={"print_speed": 0.40, "print_temp": -0.25},
        noise_sd=0.40, points_per_curve=45,
    ),
    "poly_plateau": FamilySpec(
        family="plateau", base_modulus=2000.0, yield_strain=0.018,
        ultimate_stress=48.0, failure_strain=0.10,
        param_sensitivity={"print_speed": 0.45, "print_temp": -0.30},
        noise_sd=0.30, points_per_curve=45,
    ),
}

_SOURCE_DOE = {
    "print_speed": [10.0, 20.0, 30.0, 40.0, 50.0],
    "print_temp": [220.0, 230.0, 240.0, 250.0, 260.0],
}
_SOURCE_UNITS = {"print_speed": "mm/s", "print_temp": "C"}

_TARGET_SPECS = {
    "metal_plateau": FamilySpec(
        family="plateau", base_modulus=23529.4, yield_strain=0.0153,
        ultimate_stress=480.0, failure_strain=0.085,
        param_sensitivity={"laser_power": 0.50, "scan_speed": -0.35},
        noise_sd=3.0, points_per_curve=50,
    ),
    "metal_hardening": FamilySpec(
        family="hardening", base_modulus=21176.5, yield_strain=0.017,
        ultimate_stress=530.0, failure_strain=0.051,
        param_sensitivity={"laser_power": 0.50, "scan_speed": -0.35},
        noise_sd=3.5, points_per_curve=50,
    ),
    "metal_yield_drop": FamilySpec(
        family="yield_drop", base_modulus=26087.0, yield_strain=0.0138,
        ultimate_stress=144.0, failure_strain=0.345,
        param_sensitivity={"laser_power": 0.50, "scan_speed": -0.35},
        noise_sd=2.5, points_per_curve=50,
    ),
}

_TARGET_DOE = {
    "laser_power": [60.0, 260.0, 460.0],
    "scan_speed": [250.0, 1625.0, 3000.0],
}
_TARGET_UNITS = {"laser_power": "W", "scan_speed": "mm/s"}

GROUND_TRUTH = {
    "metal_plateau": "poly_plateau",
    "metal_hardening": "poly_hardening",
    "metal_yield_drop": "poly_yield_drop",
}


def standard_suite(seed: int) -> tuple[list[Dataset], list[Dataset], dict[str, str]]:
    """Four source datasets, three shape-matched metal-scale targets, and the match map.

    Targets are generated from the same family as exactly one source, at 10x
    the stress magnitude and with different process parameters, so DTW-based
    source selection has a known correct answer per target.
    """
    sources = [
        generate_dataset(spec, _SOURCE_DOE, seed + 1 + k, name=name, role="source",
                         units=_SOURCE_UNITS)
        for k, (name, spec) in enumerate(_SOURCE_SPECS.items())
    ]
    targets = [
        generate_dataset(spec, _TARGET_DOE, seed + 101 + k, name=name, role="target",
                         units=_TARGET_UNITS)
        for k, (name, spec) in enumerate(_TARGET_SPECS.items())
    ]
    return sources, targets, dict(GROUND_TRUTH)
