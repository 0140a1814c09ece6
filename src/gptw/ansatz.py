"""Initial fields: constants, exact plane waves, vortex test functions,
band-limited random perturbations.

The vortex test function is the classical construction that drives the
negative-action existence mechanism: a vortex/antivortex pair (N=2) or a
vortex ring (N=3) of radius R transverse to the traveling direction, blended
to the constant 1 by a compactly supported cutoff. Its kinetic energy grows
like R^(N-2) log R while the momentum grows like R^(N-1), so the action
E - c P turns negative for large R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ComplexField, TorusGrid, fft_inverse, l2_norm


class NoSuchSolution(ValueError):
    """Requested plane wave has nonpositive squared amplitude."""


class SupportTooLarge(ValueError):
    """The compactly supported vortex field does not fit in one cell."""


@dataclass(frozen=True)
class VortexAnsatz:
    """Geometry of the vortex test function.

    half_separation R: pair at transverse offsets +-R (N=2) or ring radius R
    in the x1 = 0 plane with axis x1 (N=3). The field is exactly 1 outside
    the ball of radius cutoff_outer around the cell center.
    """

    half_separation: float
    core_width: float = 1.0
    cutoff_inner: float | None = None
    cutoff_outer: float | None = None

    def __post_init__(self):
        if self.half_separation < 2:
            raise ValueError(f"half separation must be >= 2, got {self.half_separation}")
        if self.core_width <= 0:
            raise ValueError("core width must be positive")
        inner = 3.0 * self.half_separation if self.cutoff_inner is None else float(self.cutoff_inner)
        outer = 4.0 * self.half_separation if self.cutoff_outer is None else float(self.cutoff_outer)
        object.__setattr__(self, "cutoff_inner", inner)
        object.__setattr__(self, "cutoff_outer", outer)
        if not inner > 2.0 * self.half_separation:
            raise ValueError(
                f"cutoff_inner {inner} must exceed twice the half separation "
                f"{2 * self.half_separation}"
            )
        if not outer > inner:
            raise ValueError(f"cutoff_outer {outer} must exceed cutoff_inner {inner}")


# Share of the period that the support diameter of a fitted ansatz may use.
FIT_MARGIN = 0.98


def fitted_vortex_ansatz(R: float, period: float) -> VortexAnsatz:
    """Ansatz with the default 3R/4R cutoffs when they fit the cell, else the
    widest legal cutoffs. Raises SupportTooLarge when no legal choice exists
    (needs period > 4R)."""
    if 8.0 * R < FIT_MARGIN * period:
        return VortexAnsatz(R)
    outer = FIT_MARGIN * period / 2.0
    inner = max(2.04 * R, 0.8 * outer)
    if not (outer > inner > 2.0 * R):
        raise SupportTooLarge(
            f"no admissible cutoffs for R={R} on period {period} (need T > 4R)"
        )
    return VortexAnsatz(R, cutoff_inner=inner, cutoff_outer=outer)


def constant(theta: float, grid: TorusGrid) -> ComplexField:
    """The constant solution exp(i*theta)."""
    values = np.full(grid.sizes, np.exp(1j * theta), dtype=np.complex128)
    return ComplexField(grid, values)


def plane_wave(k: int, c: float, grid: TorusGrid) -> ComplexField:
    """Exact traveling-wave solution rho*exp(i*alpha*x1), alpha = 2*pi*k/T.

    With beta = alpha^2 + c*alpha the amplitude is rho = sqrt(1 - beta);
    requires beta < 1.
    """
    alpha = 2.0 * np.pi * k / grid.period
    beta = alpha**2 + c * alpha
    if beta >= 1.0:
        raise NoSuchSolution(
            f"k={k}, c={c}, T={grid.period}: beta = {beta:.6g} >= 1, amplitude would vanish"
        )
    rho = np.sqrt(1.0 - beta)
    x1 = grid.coords[0]
    values = rho * np.exp(1j * alpha * x1) * np.ones(grid.sizes)
    return ComplexField(grid, values)


def plane_wave_action_density(k: int, c: float, period: float) -> float:
    """Closed-form action per unit volume of the plane wave: beta/2 - beta^2/4."""
    alpha = 2.0 * np.pi * k / period
    beta = alpha**2 + c * alpha
    return beta / 2.0 - beta**2 / 4.0


def _core_profile(r: np.ndarray) -> np.ndarray:
    """Pade approximant r/sqrt(r^2 + 2) of the vortex amplitude profile."""
    return r / np.sqrt(r**2 + 2.0)


def _smoothstep5(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (t * (6.0 * t - 15.0) + 10.0)


def vortex_test_function(a: VortexAnsatz, grid: TorusGrid) -> ComplexField:
    """1 + w_R: vortex pair/ring at the cell center, extended periodically.

    Requires period > 2*cutoff_outer so the support fits one cell. The phase
    orientation is chosen so the momentum along x1 is positive.
    """
    if grid.period <= 2.0 * a.cutoff_outer:
        raise SupportTooLarge(
            f"support diameter {2 * a.cutoff_outer} does not fit period {grid.period}"
        )
    half = grid.period / 2.0
    R = a.half_separation
    w = a.core_width
    y = [grid.coords[ax] - half for ax in range(grid.dim)]
    if grid.dim == 2:
        y1, y2 = y
        sigma = y2 + np.zeros_like(y1)
    else:
        y1 = y[0]
        sigma = np.sqrt(y[1] ** 2 + y[2] ** 2) + np.zeros_like(y[0])
    d_core = np.sqrt(y1**2 + (sigma - R) ** 2)
    d_image = np.sqrt(y1**2 + (sigma + R) ** 2)
    modulus = _core_profile(d_core / w) * _core_profile(d_image / w)
    phase = np.arctan2(y1, sigma - R) - np.arctan2(y1, sigma + R)
    core_field = modulus * np.exp(1j * phase)
    r2 = np.zeros(grid.sizes)
    for ax in range(grid.dim):
        r2 = r2 + y[ax] ** 2
    blend = _smoothstep5((np.sqrt(r2) - a.cutoff_inner) / (a.cutoff_outer - a.cutoff_inner))
    values = (1.0 - blend) * core_field + blend
    return ComplexField(grid, values)


def perturb(f: ComplexField, amplitude: float, band: int, seed: int) -> ComplexField:
    """Add a seeded band-limited random field with L2 norm amplitude*T^(N/2).

    Modes with |k_i| <= band on every axis receive independent complex
    Gaussian coefficients; the result is deterministic per seed.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if band < 1:
        raise ValueError("band must be >= 1")
    if amplitude == 0.0:
        return f
    grid = f.grid
    if any(band >= m // 2 for m in grid.sizes):
        raise ValueError(f"band {band} too wide for grid sizes {grid.sizes}")
    rng = np.random.default_rng(seed)
    width = 2 * band + 1
    block = rng.standard_normal((width,) * grid.dim) + 1j * rng.standard_normal((width,) * grid.dim)
    spec = np.zeros(grid.sizes, dtype=np.complex128)
    offsets = np.arange(-band, band + 1)
    idx = np.ix_(*[offsets % m for m in grid.sizes])
    spec[idx] = block
    bump = ComplexField(grid, fft_inverse(spec))
    norm = l2_norm(bump)
    scale = amplitude * grid.period ** (grid.dim / 2.0) / norm
    return f.with_values(f.values + scale * bump.values)
