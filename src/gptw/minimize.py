"""Action descent to critical points and their classification.

The optimizer is nonlinear conjugate gradient (Polak-Ribiere with restarts)
preconditioned by the inverse Helmholtz operator (1 - Lap)^(-1) in spectral
space. The action restricted to a ray is a quartic polynomial, so each line
search steps to its exact minimum (Kernel.ray_coefficients, ray_minimum).
A step is accepted when it raises the action by at most 1e-14 * (1 + |I|),
an allowance for rounding in the flat steps near convergence, so descent
started clearly below the zero action level of the modulus-one constants can
only end at a nonconstant critical point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .ansatz import fitted_vortex_ansatz, vortex_test_function
from .field import ComplexField, TorusGrid, axis_windings, lift
from .field import VortexPresent, InconsistentWinding
from .functionals import ActionReport, Certificate, Kernel, Params, action, certify

ZERO_CONSTANT = "ZeroConstant"
UNIT_CONSTANT = "UnitConstant"
PLANE_WAVE = "PlaneWave"
VORTEXFUL = "Vortexful"
OTHER_NONCONSTANT = "OtherNonconstant"

CONSTANT_CLASSES = (ZERO_CONSTANT, UNIT_CONSTANT)

# Sup-norm tolerance of the constancy tests in classify.
CLASS_TOL = 1e-6
# The conjugate-gradient direction restarts from steepest descent this often.
RESTART_EVERY = 100


class NonFiniteValue(RuntimeError):
    """The iterate left the finite floating-point range."""


@dataclass
class MinimizeOptions:
    """Knobs for minimize_action.

    grad_tol of None means the volume-scaled default 1e-8 * T^(N/2). When
    log_stream is set, every accepted iteration writes one line
    "iteration action residual" to it.
    """

    max_iters: int = 50000
    grad_tol: float | None = None
    log_stream: TextIO | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class CriticalPoint:
    """A converged (or best-so-far) field with its diagnostics."""

    field: ComplexField
    report: ActionReport
    residual: float
    classification: str
    certificate: Certificate
    converged: bool
    iterations: int


def default_grad_tol(grid: TorusGrid) -> float:
    """Residual target 1e-8 * T^(N/2); the L2 residual scales like sqrt(volume)."""
    return 1e-8 * grid.period ** (grid.dim / 2.0)


def minimize_action(init: ComplexField, p: Params, opts: MinimizeOptions | None = None) -> CriticalPoint:
    """Descend the action from `init` until the L2 residual meets grad_tol.

    Each step goes to the exact minimum of the quartic ray restriction of
    the action, along the conjugate direction or, when that is no descent,
    along steepest descent. Returns the converged critical point, or the
    last iterate with converged=False after max_iters or when neither
    direction lowers the action (no descent at rounding level). An
    accepted step never raises the action by more than 1e-14 * (1 + |I|),
    the rounding allowance of the acceptance test. Raises NonFiniteValue if
    the action or gradient overflows at an accepted iterate.
    """
    opts = opts or MinimizeOptions()
    grid = init.grid
    tol = opts.grad_tol if opts.grad_tol is not None else default_grad_tol(grid)
    eng = Kernel(grid, p)
    log = opts.log_stream

    f = init.values.copy()
    val = eng.action(f)
    if not np.isfinite(val):
        raise NonFiniteValue(f"action not finite at the initial field ({val})")
    g = eng.gradient(f)
    res = np.sqrt(eng.dot(g, g))
    z = eng.precondition(g)
    gz = eng.dot(g, z)
    d = -z
    iters = 0
    converged = res <= tol
    steepest = True

    def search(direction):
        """Exact minimum of the quartic ray restriction along `direction`;
        returns (alpha, value), or None when it does not lower the action."""
        alpha = eng.ray_minimum(eng.ray_coefficients(f, direction))
        if alpha is None:
            return None
        tv = eng.action(f + alpha * direction)
        if np.isfinite(tv) and tv <= val + 1e-14 * (1.0 + abs(val)):
            return alpha, tv
        return None

    while not converged and iters < opts.max_iters:
        if eng.dot(g, d) >= 0:
            d, steepest = -z, True
        hit = search(d)
        if hit is None and not steepest:
            d, steepest = -z, True
            hit = search(d)
        if hit is None:
            break  # no descent possible at rounding level
        alpha, val = hit
        f = f + alpha * d
        if not np.all(np.isfinite(f.view(np.float64))):
            raise NonFiniteValue("iterate left the finite range")
        g_new = eng.gradient(f)
        res = np.sqrt(eng.dot(g_new, g_new))
        z_new = eng.precondition(g_new)
        gz_new = eng.dot(g_new, z_new)
        iters += 1
        if log is not None:
            log.write(f"{iters} {val:.17g} {res:.17g}\n")
        if res <= tol:
            converged = True
            break
        # Preconditioned Polak-Ribiere with nonnegativity restart.
        beta = eng.dot(g_new - g, z_new) / gz if gz > 0 else 0.0
        beta = max(beta, 0.0)
        if iters % RESTART_EVERY == 0:
            beta = 0.0
        d = -z_new + beta * d
        steepest = beta == 0.0
        g, z, gz = g_new, z_new, gz_new

    final = ComplexField(grid, f)
    return _finalize(final, p, converged, iters)


def _finalize(field: ComplexField, p: Params, converged: bool, iters: int) -> CriticalPoint:
    rep = action(field, p)
    cert = certify(field, p)
    cls = classify(field)
    return CriticalPoint(
        field=field,
        report=rep,
        residual=cert.residual,
        classification=cls,
        certificate=cert,
        converged=converged,
        iterations=iters,
    )


def classify(f: ComplexField) -> str:
    """Bucket a field by its constancy structure, to sup-norm CLASS_TOL.

    Order of the tie-breaking tests: ZeroConstant, UnitConstant, PlaneWave,
    Vortexful, OtherNonconstant.
    """
    v = f.values
    mod = np.abs(v)
    if float(mod.max()) <= CLASS_TOL:
        return ZERO_CONSTANT
    mean = v.mean()
    if float(np.abs(v - mean).max()) <= CLASS_TOL and float(np.abs(mod - 1.0).max()) <= CLASS_TOL:
        return UNIT_CONSTANT
    mod_variation = float(mod.max() - mod.min())
    if mod_variation <= CLASS_TOL:
        windings, dev = axis_windings(f)
        if dev <= 1e-3 and any(windings):
            return PLANE_WAVE
    try:
        lift(f)
    except (VortexPresent, InconsistentWinding):
        return VORTEXFUL
    return OTHER_NONCONSTANT


def minimizer_experiment(c: float, T: float, resolution: int, R: float,
                         init: ComplexField | None = None,
                         opts: MinimizeOptions | None = None,
                         dim: int = 2) -> tuple[CriticalPoint, dict]:
    """Minimize from the vortex test function 1 + w_R (or a caller-supplied
    init) and summarize the outcome as a CSV-ready row."""
    grid = TorusGrid((resolution,) * dim, T)
    p = Params(c=c)
    if init is None:
        ans = fitted_vortex_ansatz(R, T)
        init = vortex_test_function(ans, grid)
    elif init.grid != grid:
        raise ValueError("init field lives on a different grid")
    point = minimize_action(init, p, opts)
    row = {
        "c": c,
        "T": T,
        "action": point.report.action,
        "residual": point.residual,
        "classification": point.classification,
    }
    return point, row
