"""Action descent to critical points and their classification.

The optimizer is nonlinear conjugate gradient (Polak-Ribiere with restarts)
with a backtracking Armijo line search, preconditioned by the inverse
Helmholtz operator (1 - Lap)^(-1) in spectral space. Accepted steps
never increase the action, so descent started below the zero action level of
the modulus-one constants can only end at a nonconstant critical point.
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


class NonFiniteValue(RuntimeError):
    """The iterate left the finite floating-point range."""


@dataclass
class MinimizeOptions:
    """Knobs for minimize_action.

    grad_tol of None means the volume-scaled default 1e-8 * T^(N/2).
    """

    max_iters: int = 50000
    grad_tol: float | None = None
    step0: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    max_backtracks: int = 40
    restart_every: int = 100
    exact_line_search: bool = True
    class_tol: float = 1e-6
    log_stream: TextIO | None = None
    log_every: int = 100

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if not (self.step0 > 0 and 0 < self.armijo < 1):
            raise ValueError("bad line search parameters")


@dataclass(frozen=True)
class CriticalPoint:
    """A converged (or best-so-far) field with its diagnostics."""

    field: ComplexField
    report: ActionReport
    residual: float
    classification: str
    windings: tuple[int, ...] | None
    certificate: Certificate
    converged: bool
    iterations: int


def default_grad_tol(grid: TorusGrid) -> float:
    """Residual target 1e-8 * T^(N/2); the L2 residual scales like sqrt(volume)."""
    return 1e-8 * grid.period ** (grid.dim / 2.0)


def minimize_action(init: ComplexField, p: Params, opts: MinimizeOptions | None = None) -> CriticalPoint:
    """Descend the action from `init` until the L2 residual meets grad_tol.

    Returns the converged critical point, or the best iterate with
    converged=False after max_iters. Accepted steps are monotone in the
    action. Raises NonFiniteValue if the action or gradient overflows at an
    accepted iterate.
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
    step = opts.step0
    iters = 0
    converged = res <= tol
    steepest = True

    def search(direction, slope):
        """One line search along `direction`; returns (alpha, value) or None.

        Tries the exact minimizer of the quartic ray restriction first, then
        falls back to backtracking with the Armijo test.
        """
        if opts.exact_line_search:
            alpha = eng.ray_minimum(eng.ray_coefficients(f, direction))
            if alpha is not None:
                tv = eng.action(f + alpha * direction)
                if np.isfinite(tv) and tv <= val + 1e-14 * (1.0 + abs(val)):
                    return alpha, tv
        alpha = step
        for _ in range(opts.max_backtracks):
            tv = eng.action(f + alpha * direction)
            if np.isfinite(tv) and tv <= val + opts.armijo * alpha * slope:
                return alpha, tv
            alpha *= opts.backtrack
        return None

    while not converged and iters < opts.max_iters:
        slope = eng.dot(g, d)
        if slope >= 0:
            d, slope, steepest = -z, -gz, True
        hit = search(d, slope)
        if hit is None and not steepest:
            d, slope, steepest = -z, -gz, True
            hit = search(d, slope)
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
        if log is not None and (iters % opts.log_every == 0 or res <= tol):
            log.write(f"{iters} {val:.17g} {res:.17g}\n")
        if res <= tol:
            converged = True
            break
        # Preconditioned Polak-Ribiere with nonnegativity restart.
        beta = eng.dot(g_new - g, z_new) / gz if gz > 0 else 0.0
        beta = max(beta, 0.0)
        if iters % opts.restart_every == 0:
            beta = 0.0
        d = -z_new + beta * d
        steepest = beta == 0.0
        g, z, gz = g_new, z_new, gz_new
        step = min(max(2.0 * alpha, 1e-10), 1e6)

    final = ComplexField(grid, f)
    return _finalize(final, p, opts, converged, iters)


def _finalize(field: ComplexField, p: Params, opts: MinimizeOptions,
              converged: bool, iters: int) -> CriticalPoint:
    rep = action(field, p)
    cert = certify(field, p)
    cls = classify(field, opts.class_tol)
    return CriticalPoint(
        field=field,
        report=rep,
        residual=cert.residual,
        classification=cls,
        windings=cert.windings,
        certificate=cert,
        converged=converged,
        iterations=iters,
    )


def classify(f: ComplexField, class_tol: float = 1e-6) -> str:
    """Bucket a field by its constancy structure.

    Order of the tie-breaking tests: ZeroConstant, UnitConstant, PlaneWave,
    Vortexful, OtherNonconstant.
    """
    if not class_tol > 0:
        raise ValueError("class_tol must be positive")
    v = f.values
    mod = np.abs(v)
    if float(mod.max()) <= class_tol:
        return ZERO_CONSTANT
    mean = v.mean()
    if float(np.abs(v - mean).max()) <= class_tol and float(np.abs(mod - 1.0).max()) <= class_tol:
        return UNIT_CONSTANT
    mod_variation = float(mod.max() - mod.min())
    if mod_variation <= class_tol:
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
