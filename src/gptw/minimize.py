"""Action descent to critical points and their classification.

The optimizer is nonlinear conjugate gradient (Polak-Ribiere with restarts)
preconditioned by the inverse Helmholtz operator (1 - Lap)^(-1) in spectral
space. The action restricted to a ray is a quartic polynomial, so each line
search steps to its exact minimum (Kernel.ray_coefficients, ray_minimum),
a root whose drop p(alpha) - p0 is below 0: near a minimum the drop falls
below one ulp of the action, where a test of p(alpha) against p0 refuses
every step (Hager and Zhang, SIAM J. Optim. 16, 2005). A step is accepted
when the action at the trial point rises by at most 1e-14 * (1 + |I|)
(functionals.admits), an allowance for rounding in the flat steps near
convergence, so descent started clearly below the zero action level of the
modulus-one constants can only end at a nonconstant critical point.

An iteration costs 2 transforms and a few contiguous array passes. The
descent carries the normalized spectra of its iterate and direction next to
them and updates them by linearity, and it carries the action and the
density 1 - |f|^2 of its iterate. The ray quartic takes its value (the
carried action) and its slope (the pairing <G, D> of the descent test, or
-<G, Z> along steepest descent) as given and sums only its degree-2 to 4
coefficients; ray_minimum solves the cubic p' = 0 in closed form. The
action at the trial point f + alpha*d needs no transform, and an accepted
step takes over the trial iterate, spectrum, action and density. The
gradient and its preconditioned image come from
Kernel.preconditioned_gradient, one forward transform of the cubic term
(the carried density times f) and one inverse transform. The residual,
the descent test and the Polak-Ribiere coefficient pair spectra by
Parseval, so the gradient is never formed on the nodes.

The carried spectrum drifts from the nodes' by rounding, visible below a
residual of about 1e-12. It is refreshed from the nodes (one forward
transform), with the action and density, at every RESTART_EVERY restart and
when the carried residual meets grad_tol: this confirm corrects the
gradient's linear part (its cubic part already uses the nodes' density),
and the descent converges only if the refreshed residual meets grad_tol,
else it restarts. It stalls, unconverged, when a refresh (the start, a
restart or a confirm) lowers neither the residual of the previous refresh
nor its action beyond admits' allowance: the floor. At c = 1 from the
criterion-5 start (T = 40, R = 8) it is 4.6e-13 at 64^2 and, from the
prolonged 64^2 minimizer, 6.2e-12 at 256^2 in the class basis; 5.1e-13
and 5.0e-12 on the full grid, from the same starts rotated by e^{0.7i}.
It also stalls when neither direction gives an admitted step, as at a
start whose action or gradient is not finite, which it returns after 0
iterations, as newton.newton_minres does: the descent never raises.

The descent runs in the basis that functionals.Kernel.of picks for its
start: criterion 5's start 1 + w_R, its coarse minimizer and that
minimizer prolonged descend in the class basis of the reflection class H,
and every perturbed start of the constancy scan and every translated or
phase-rotated start on the full grid. From the 32^2 (T = 13, R = 3) and
64^2 criterion-5 starts the class descent takes the iterations of the full
descent from the start rotated by e^{0.7i}, to the same action within
1e-15 relative. The returned field is mirrored to the full grid, with no
transform.

A start that meets grad_tol costs 2 transforms, its spectrum and its
gradient spectrum, and builds no preconditioned image or direction; the
prolonged criterion-5 minimizer is such a start on the 256^2 target grid.
Otherwise the loop holds the directions, the preconditioned images and
the previous gradient spectrum, and releases them when it ends.

The critical point is built from what the descent holds when it stops, at
no transform: the action report from the spectrum (Kernel.parts), which
at convergence is the nodes', and the carried density, which at every
exit is 1 - |f|^2 of the final nodes; the residual that the stopping rule
tested, so converged implies residual <= grad_tol exactly; and
int (1-|f|^2) f = -volume * G_0, where G_0 is the k = 0 entry of the
gradient's spectrum (the linear symbol vanishes there). The spectra and
the density are released before the final nodes are mirrored, and
classify runs on the final field alone. The spectral
tail is not computed: functionals.certify reports it, for `gptw certify`
and the certificate CSVs.

minimizer_experiment descends by nested iteration, the "full multigrid"
start (Brandt, Math. Comp. 31, 1977): first on field.coarsest_grid of its
start, the coarsest halving of the target grid whose spectral tail stays
within field.TAIL_BOUND, from the start restricted there; then on the
target grid from the coarse result prolonged by field.resample. The
preconditioned descent takes about as many iterations on every grid that
resolves the start, so the basin is found at a fraction of the cost. The
gain is largest when the minimizer is band-limited on the coarse grid: the
prolonged criterion-5 plane wave (T = 40, R = 8, 256^2 via 64^2) meets the
target residual with no target-grid iteration. Starts whose minimizer is
not band-limited there keep target-grid iterations; their cost is
unmeasured. The coarse stage is only a start: minimizer_experiment returns
its point next to the target-grid descent's, but the minimizer and every
certificate come from the target-grid descent, and only that descent writes
the log (MinimizeOptions.log_stream, the progress.log of `gptw minimize`). A
start near a basin boundary may reach a different critical point this way
than a descent on the target grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .ansatz import fitted_vortex_ansatz, vortex_test_function
from .field import ComplexField, TorusGrid, axis_windings, coarsest_grid, resample, vortex_count
from .functionals import ActionReport, Kernel, Params, admits, default_grad_tol, quiet_overflow

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
    """A converged (or best-so-far) field with its diagnostics, built from
    the values its solver holds when it stops.

    residual is the L2 residual ||grad I|| that the solver's stopping rule
    tested, so converged implies residual <= the solver's target with no
    rounding slack; integral is int (1-|f|^2) f; iterations counts the
    solver's steps. A descent's point costs no transform and, converged or
    stalled at its floor, comes from the nodes' spectrum (see the module
    docstring); a Newton-MINRES point (newton.newton_minres) costs one, its
    action. The spectral tail is not part of a point: it is computed by
    functionals.certify where it is written, in `gptw certify` and the
    certificate CSVs.
    """

    field: ComplexField
    report: ActionReport
    residual: float
    classification: str
    integral: complex
    converged: bool
    iterations: int


@quiet_overflow
def minimize_action(init: ComplexField, p: Params, opts: MinimizeOptions | None = None) -> CriticalPoint:
    """Descend the action from `init` until the L2 residual meets grad_tol.

    Each step goes to the exact minimum of the quartic ray restriction of
    the action (a root whose drop below p0 is negative), along the conjugate
    direction or, when that is no descent, along steepest descent; admits
    accepts it on the action at the trial point. Returns the point converged
    on a residual from the nodes' spectrum, or the last iterate with
    converged=False when the descent stalls (see the module docstring),
    the start among them when its action or gradient is not finite, or
    after max_iters. The descent runs in the basis Kernel.of picks for
    `init`.
    """
    opts = opts or MinimizeOptions()
    grid = init.grid
    tol = opts.grad_tol if opts.grad_tol is not None else default_grad_tol(grid)
    eng = Kernel.of(p, init)
    log = opts.log_stream

    # fs and gs are the spectra (Kernel.forward) of f and of its gradient;
    # dens is 1 - |f|^2 and val the action at f
    f = eng.store(init)
    fs = eng.forward(f)
    val, dens = eng.action(f, fs)
    gs = eng.gradient_spectrum(f, fs, dens)
    res = np.sqrt(eng.spectral_dot(gs, gs))
    iters = 0
    converged = res <= tol

    def search(direction, direction_spec, slope):
        """Exact minimum of the quartic ray restriction along `direction`,
        whose slope at f is `slope`: the trial (value, f, fs, dens), or None
        when there is none or admits refuses the action there."""
        alpha = eng.ray_minimum(
            eng.ray_coefficients(f, direction, val, slope, dens, direction_spec))
        if alpha is None:
            return None
        tf = f + alpha * direction
        tfs = fs + alpha * direction_spec
        tv, tdens = eng.action(tf, tfs)
        if np.isfinite(tv) and admits(tv, val):
            return tv, tf, tfs, tdens
        return None

    if not converged:
        # z = (1 - Lap)^(-1) g and d, with their spectra zs and ds, and
        # gs_old the previous gradient spectrum. f is never written in
        # place: each accepted step takes over the trial arrays.
        zs = gs * eng.preconditioner
        z = eng.inverse(zs)
        gz = eng.spectral_dot(gs, zs)
        d, ds, gs_old = -z, -zs, gs
        steepest = True
        # residual and action at the last refresh (start, restart or confirm)
        refresh_res, refresh_val = res, val
        while iters < opts.max_iters:
            slope = eng.spectral_dot(gs, ds)
            if slope >= 0:
                d, ds, steepest, slope = -z, -zs, True, -gz
            hit = search(d, ds, slope)
            if hit is None and not steepest:
                d, ds, steepest = -z, -zs, True
                hit = search(d, ds, -gz)
            if hit is None:
                break  # stalled: no descent possible at rounding level
            val, f, fs, dens = hit
            iters += 1
            refresh = iters % RESTART_EVERY == 0
            if refresh:
                # refresh the carried spectrum, action and density from the nodes
                fs = eng.forward(f)
                val, dens = eng.action(f, fs)
            gs_old = gs
            gs, z, zs = eng.preconditioned_gradient(f, fs, dens)
            res = np.sqrt(eng.spectral_dot(gs, gs))
            if res <= tol and not refresh:
                # confirm: gs's cubic part already comes from the nodes' dens
                fresh = eng.forward(f)
                gs += eng.linear * (fresh - fs)
                fs = fresh
                val = eng.action(f, fs)[0]
                res = np.sqrt(eng.spectral_dot(gs, gs))
                refresh = True
                if res > tol:
                    zs = gs * eng.preconditioner
                    z = eng.inverse(zs)
            gz_new = eng.spectral_dot(gs, zs)
            if log is not None:
                log.write(f"{iters} {val:.17g} {res:.17g}\n")
            if refresh:
                converged = res <= tol
                if converged or (res >= refresh_res and admits(refresh_val, val)):
                    break  # converged, or stalled at the floor
                refresh_res, refresh_val = res, val
            # Preconditioned Polak-Ribiere, restarted by a refresh or a negative beta
            beta = 0.0 if refresh or not gz > 0 else max(
                (gz_new - eng.spectral_dot(gs_old, zs)) / gz, 0.0)
            d *= beta
            d -= z
            ds *= beta
            ds -= zs
            steepest = beta == 0.0
            gz = gz_new
        del z, zs, d, ds, gs_old

    report = ActionReport.assemble(*eng.parts(f, fs, dens), p.c)
    integral = complex(-eng.volume * gs.flat[0])
    del fs, gs, dens  # the nodes alone are mirrored
    final = eng.field(f)
    del eng, f  # classify holds the final field alone
    return CriticalPoint(
        field=final,
        report=report,
        residual=res,
        classification=classify(final),
        integral=integral,
        converged=converged,
        iterations=iters,
    )


def classify(f: ComplexField) -> str:
    """Bucket a field by its constancy and vortex structure.

    Order of the tie-breaking tests: ZeroConstant and UnitConstant (to
    sup-norm CLASS_TOL), then Vortexful when field.vortex_count is nonzero
    or f is exactly 0 at a node (the one case where a cell winding is not an
    integer), then PlaneWave for a constant modulus (to CLASS_TOL) with a
    nonzero axis winding, else OtherNonconstant.
    """
    v = f.values
    mod = np.abs(v)
    top, bottom = float(mod.max()), float(mod.min())
    if top <= CLASS_TOL:
        return ZERO_CONSTANT
    mean = v.mean()
    if float(np.abs(v - mean).max()) <= CLASS_TOL and float(np.abs(mod - 1.0).max()) <= CLASS_TOL:
        return UNIT_CONSTANT
    del mod  # vortex_count holds the most memory here
    if any(vortex_count(f)) or bottom == 0.0:
        return VORTEXFUL
    if top - bottom <= CLASS_TOL and any(axis_windings(f)):
        return PLANE_WAVE
    return OTHER_NONCONSTANT


def minimizer_experiment(c: float, T: float, resolution: int, R: float,
                         init: ComplexField | None = None,
                         opts: MinimizeOptions | None = None,
                         dim: int = 2) -> tuple[CriticalPoint, CriticalPoint | None]:
    """Minimize from the vortex test function 1 + w_R (or a caller-supplied
    init). Returns (point, start).

    The descent is nested (see the module docstring): minimize_action runs
    first on field.coarsest_grid(init), from init restricted there, then on
    the target grid from its result prolonged, with the same options except
    that only the target-grid descent writes to opts.log_stream. point is
    the target-grid descent's, so its residual, action and class are
    target-grid values; start is the coarse descent's, None when the coarse
    grid is the target grid and the descent runs there only.
    """
    grid = TorusGrid((resolution,) * dim, T)
    p = Params(c=c)
    if init is None:
        ans = fitted_vortex_ansatz(R, T)
        init = vortex_test_function(ans, grid)
    elif init.grid != grid:
        raise ValueError("init field lives on a different grid")
    opts = opts or MinimizeOptions()
    coarse = coarsest_grid(init)
    start = None
    if coarse != grid:
        start = minimize_action(resample(init, coarse), p, replace(opts, log_stream=None))
        init = resample(start.field, grid)
    return minimize_action(init, p, opts), start
