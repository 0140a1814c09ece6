"""Newton-MINRES for critical points of the action.

Each Newton step solves H[s] = -grad I by MINRES on the symmetric,
indefinite Hessian, preconditioned by the inverse Helmholtz symbol
(1 + |xi|^2)^(-1), on the Kernel's Hessian held at the step's iterate, in
spectral coordinates (Kernel.hessian_real): a MINRES iteration costs the 2
transforms of its product. The Hessian is singular along the symmetry directions
i*psi (global phase) and d_j psi (translations) at every nonconstant
critical point, but the gradient is orthogonal to them at every field, so
the system stays consistent and MINRES solves it without projecting them out
(Choi, Paige & Saunders, SIAM J. Sci. Comput. 33, 2011). Steps backtrack on
the L2 residual ||grad I|| (Knoll & Keyes, J. Comput. Phys. 193, 2004).
Newton converges to unstable critical points as well as to minimizers.

The solve runs in the basis that functionals.Kernel.of picks for its
start. In the class basis of H the iterates stay in H, where the Hessian
has no symmetry zero mode, and MINRES works on the real spectrum, half the
coordinates; the point is returned on the full grid, mirrored from the half
grid.

The iterate carries its spectrum: a trial point is the inverse transform of
fs + alpha*s_hat, and its gradient's spectrum, the right-hand side and the
residual by Parseval, takes one forward transform.

The solve returns the descent's record, a minimize.CriticalPoint: the
residual its stopping rule tested, the action from one transform, the
integral pointwise and the classification of the last iterate, with
iterations counting Newton steps.
"""

from __future__ import annotations

import numpy as np

from .field import ComplexField, TorusGrid
from .functionals import (Kernel, Params, action, default_grad_tol, equation_integral,
                          quiet_overflow)
from .minimize import CriticalPoint, classify

# MINRES iterations allowed per Newton step.
KRYLOV_MAX = 300
# Step halvings before a Newton step is given up.
MAX_BACKTRACKS = 10
# Bound on the integrated certificate |int (1-|f|^2) f| that certified_tol
# guarantees.
CERT_TOL = 1e-6


def certified_tol(grid: TorusGrid, grad_tol: float | None = None) -> float:
    """Residual target min(grad_tol, CERT_TOL / T^(N/2)).

    The linear symbols vanish at k = 0, so int (1-|f|^2) f = -int grad I,
    which Cauchy-Schwarz bounds by T^(N/2) ||grad I||: a field that meets
    this target has |int (1-|f|^2) f| <= CERT_TOL. grad_tol of None means
    default_grad_tol(grid).
    """
    base = grad_tol if grad_tol is not None else default_grad_tol(grid)
    return min(base, CERT_TOL / grid.period ** (grid.dim / 2.0))


@quiet_overflow
def newton_minres(init: ComplexField, p: Params, tol: float,
                  max_steps: int = 50) -> CriticalPoint:
    """Newton iteration from `init` until ||grad I|| <= tol, in the basis
    Kernel.of picks for `init`.

    Returns the point at the last iterate (see the module docstring), with
    converged=False when max_steps is spent, when a MINRES solution is not
    finite, when no step length along the Newton direction decreases the
    residual, or when the iterate leaves the finite range.
    """
    from scipy.sparse.linalg import LinearOperator, minres

    kern = Kernel.of(p, init)
    dim = kern.dimension
    f = kern.store(init)
    # the Hessian held at the current iterate, set before each MINRES solve
    H = LinearOperator((dim, dim), matvec=lambda x: hess(x), dtype=np.float64)
    M = LinearOperator((dim, dim), matvec=kern.precondition_real, dtype=np.float64)

    def gradient_spectrum(values, spec):
        gs = kern.gradient_spectrum(values, spec)
        return gs, np.sqrt(kern.spectral_dot(gs, gs))

    fs = kern.forward(f)
    gs, res = gradient_spectrum(f, fs)
    res0 = max(res, tol)
    steps = 0
    while res > tol and steps < max_steps:
        # Forcing term, tightening as the residual falls. MINRES measures
        # its residual against ||H|| ||s||, which can exceed ||grad I|| by
        # the condition number, hence the small prefactor.
        eta = 1e-3 * np.sqrt(min(1.0, res / res0))
        hess = kern.hessian_real(f)
        x, _ = minres(H, -kern.to_coords(gs), rtol=eta, maxiter=KRYLOV_MAX, M=M)
        if not np.all(np.isfinite(x)):
            break
        ss = kern.from_coords(x)
        alpha = 1.0
        hit = None
        for _ in range(MAX_BACKTRACKS):
            spec = fs + alpha * ss
            values = kern.inverse(spec)
            if np.all(np.isfinite(values)):
                tgs, tres = gradient_spectrum(values, spec)
                if tres <= (1.0 - 1e-4 * alpha) * res:
                    hit = (values, spec, tgs, tres)
                    break
            alpha *= 0.5
        if hit is None:
            break
        f, fs, gs, res = hit
        steps += 1
    final = kern.field(f)
    return CriticalPoint(field=final, report=action(final, p), residual=res,
                         classification=classify(final), integral=equation_integral(final),
                         converged=res <= tol, iterations=steps)
