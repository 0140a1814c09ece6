"""Newton-MINRES for critical points of the action.

Each Newton step solves H[s] = -grad I by MINRES on the symmetric,
indefinite Hessian, preconditioned by the inverse Helmholtz symbol
(1 + |xi|^2)^(-1). The Hessian is singular along the symmetry directions
i*psi (global phase) and d_j psi (translations) at every nonconstant
critical point, but the gradient is orthogonal to them at every field, so
the system stays consistent and MINRES solves it without projecting them out
(Choi, Paige & Saunders, SIAM J. Sci. Comput. 33, 2011). Steps backtrack on
the L2 residual ||grad I|| (Knoll & Keyes, J. Comput. Phys. 193, 2004).
Newton converges to unstable critical points as well as to minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ComplexField, TorusGrid, from_real, to_real
from .functionals import Kernel, Params, hessian_apply
from .minimize import default_grad_tol

# MINRES iterations allowed per Newton step.
KRYLOV_MAX = 300
# Step halvings before a Newton step is given up.
MAX_BACKTRACKS = 10


@dataclass(frozen=True)
class NewtonResult:
    """Last Newton iterate with its L2 residual and the work spent."""

    field: ComplexField
    residual: float
    converged: bool
    steps: int
    products: int


def certified_tol(grid: TorusGrid, p: Params, grad_tol: float | None = None) -> float:
    """Residual target min(grad_tol, p.cert_tol / T^(N/2)).

    The linear symbols vanish at k = 0, so int (1-|f|^2) f = -int grad I,
    which Cauchy-Schwarz bounds by T^(N/2) ||grad I||: a field that meets
    this target has |int (1-|f|^2) f| <= p.cert_tol. grad_tol of None means
    default_grad_tol(grid).
    """
    base = grad_tol if grad_tol is not None else default_grad_tol(grid)
    return min(base, p.cert_tol / grid.period ** (grid.dim / 2.0))


def newton_minres(init: ComplexField, p: Params, tol: float,
                  max_steps: int = 50) -> NewtonResult:
    """Newton iteration from `init` until ||grad I|| <= tol.

    Returns the last iterate with converged=False when max_steps is spent,
    when no step length along the Newton direction decreases the residual,
    or when the iterate leaves the finite range.
    """
    from scipy.sparse.linalg import LinearOperator, minres

    grid = init.grid
    kern = Kernel(grid, p)
    dim = 2 * grid.node_count
    products = 0
    f = init

    def hess(x):
        nonlocal products
        products += 1
        phi = ComplexField(grid, from_real(x, grid))
        return to_real(hessian_apply(f, phi, p).values)

    # both read the current iterate f, so they are built once per solve
    H = LinearOperator((dim, dim), matvec=hess, dtype=np.float64)
    M = LinearOperator((dim, dim), matvec=kern.precondition_real, dtype=np.float64)

    g = kern.gradient(f.values)
    res = np.sqrt(kern.dot(g, g))
    res0 = max(res, tol)
    steps = 0
    while res > tol and steps < max_steps:
        # Forcing term, tightening as the residual falls. MINRES measures
        # its residual against ||H|| ||s||, which can exceed ||grad I|| by
        # the condition number, hence the small prefactor.
        eta = 1e-3 * np.sqrt(min(1.0, res / res0))
        x, _ = minres(H, to_real(-g), rtol=eta, maxiter=KRYLOV_MAX, M=M)
        s = from_real(x, grid)
        alpha = 1.0
        hit = None
        for _ in range(MAX_BACKTRACKS):
            values = f.values + alpha * s
            if np.all(np.isfinite(values)):
                tg = kern.gradient(values)
                tres = np.sqrt(kern.dot(tg, tg))
                if tres <= (1.0 - 1e-4 * alpha) * res:
                    hit = (ComplexField(grid, values), tg, tres)
                    break
            alpha *= 0.5
        if hit is None:
            break
        f, g, res = hit
        steps += 1
    return NewtonResult(f, res, res <= tol, steps, products)
