"""Hessian spectra at constant solutions, Poincare constants and the
small-period constancy scan.

At a modulus-one constant the second variation diagonalizes per Fourier mode
with eigenvalue branches |xi|^2 + 1 +- sqrt(1 + c^2 xi1^2); the k = 0 pair is
{0, 2}, the zero belonging to the global phase direction i*e^{i theta}. The
iterative path (projected Lanczos on the matrix-free Hessian) is cross-checked
against that symbol formula and against a dense eigensolve on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import SupportTooLarge, constant, fitted_vortex_ansatz, perturb, vortex_test_function
from .field import ComplexField, TorusGrid, fft_forward, fft_inverse, from_real, l2_norm, to_real
from .functionals import Params, hessian_apply
from .minimize import CONSTANT_CLASSES, MinimizeOptions, minimize_action

DENSE_NODE_LIMIT = 4096


class NoConvergence(RuntimeError):
    """Eigeniteration failed to converge within its iteration budget."""


class WeightOutOfRange(ValueError):
    """Weight function violates the 1/2 <= f <= 2 bounds."""


@dataclass(frozen=True)
class SpectrumReport:
    """Smallest Hessian eigenvalues at a constant solution.

    eigenvalues: (value, integer mode, branch) triples sorted ascending,
    restricted to the complement of the global phase direction.
    """

    speed: float
    period: float
    eigenvalues: tuple[tuple[float, tuple[int, ...], str], ...]
    degenerate_residual: float
    analytic_min: float
    positivity: bool


@dataclass(frozen=True)
class ScanRow:
    T: float
    all_constant: bool
    nonconstant: int
    unconverged: int


@dataclass(frozen=True)
class ThresholdReport:
    """Constancy-scan outcome next to the two analytic reference periods."""

    speed: float
    case1_bound: float
    plane_wave_onset: float
    empirical_onset: float
    rows: tuple[ScanRow, ...]


def case1_bound(c: float) -> float:
    """Sufficient small-period bound 2*pi/sqrt(8 + 4c^2) assembled from the
    zero-limit case of the nonexistence argument with C_T = (2*pi/T)^2 / 4."""
    return 2.0 * np.pi / math.sqrt(8.0 + 4.0 * c * c)


def plane_wave_onset(c: float) -> float:
    """Period pi*(sqrt(c^2+4) - c) above which the k = -1 plane wave exists."""
    return np.pi * (math.sqrt(c * c + 4.0) - c)


# ---------------------------------------------------------------------------
# Symbol oracle
# ---------------------------------------------------------------------------


def symbol_eigenvalues(grid: TorusGrid, c: float, complement: bool = True):
    """All Hessian eigenvalues at a modulus-one constant, from the per-mode
    symbol. Returns (value, mode, branch) sorted ascending; with complement
    the zero of the phase direction (k = 0, lower branch) is dropped.

    Each grid mode contributes its two branches once, which counts the
    k/-k pairing with the right multiplicity.
    """
    entries = []
    mode_lists = [grid.integer_modes(ax) for ax in range(grid.dim)]
    xi1_line = grid.deriv_symbols[0].ravel()
    two_pi_T = 2.0 * np.pi / grid.period
    for idx in np.ndindex(*grid.sizes):
        mode = tuple(int(mode_lists[ax][idx[ax]]) for ax in range(grid.dim))
        if all(m == 0 for m in mode):
            entries.append((2.0, mode, "+"))
            if not complement:
                entries.append((0.0, mode, "-"))
            continue
        xi2 = sum((two_pi_T * mode[ax]) ** 2 for ax in range(grid.dim))
        xi1 = xi1_line[idx[0]]
        root = math.sqrt(1.0 + (c * xi1) ** 2)
        entries.append((xi2 + 1.0 + root, mode, "+"))
        entries.append((xi2 + 1.0 - root, mode, "-"))
    entries.sort(key=lambda e: e[0])
    return entries


def positivity_criterion(c: float, period: float) -> bool:
    """Sign of the smallest complement eigenvalue: positive iff
    c^2 < 2 + (2*pi/T)^2."""
    return c * c < 2.0 + (2.0 * np.pi / period) ** 2


# ---------------------------------------------------------------------------
# Matrix-free Lanczos with full reorthogonalization
# ---------------------------------------------------------------------------


def lanczos_smallest(matvec, dim: int, count: int, rng, tol: float = 1e-10,
                     max_dim: int | None = None, res_tol: float = 1e-5):
    """Smallest `count` eigenpairs of a symmetric operator on R^dim,
    multiplicity included.

    Runs Lanczos with full reorthogonalization and deflated restarts: a
    single Krylov pass cannot split a degenerate cluster, so accepted
    eigenvectors are shifted to the top of the spectrum and the iteration is
    restarted until `count` residual-verified pairs are collected. Returns
    (values, vectors) sorted ascending. Raises NoConvergence if the budget
    is exhausted.
    """
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []
    top_estimate = None

    def deflated_op():
        if not found_vecs:
            return matvec
        V = np.column_stack(found_vecs)
        shift = (top_estimate or 0.0) + 1.0

        def op(vec, V=V, shift=shift):
            coeff = V.T @ vec
            out = matvec(vec - V @ coeff)
            out -= V @ (V.T @ out)
            return out + V @ (shift * coeff)

        return op

    for _ in range(2 * count + 6):
        complete = len(found_vals) >= count
        want = 1 if complete else count - len(found_vals) + 1
        vals, vecs, top = _lanczos_pass(deflated_op(), dim, want, rng, tol, max_dim,
                                        res_target=0.5 * res_tol)
        top_estimate = top if top_estimate is None else max(top_estimate, top)
        accepted = []
        for i in range(vals.size):
            v = vecs[:, i]
            if found_vecs:
                W = np.column_stack(found_vecs)
                v = v - W @ (W.T @ v)
                nv = float(np.linalg.norm(v))
                if nv < 1e-6:
                    continue
                v = v / nv
            av = matvec(v)
            lam = float(v @ av)
            if float(np.linalg.norm(av - lam * v)) <= res_tol * (1.0 + abs(lam)):
                found_vals.append(lam)
                found_vecs.append(v)
                accepted.append(lam)
        if not accepted:
            raise NoConvergence("deflated Lanczos restart made no progress")
        if len(found_vals) >= count:
            # Closure: the smallest value this pass is the smallest eigenvalue
            # outside the deflated set; once it clears the count-th smallest
            # found, the bottom of the spectrum is complete.
            kth = float(np.sort(found_vals)[count - 1])
            if complete and min(accepted) >= kth - 1e-9 * (1.0 + abs(kth)):
                break
    else:
        raise NoConvergence(
            f"bottom {count} eigenvalues did not close within the restart budget"
        )
    order = np.argsort(found_vals)[:count]
    vals = np.array([found_vals[i] for i in order])
    vecs = np.column_stack([found_vecs[i] for i in order])
    return vals, vecs


def _lanczos_pass(matvec, dim: int, count: int, rng, tol: float, max_dim: int | None,
                  res_target: float = 5e-6):
    """One Lanczos run with full reorthogonalization.

    Stops when the Ritz residual bound beta*|last eigenvector component| of
    the bottom `count` pairs drops below tol-derived targets. Returns the
    bottom Ritz pairs and the top Ritz value.
    """
    if max_dim is None:
        max_dim = min(dim, max(60 * count, 400))
    max_dim = min(max_dim, dim)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    Q = np.zeros((dim, max_dim))
    alphas = np.zeros(max_dim)
    betas = np.zeros(max_dim)
    Q[:, 0] = q
    k = 0
    converged = False
    while k < max_dim:
        u = matvec(Q[:, k])
        alphas[k] = float(Q[:, k] @ u)
        # full reorthogonalization, twice for safety
        u -= Q[:, : k + 1] @ (Q[:, : k + 1].T @ u)
        u -= Q[:, : k + 1] @ (Q[:, : k + 1].T @ u)
        beta = float(np.linalg.norm(u))
        k += 1
        exhausted = beta < 1e-13
        if k >= count and (k % 8 == 0 or k == max_dim or exhausted):
            tvals, tvecs = scipy.linalg.eigh_tridiagonal(alphas[:k], betas[: k - 1])
            bounds = beta * np.abs(tvecs[k - 1, :count])
            if exhausted or np.all(bounds <= res_target * (1.0 + np.abs(tvals[:count]))):
                converged = True
                break
        if k == max_dim:
            break
        if exhausted:
            # invariant subspace hit; restart with a fresh direction
            u = rng.standard_normal(dim)
            u -= Q[:, :k] @ (Q[:, :k].T @ u)
            beta = float(np.linalg.norm(u))
            betas[k - 1] = 0.0
        else:
            betas[k - 1] = beta
        Q[:, k] = u / beta
    if not converged and k == max_dim and max_dim < dim:
        raise NoConvergence(f"Lanczos did not converge within {max_dim} iterations")
    tvals, tvecs = scipy.linalg.eigh_tridiagonal(alphas[:k], betas[: k - 1])
    order = np.argsort(tvals)
    bottom = order[:count]
    top_value = float(tvals[order[-1]])
    return tvals[bottom], Q[:, :k] @ tvecs[:, bottom], top_value


def hessian_operator(base: ComplexField, p: Params, project_out: np.ndarray | None = None,
                     shift: float = 0.0):
    """Matrix-free symmetric Hessian on flattened real coordinates.

    project_out: optional unit vector (flattened) removed on both sides; with
    a nonzero shift that direction is moved to the eigenvalue `shift` instead
    of 0, which keeps it away from the bottom of the spectrum.
    """
    grid = base.grid

    def matvec(vec):
        if project_out is not None:
            coeff = float(project_out @ vec)
            vec = vec - project_out * coeff
        phi = ComplexField(grid, from_real(vec, grid))
        out = to_real(hessian_apply(base, phi, p).values)
        if project_out is not None:
            out -= project_out * float(project_out @ out)
            if shift:
                out += (shift * coeff) * project_out
        return out

    return matvec


def smallest_direction(base: ComplexField, p: Params, rng, tol: float) -> ComplexField:
    """Approximate smallest-eigenvalue Hessian direction at `base` from one
    Lanczos pass started from `rng`, with at most 500 Krylov vectors.

    The Ritz residual target is loose (1e-3), which keeps this cheap on
    large grids when only the sign of the Rayleigh quotient matters, as for
    an index witness.
    """
    grid = base.grid
    dim = 2 * grid.node_count
    matvec = hessian_operator(base, p)
    _, vecs, _ = _lanczos_pass(matvec, dim, 1, rng, tol=tol, max_dim=min(dim, 500),
                               res_target=1e-3)
    return ComplexField(grid, from_real(vecs[:, 0], grid))


def dense_hessian(base: ComplexField, p: Params) -> np.ndarray:
    """Assemble the Hessian as a 2n x 2n real matrix from operator columns.

    Independent cross-check for the iterative path; limited to small grids.
    """
    n = base.grid.node_count
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes, grid has {n}")
    A = np.zeros((2 * n, 2 * n))
    matvec = hessian_operator(base, p)
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        A[:, j] = matvec(e)
    return 0.5 * (A + A.T)


def _dominant_mode(grid: TorusGrid, values: np.ndarray) -> tuple[int, ...]:
    spec = fft_forward(values)
    power = spec.real**2 + spec.imag**2
    # fold k with -k so a conjugate pair carries one label
    neg = power[np.ix_(*[(-np.arange(m)) % m for m in grid.sizes])]
    idx = np.unravel_index(int(np.argmax(power + neg)), grid.sizes)
    mode = tuple(int(grid.integer_modes(ax)[idx[ax]]) for ax in range(grid.dim))
    for m in mode:
        if m > 0:
            break
        if m < 0:
            mode = tuple(-x for x in mode)
            break
    return mode


def hessian_spectrum_at_constant(theta: float, p: Params, grid: TorusGrid,
                                 count: int = 5, tol: float = 1e-10,
                                 seed: int = 0) -> SpectrumReport:
    """Iterative smallest Hessian eigenvalues at exp(i*theta) on the
    complement of the phase direction, labeled by Fourier mode and branch
    and compared with the analytic symbol."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base = constant(theta, grid)
    phase_dir = to_real(1j * base.values)
    phase_dir /= np.linalg.norm(phase_dir)
    hphase = hessian_apply(base, ComplexField(grid, 1j * base.values), p)
    degenerate_residual = l2_norm(hphase)
    # Shift the known degenerate direction far up so the bottom of the
    # spectrum is purely the complement of span{i e^{i theta}}.
    shift = 4.0 + (2.0 * np.pi / grid.period) ** 2 * max(grid.sizes) ** 2
    matvec = hessian_operator(base, p, project_out=phase_dir, shift=shift)
    rng = np.random.default_rng(seed)
    vals, vecs = lanczos_smallest(matvec, 2 * grid.node_count, count, rng, tol=tol)
    analytic = symbol_eigenvalues(grid, p.c)
    analytic_min = analytic[0][0]
    entries = []
    for i in range(min(count, vals.size)):
        value = float(vals[i])
        mode = _dominant_mode(grid, from_real(vecs[:, i], grid))
        xi2 = sum((2.0 * np.pi * m / grid.period) ** 2 for m in mode)
        xi1 = 2.0 * np.pi * mode[0] / grid.period
        if all(m == 0 for m in mode):
            branch = "+"
        else:
            root = math.sqrt(1.0 + (p.c * xi1) ** 2)
            branch = "-" if abs(value - (xi2 + 1.0 - root)) <= abs(value - (xi2 + 1.0 + root)) else "+"
        entries.append((value, mode, branch))
    entries.sort(key=lambda e: e[0])
    smallest = entries[0][0] if entries else float("nan")
    return SpectrumReport(
        speed=p.c,
        period=grid.period,
        eigenvalues=tuple(entries),
        degenerate_residual=degenerate_residual,
        analytic_min=analytic_min,
        positivity=smallest > 0.0,
    )


# ---------------------------------------------------------------------------
# Poincare constants and the weighted eigenvalue
# ---------------------------------------------------------------------------


def poincare_constant(grid: TorusGrid) -> tuple[float, float]:
    """(lambda_T(1), C_T): smallest nonzero eigenvalue of -Lap on the torus,
    (2*pi/T)^2, and the constant C_T = lambda_T(1)/4."""
    lam = (2.0 * np.pi / grid.period) ** 2
    return lam, lam / 4.0


def _dense_neg_laplacian(grid: TorusGrid) -> np.ndarray:
    n = grid.node_count
    lap = grid.laplacian_symbol
    A = np.zeros((n, n))
    e = np.zeros(grid.sizes)
    for j, idx in enumerate(np.ndindex(*grid.sizes)):
        e[idx] = 1.0
        A[:, j] = fft_inverse(lap * fft_forward(e)).real.ravel()
        e[idx] = 0.0
    return 0.5 * (A + A.T)


def weighted_eigenvalue(weight: np.ndarray, grid: TorusGrid) -> float:
    """Smallest eigenvalue of int|grad u|^2 / int f u^2 over real u with the
    weighted-mean constraint int f u = 0, for weights 1/2 <= f <= 2.

    Solved densely: -Lap restricted to the constraint complement against the
    weight Gram matrix. Satisfies lambda_T(f) >= lambda_T(2) = lambda_T(1)/2.
    """
    w = np.asarray(weight, dtype=float)
    if w.shape != grid.sizes:
        raise ValueError(f"weight shape {w.shape} != grid sizes {grid.sizes}")
    if w.min() < 0.5 - 1e-12 or w.max() > 2.0 + 1e-12:
        raise WeightOutOfRange(
            f"weight range [{w.min():.3g}, {w.max():.3g}] outside [1/2, 2]"
        )
    n = grid.node_count
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense eigensolve limited to {DENSE_NODE_LIMIT} nodes")
    A = _dense_neg_laplacian(grid)
    B = np.diag(w.ravel())
    Q = scipy.linalg.null_space(w.ravel()[None, :])
    vals = scipy.linalg.eigh(Q.T @ A @ Q, Q.T @ B @ Q, eigvals_only=True,
                             subset_by_index=(0, 0))
    return float(vals[0])


# ---------------------------------------------------------------------------
# Constancy scan
# ---------------------------------------------------------------------------

_SCAN_AMPLITUDES = (0.1, 0.5, 1.0)


def constancy_scan(c: float, T_values, starts: int, resolution: int,
                   seed: int = 0, band: int = 4, R: float = 2.0,
                   opts: MinimizeOptions | None = None) -> ThresholdReport:
    """Multistart minimization per period: do nonconstant critical points show
    up? Starts are band-limited perturbations of the constant 1 with cycled
    amplitudes, plus the vortex test function whenever it fits the cell.

    empirical_onset is the smallest scanned period whose converged critical
    points are not all constant (inf when every row is constant).
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rows = []
    for T in sorted(float(t) for t in T_values):
        grid = TorusGrid((resolution,) * 2, T)
        p = Params(c=c)
        zero = ComplexField(grid, np.zeros(grid.sizes, dtype=complex))
        one = constant(0.0, grid)
        inits = [
            perturb(zero if j % 2 else one,
                    _SCAN_AMPLITUDES[j % len(_SCAN_AMPLITUDES)], band, seed + j)
            for j in range(starts)
        ]
        try:
            inits.append(vortex_test_function(fitted_vortex_ansatz(R, T), grid))
        except SupportTooLarge:
            pass
        nonconstant = 0
        unconverged = 0
        for init in inits:
            point = minimize_action(init, p, opts)
            if not point.converged:
                unconverged += 1
            elif point.classification not in CONSTANT_CLASSES:
                nonconstant += 1
        rows.append(ScanRow(T, nonconstant == 0, nonconstant, unconverged))
    onset = next((r.T for r in rows if not r.all_constant), float("inf"))
    return ThresholdReport(
        speed=c,
        case1_bound=case1_bound(c),
        plane_wave_onset=plane_wave_onset(c),
        empirical_onset=onset,
        rows=tuple(rows),
    )
