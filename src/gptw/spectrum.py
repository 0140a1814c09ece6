"""Hessian spectra at constant solutions, Poincare constants and the
small-period constancy scan.

At a modulus-one constant the second variation diagonalizes per Fourier mode
with eigenvalue branches |xi|^2 + 1 +- sqrt(1 + c^2 xi1^2); the k = 0 pair is
{0, 2}, the zero belonging to the global phase direction i*e^{i theta}.

One eigensolver serves both sign questions of the paper: a block LOBPCG
solve (lanczos_smallest) of the matrix-free Hessian (hessian_operator),
preconditioned by the inverse Helmholtz symbol and constrained off the
symmetry directions (symmetry_basis; no other module removes them). At a
constant it gives the spectrum off the phase direction, cross-checked
against the symbol formula and a dense eigensolve on small grids; at a
saddle it gives the index witness (smallest_direction) and, with a larger
block, the Morse count. The Hessian is Newton-MINRES's (Kernel.hessian_real).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ansatz import SupportTooLarge, constant, fitted_vortex_ansatz, perturb, vortex_test_function
from .field import (ComplexField, TorusGrid, fft_forward, fft_inverse, from_real, l2_norm,
                    spectral_derivative, to_real)
from .functionals import Kernel, Params, hessian_apply
from .minimize import CONSTANT_CLASSES, minimize_action

DENSE_NODE_LIMIT = 4096
# LOBPCG iterations before lanczos_smallest raises NoConvergence.
MAX_BLOCK_ITERS = 1000
# LOBPCG iterates to this fraction of the tolerance that lanczos_smallest
# checks: its final Rayleigh-Ritz pass can report residuals a little above
# the in-loop ones it stopped on (up to 1.18x tol seen).
ITERATE_TOL_FRACTION = 0.5


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


def _symbol_branches(grid: TorusGrid, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower Hessian eigenvalue branches |xi|^2 + 1 +- sqrt(1 +
    c^2 xi1^2) at a modulus-one constant, one entry per grid mode in FFT
    storage order (xi1 Nyquist-zeroed, as in the Kernel). The k = 0 entries
    are 2 and the phase direction's 0."""
    root = np.sqrt(1.0 + (c * grid.deriv_symbols[0]) ** 2)
    return grid.laplacian_symbol + 1.0 + root, grid.laplacian_symbol + 1.0 - root


def symbol_eigenvalues(grid: TorusGrid, c: float):
    """The Hessian eigenvalues at a modulus-one constant on the complement
    of the phase direction, from the per-mode symbol. Returns (value, mode,
    branch) sorted ascending; the phase direction's zero (k = 0, lower
    branch) is left out.

    Each grid mode contributes its two branches once, which counts the
    k/-k pairing with the right multiplicity.
    """
    plus, minus = _symbol_branches(grid, c)
    # entry 2j + b is branch b ("+", "-") of the mode at flat index j
    values = np.stack([plus.ravel(), minus.ravel()], axis=1).ravel()
    order = np.argsort(values, kind="stable")
    order = order[order != 1]  # k = 0, lower branch: the phase direction
    at = np.unravel_index(order // 2, grid.sizes)
    modes = zip(*[grid.integer_modes(ax)[at[ax]].tolist() for ax in range(grid.dim)])
    branches = np.array(["+", "-"])[order % 2].tolist()
    return list(zip(values[order].tolist(), modes, branches))


def positivity_criterion(c: float, period: float) -> bool:
    """Sign of the smallest complement eigenvalue: positive iff
    c^2 < 2 + (2*pi/T)^2."""
    return c * c < 2.0 + (2.0 * np.pi / period) ** 2


# ---------------------------------------------------------------------------
# Matrix-free eigensolves
# ---------------------------------------------------------------------------


def lanczos_smallest(matvec, precondition, basis: np.ndarray, count: int, rng,
                     tol: float = 1e-6):
    """Smallest `count` eigenpairs, multiplicity included, of a symmetric
    operator on the complement of the orthonormal columns of `basis`
    (dim x k, k may be 0). Returns (values, vectors) sorted ascending.

    One block solve by LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
    scipy.sparse.linalg.lobpcg, preconditioned by `precondition`, from a
    start block drawn from `rng`; a block holds every copy of a multiple
    eigenvalue. The iterates stay off `basis` (lobpcg's Y) and so does the
    operator's output, which at a field that is not a critical point has
    components along it that would keep the residuals up. LOBPCG iterates
    to ITERATE_TOL_FRACTION * tol for at most MAX_BLOCK_ITERS iterations.
    Raises NoConvergence when a residual ||A x - lambda x|| of a returned
    unit Ritz vector is above tol, a block product is not finite or lobpcg
    breaks down with a ValueError (numpy's LinAlgError is one), and
    ValueError unless count >= 1 and the complement has 5 * count
    dimensions or more, below which lobpcg does not iterate.
    scipy.sparse.linalg is imported on first use. The name is older than
    LOBPCG; perfbench/tracer.py looks it up, so it stays until the trace of
    ROADMAP item I replaces that tracer.
    """
    from scipy.sparse.linalg import lobpcg

    dim, k = basis.shape
    if not 1 <= count <= (dim - k) // 5:
        raise ValueError(f"count {count} outside [1, {(dim - k) // 5}]: lobpcg needs 5 "
                         f"dimensions per eigenpair and the complement has {dim - k}")

    # lobpcg applies both operators to blocks of column vectors
    def A(X):
        out = np.column_stack([matvec(x) for x in X.T])
        if not np.all(np.isfinite(out)):
            raise NoConvergence("LOBPCG: the operator returned non-finite values")
        return out - basis @ (basis.T @ out)

    def M(X):
        return np.column_stack([precondition(x) for x in X.T])

    with warnings.catch_warnings():
        # lobpcg warns when its last in-loop or postprocessing residuals miss
        # the fraction of tol it iterates to; the returned pairs are checked
        # against tol below
        warnings.filterwarnings("ignore", "Exited (at iteration|postprocessing)", UserWarning)
        try:
            vals, vecs, history = lobpcg(A, rng.standard_normal((dim, count)), M=M,
                                         Y=basis if k else None, tol=ITERATE_TOL_FRACTION * tol,
                                         maxiter=MAX_BLOCK_ITERS, largest=False,
                                         retResidualNormsHistory=True)
        except ValueError as exc:  # e.g. Cholesky of an overflowing Gram matrix
            raise NoConvergence(f"LOBPCG broke down: {exc}") from exc
    residual = float(np.max(history[-1]))
    if not residual <= tol:
        raise NoConvergence(f"LOBPCG: residual {residual:.3e} above {tol:.1e} "
                            f"after {len(history) - 1} iterations")
    return vals, vecs


def symmetry_basis(f: ComplexField) -> np.ndarray:
    """Orthonormal columns spanning i*f and d_j f, flattened to real
    coordinates; directions that vanish (at constants, at 0) are dropped.

    These are the directions of the global phase and the translations, along
    which the Hessian of the action is singular at every critical point.
    """
    v = f.values
    columns = [1j * v] + [spectral_derivative(f, ax).values for ax in range(f.grid.dim)]
    scale = float(np.linalg.norm(v))
    basis: list[np.ndarray] = []
    for col in columns:
        q = to_real(col)
        for b in basis:
            q -= b * float(b @ q)
        norm = float(np.linalg.norm(q))
        if norm > 1e-8 * scale:
            basis.append(q / norm)
    return np.column_stack(basis) if basis else np.zeros((2 * v.size, 0))


def hessian_operator(base: ComplexField, p: Params):
    """Matrix-free Hessian held at `base` on flattened real coordinates
    (field.to_real layout), as a function of one vector (Kernel.hessian_real)."""
    return Kernel(base.grid, p).hessian_real(base.values)


def _smallest_pairs(base: ComplexField, p: Params, count: int, rng, tol: float = 1e-6):
    """lanczos_smallest of the Hessian at `base`, off symmetry_basis(base)."""
    return lanczos_smallest(hessian_operator(base, p), Kernel(base.grid, p).precondition_real,
                            symmetry_basis(base), count, rng, tol=tol)


def smallest_direction(base: ComplexField, p: Params, rng) -> tuple[float, ComplexField]:
    """Smallest Hessian eigenvalue at `base` and its direction, off the
    symmetry directions i*base and d_j base (symmetry_basis), which carry
    the zero modes of every critical point.

    The residual tolerance 1e-3 keeps this cheap on large grids, as an
    index witness needs only the sign; the eigenvalue is still accurate to
    about the square of that over the spectral gap.
    """
    vals, vecs = _smallest_pairs(base, p, 1, rng, tol=1e-3)
    return float(vals[0]), ComplexField(base.grid, from_real(vecs[:, 0], base.grid))


def _dense(matvec, dim: int) -> np.ndarray:
    """Symmetric part of the dim x dim matrix whose column j is matvec of
    the j-th unit vector."""
    A = np.empty((dim, dim))
    e = np.zeros(dim)
    for j in range(dim):
        e[j] = 1.0
        A[:, j] = matvec(e)
        e[j] = 0.0
    return 0.5 * (A + A.T)


def dense_hessian(base: ComplexField, p: Params) -> np.ndarray:
    """Assemble the full Hessian, symmetry directions included, as a
    2n x 2n real matrix from the columns of hessian_operator.

    Independent cross-check for the iterative path; limited to small grids.
    """
    n = base.grid.node_count
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes, grid has {n}")
    return _dense(hessian_operator(base, p), 2 * n)


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
                                 count: int = 5, seed: int = 0) -> SpectrumReport:
    """Iterative smallest Hessian eigenvalues at exp(i*theta) on the
    complement of the phase direction, labeled by Fourier mode and branch
    and compared with the analytic symbol."""
    base = constant(theta, grid)
    hphase = hessian_apply(base, ComplexField(grid, 1j * base.values), p)
    degenerate_residual = l2_norm(hphase)
    vals, vecs = _smallest_pairs(base, p, count, np.random.default_rng(seed))
    plus, minus = _symbol_branches(grid, p.c)
    # the smallest symbol entry off the phase direction, the lower branch at
    # flat index 0 (k = 0)
    analytic_min = float(min(plus.min(), minus.ravel()[1:].min()))
    entries = []
    for value, vec in zip(vals.tolist(), vecs.T):
        mode = _dominant_mode(grid, from_real(vec, grid))
        at = tuple(m % size for m, size in zip(mode, grid.sizes))
        branch = "-" if abs(value - minus[at]) <= abs(value - plus[at]) else "+"
        entries.append((value, mode, branch))
    return SpectrumReport(
        speed=p.c,
        period=grid.period,
        eigenvalues=tuple(entries),
        degenerate_residual=degenerate_residual,
        analytic_min=analytic_min,
        positivity=entries[0][0] > 0.0,
    )


# ---------------------------------------------------------------------------
# Poincare constants and the weighted eigenvalue
# ---------------------------------------------------------------------------


def poincare_constant(grid: TorusGrid) -> tuple[float, float]:
    """(lambda_T(1), C_T): smallest nonzero eigenvalue of -Lap on the torus,
    (2*pi/T)^2, and the constant C_T = lambda_T(1)/4."""
    lam = (2.0 * np.pi / grid.period) ** 2
    return lam, lam / 4.0


def weighted_eigenvalue(weight: np.ndarray, grid: TorusGrid) -> float:
    """Smallest eigenvalue of int|grad u|^2 / int f u^2 over real u with the
    weighted-mean constraint int f u = 0, for weights 1/2 <= f <= 2.

    Solved densely: -Lap restricted to the constraint complement against the
    weight Gram matrix. Satisfies lambda_T(f) >= lambda_T(2) = lambda_T(1)/2.
    scipy.linalg is imported on first use.
    """
    import scipy.linalg

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
    lap = grid.laplacian_symbol
    A = _dense(lambda x: fft_inverse(lap * fft_forward(x.reshape(grid.sizes))).real.ravel(), n)
    B = np.diag(w.ravel())
    Q = scipy.linalg.null_space(w.ravel()[None, :])
    vals = scipy.linalg.eigh(Q.T @ A @ Q, Q.T @ B @ Q, eigvals_only=True,
                             subset_by_index=(0, 0))
    return float(vals[0])


# ---------------------------------------------------------------------------
# Constancy scan
# ---------------------------------------------------------------------------

_SCAN_AMPLITUDES = (0.1, 0.5, 1.0)
# Radius of the vortex test function added to the starts where it fits.
_SCAN_VORTEX_R = 2.0


def constancy_scan(c: float, T_values, starts: int, resolution: int,
                   seed: int = 0, band: int = 4) -> ThresholdReport:
    """Multistart minimization per period: do nonconstant critical points show
    up? Starts are band-limited perturbations of 0 and of the constant 1 with
    cycled amplitudes, plus the radius-2 vortex test function whenever it fits
    the cell. Each start descends with the default MinimizeOptions.

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
            inits.append(vortex_test_function(fitted_vortex_ansatz(_SCAN_VORTEX_R, T), grid))
        except SupportTooLarge:
            pass
        nonconstant = 0
        unconverged = 0
        for init in inits:
            point = minimize_action(init, p)
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
