"""Hessian spectra at constant solutions, Poincare constants and the
small-period constancy scan.

At a modulus-one constant the second variation diagonalizes per Fourier mode
with eigenvalue branches |xi|^2 + 1 +- sqrt(1 + c^2 xi1^2); the k = 0 pair is
{0, 2}, the zero belonging to the global phase direction i*e^{i theta}.

One eigensolver serves both sign questions of the paper: ARPACK's implicitly
restarted Lanczos (lanczos_smallest) on the matrix-free Hessian with the
symmetry directions (symmetry_basis; no other module removes them) projected
out and shifted up (hessian_operator). At a constant it gives the spectrum
off the phase direction, cross-checked against the symbol formula and a
dense eigensolve on small grids; at a saddle it gives the index witness
(smallest_direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import SupportTooLarge, constant, fitted_vortex_ansatz, perturb, vortex_test_function
from .field import ComplexField, TorusGrid, fft_forward, fft_inverse, from_real, l2_norm, to_real
from .functionals import Params, hessian_apply
from .minimize import CONSTANT_CLASSES, minimize_action

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
# Matrix-free eigensolves
# ---------------------------------------------------------------------------


def lanczos_smallest(matvec, dim: int, count: int, rng, tol: float = 1e-10):
    """Smallest `count` eigenpairs of a symmetric operator on R^dim,
    multiplicity included.

    Implicitly restarted Lanczos (ARPACK, through scipy.sparse.linalg.eigsh)
    from start vectors drawn from `rng`; tol is ARPACK's relative accuracy
    of the Ritz values. In exact arithmetic a Krylov space holds one vector
    per distinct eigenvalue, and ARPACK finds further copies of a multiple
    eigenvalue only through rounding, so it can return a set that skips one.
    For count > 1 the solve is therefore followed by one on the complement
    of the pairs found (moved up the spectrum), and a value found there
    below them joins the set until none does; for count == 1 a skipped copy
    cannot change the result. Returns (values, vectors) sorted ascending.
    Raises NoConvergence when ARPACK spends its iteration budget.
    scipy.sparse.linalg is imported on first use, so importing the package
    does not load it.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    def smallest(op, k):
        A = LinearOperator((dim, dim), matvec=op, dtype=np.float64)
        try:
            return eigsh(A, k=k, which="SA", tol=tol, v0=rng.standard_normal(dim))
        except ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK: {exc}") from exc

    vals, vecs = smallest(matvec, count)
    while count > 1:
        order = np.argsort(vals)[:count]
        vals, vecs = vals[order], vecs[:, order]
        top = float(vals[-1])
        extra_val, extra_vec = smallest(_deflate(matvec, vecs, top + 1.0), 1)
        if extra_val[0] >= top - tol * (1.0 + abs(top)):
            return vals, vecs
        vals = np.append(vals, extra_val)
        vecs = np.column_stack([vecs, extra_vec])
    return vals, vecs


def _deflate(matvec, V: np.ndarray, shift: float):
    """matvec with the orthonormal columns of V projected out on both sides
    and moved up to the eigenvalue `shift`."""

    def op(vec):
        coeff = V.T @ vec
        out = matvec(vec - V @ coeff)
        out -= V @ (V.T @ out)
        return out + V @ (shift * coeff)

    return op


def symmetry_basis(f: ComplexField) -> np.ndarray:
    """Orthonormal columns spanning i*f and d_j f, flattened to real
    coordinates; directions that vanish (at constants, at 0) are dropped.

    These are the directions of the global phase and the translations, along
    which the Hessian of the action is singular at every critical point.
    """
    grid = f.grid
    v = f.values
    spec = fft_forward(v)
    columns = [1j * v] + [fft_inverse(1j * grid.deriv_symbols[ax] * spec)
                          for ax in range(grid.dim)]
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
    """Matrix-free symmetric Hessian at `base` on flattened real coordinates
    with symmetry_basis(base) projected out on both sides and moved up to
    the eigenvalue 4 + (2*pi/T)^2 * max(M)^2, above the top of the spectrum
    at a constant, so the bottom of its spectrum is that of the Hessian off
    the phase and translation directions."""
    grid = base.grid

    def matvec(vec):
        phi = ComplexField(grid, from_real(vec, grid))
        return to_real(hessian_apply(base, phi, p).values)

    shift = 4.0 + (2.0 * np.pi / grid.period) ** 2 * max(grid.sizes) ** 2
    return _deflate(matvec, symmetry_basis(base), shift)


def smallest_direction(base: ComplexField, p: Params, rng) -> ComplexField:
    """Smallest-eigenvalue Hessian direction at `base` on the complement of
    the symmetry directions i*base and d_j base (symmetry_basis), which
    carry the zero modes of every critical point.

    The Ritz values are resolved to a loose relative accuracy (1e-3), which
    keeps this cheap on large grids when only the sign of the Rayleigh
    quotient matters, as for an index witness.
    """
    grid = base.grid
    matvec = hessian_operator(base, p)
    _, vecs = lanczos_smallest(matvec, 2 * grid.node_count, 1, rng, tol=1e-3)
    return ComplexField(grid, from_real(vecs[:, 0], grid))


def dense_hessian(base: ComplexField, p: Params) -> np.ndarray:
    """Assemble the full Hessian, symmetry directions included, as a
    2n x 2n real matrix from hessian_apply columns.

    Independent cross-check for the iterative path; limited to small grids.
    """
    grid = base.grid
    n = grid.node_count
    if n > DENSE_NODE_LIMIT:
        raise ValueError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes, grid has {n}")
    A = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        A[:, j] = to_real(hessian_apply(base, ComplexField(grid, from_real(e, grid)), p).values)
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
                                 count: int = 5, seed: int = 0) -> SpectrumReport:
    """Iterative smallest Hessian eigenvalues at exp(i*theta) on the
    complement of the phase direction, labeled by Fourier mode and branch
    and compared with the analytic symbol."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base = constant(theta, grid)
    hphase = hessian_apply(base, ComplexField(grid, 1j * base.values), p)
    degenerate_residual = l2_norm(hphase)
    matvec = hessian_operator(base, p)
    rng = np.random.default_rng(seed)
    vals, vecs = lanczos_smallest(matvec, 2 * grid.node_count, count, rng)
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
