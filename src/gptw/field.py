"""Torus grids, spectral calculus and vortex counting for periodic complex fields.

The domain is the cube [0, T]^N with opposite faces identified, sampled on a
uniform grid. Derivatives act as Fourier multipliers and integrals are
rectangle-rule sums, which is spectrally accurate for smooth periodic
integrands. Axis 0 is the traveling direction x1. A ComplexField holds node
values; Fourier coefficients are plain arrays: transform_forward(f) holds
f's, and ComplexField(grid, fft_inverse(coeffs)) is the field of coeffs.

Grids of one torus are nested by halving: resample moves a field between
them by spectral interpolation, zero-padding or truncating its spectrum
(Trefethen, Spectral Methods in MATLAB, 2000), and coarsest_grid picks the
coarsest halving whose spectral tail says it still resolves a field. The
solvers use the pair for nested iteration (Brandt, Math. Comp. 31, 1977):
find a basin on the coarse grid, finish and certify on the target grid.
The tail is the package's one resolution indicator: spectral_tail reports
it on a field's own grid, for functionals.certify, reading resolution off
the decay of the Fourier coefficients (Boyd, Chebyshev and Fourier
Spectral Methods, 2nd ed., 2001, ch. 2).

The reflection class H = {psi : psi(-x) = conj psi(x)}, with x -> -x the
grid reflection i -> -i mod M on every axis, holds every field of the
mountain pass: the constant 1, the vortex test function, the string and the
saddle; it also holds criterion 5's start 1 + w_R and its minimizer.
in_class tests membership to rounding (REFLECTION_TOL), and rejects most
fields off H from their mean alone. A field of H has a real normalized
spectrum, and is stored as the conjugate of its
values on the half grid, last axis 0..M/2 (half_values; mirror restores
the full grid with no transform). The class transform pair is the real one:
class_forward(half) = scipy.fft.irfftn(half, s=sizes) is the normalized
spectrum, class_inverse(spec) = scipy.fft.rfftn(spec) the half-grid values,
each on half the data of a complex transform. A sum over the nodes of a
quantity even under the reflection (|psi|^2, psi.phi) is the half-grid sum
with the interior last-axis columns weighted twice and columns 0 and M/2,
which the reflection maps into themselves, once (functionals.Kernel).

Vortices are counted, not inferred from a small modulus: vortex_count sums
the phase increments around each grid cell, the discrete winding number of
the lattice, which is an exact integer on node values with no zero and
needs no transform.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GPTW_MAGIC = b"GPTW"
GPTW_VERSION = 1

# Largest spectral tail (coarsest_grid) of a field on a grid that resolves
# it. On the criterion-6 saddle the tail is within a factor 6-32 of the
# action error against the 128^2 saddle, so 1e-5 keeps that error near 1e-5
# or below. Relaxing the criterion-6 string (T = 40, R = 8) at 32^2, where
# 1 + w_R has a tail of 4e-4, instead of 64^2 (1.2e-6) moves its 128^2
# gamma by 7.7e-4.
TAIL_BOUND = 1e-5
# Largest sup-norm deviation |psi(-x) - conj psi(x)|, relative to max |psi|,
# of a field in_class accepts. Fields built in the class and moved through
# transforms deviate by rounding: 1.6e-15 on the string's nodes, 2.1e-14 on
# the 128^2 saddle of a full-space Newton solve, whose zero modes i*psi and
# d_j psi lie outside H and so drift freely by rounding. A node translated
# by one grid node or rotated by a phase deviates at order one. The class
# route projects onto H, which moves the action only at second order in
# the deviation.
REFLECTION_TOL = 1e-12


class GridMismatch(ValueError):
    """Operands live on different grids."""


class FieldFormatError(ValueError):
    """Malformed or truncated GPTW field file."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of [0, T]^N, N in {2, 3}, equal period per axis.

    sizes : points per axis, each even and >= 8
    period : finite side length T > 0
    """

    sizes: tuple[int, ...]
    period: float

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "period", float(self.period))
        if len(sizes) not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {len(sizes)}")
        if any(m < 8 or m % 2 != 0 for m in sizes):
            raise ValueError(f"axis sizes must be even and >= 8, got {sizes}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and positive, got {self.period}")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def node_count(self) -> int:
        return math.prod(self.sizes)

    @property
    def cell_volume(self) -> float:
        return self.period**self.dim

    @property
    def quad_weight(self) -> float:
        """Rectangle-rule weight prod(T/M_i)."""
        return self.cell_volume / self.node_count

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        out = []
        for ax, m in enumerate(self.sizes):
            shape = [1] * self.dim
            shape[ax] = m
            out.append((np.arange(m) * (self.period / m)).reshape(shape))
        return tuple(out)

    def integer_modes(self, axis: int) -> np.ndarray:
        """Integer wave numbers k in [-M/2, M/2) in FFT storage order."""
        m = self.sizes[axis]
        return (np.arange(m) + m // 2) % m - m // 2

    def frequency(self, axis: int, zero_nyquist: bool) -> np.ndarray:
        """Broadcastable angular frequency 2*pi*k/T along one axis.

        With zero_nyquist the unpaired k = -M/2 mode is dropped, which keeps
        materialized first derivatives of real fields real.
        """
        m = self.sizes[axis]
        xi = (2.0 * np.pi / self.period) * self.integer_modes(axis).astype(float)
        if zero_nyquist:
            xi[m // 2] = 0.0
        shape = [1] * self.dim
        shape[axis] = m
        return xi.reshape(shape)

    @cached_property
    def deriv_symbols(self) -> tuple[np.ndarray, ...]:
        """Nyquist-zeroed first-derivative frequencies per axis."""
        return tuple(self.frequency(ax, zero_nyquist=True) for ax in range(self.dim))

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """|xi|^2 with the true (unzeroed) Nyquist frequency, shape = sizes.

        Keeping the full symbol in -Laplacian avoids a spurious kernel on the
        checkerboard mode; the zeroed symbol is used only where a single
        derivative is materialized.
        """
        acc = np.zeros(self.sizes)
        for ax in range(self.dim):
            acc = acc + self.frequency(ax, zero_nyquist=False) ** 2
        return acc


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex node values on a TorusGrid, one per node, row-major.

    The array is frozen after construction so fields can be shared freely; a
    complex128 C-contiguous array is frozen in place, not copied, so
    ComplexField(g, a) makes the caller's `a` read-only.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.sizes:
            raise ValueError(f"value shape {v.shape} != grid sizes {self.grid.sizes}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field contains non-finite values")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "ComplexField":
        return ComplexField(self.grid, values)


def _same_grid(a: ComplexField, b: ComplexField):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def fft_forward(values: np.ndarray) -> np.ndarray:
    """Normalized forward DFT fft(values) / node_count over every axis of a
    raw node array, so the mode-0 coefficient is the mean.

    With fft_inverse, the full-space transforms of the package (the class
    pair is class_forward and class_inverse). The 1/node_count
    factor is applied inside the transform (norm="forward"), which costs
    nothing next to a separate pass over the array. scipy.fft is imported
    on first use, since it loads scipy.special (about 0.1 s and 5 MB), and
    looked up at call time, so wrappers installed on it see every call.
    """
    import scipy.fft

    return scipy.fft.fftn(values, norm="forward")


def fft_inverse(spec: np.ndarray) -> np.ndarray:
    """Inverse of fft_forward: the plain sum over the modes."""
    import scipy.fft

    return scipy.fft.ifftn(spec, norm="forward")


def class_forward(half: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """The real normalized spectrum of the class field stored as `half`
    (half_values), shape `sizes`: irfftn(half, s=sizes), whose 1/node_count
    normalization is fft_forward's. Looked up at call time, as fft_forward."""
    import scipy.fft

    return scipy.fft.irfftn(half, s=sizes)


def class_inverse(spec: np.ndarray) -> np.ndarray:
    """Inverse of class_forward: the half-grid storage rfftn(spec) of the
    class field whose real normalized spectrum is `spec`, the plain sum
    over the modes of conj psi = sum spec(k) e^{-ikx}."""
    import scipy.fft

    return scipy.fft.rfftn(spec)


def _reflected(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """values at the reflected indices i -> -i mod M along `axes`."""
    return np.roll(np.flip(values, axes), 1, axes)


def in_class(f: ComplexField) -> bool:
    """Whether f lies in H, f(-x) = conj f(x), to REFLECTION_TOL relative
    to max |f|: whether the deviation d(x) = f(-x) - conj f(x) has
    max |d| <= REFLECTION_TOL * max |f|. No transform.

    Most fields are rejected from one sum. The reflection permutes the
    nodes, so the mean of f(-x) is the mean of f, and the mean of d is
    mean f - conj(mean f) = 2i Im(mean f). As |mean d| <= max |d|, a field
    with |Im mean f| > REFLECTION_TOL * max|f| / 2 deviates beyond the
    tolerance. Rounding in the sum, about log2(n) ulps of max |f| on n
    nodes, is two orders below the tolerance. Every perturbed start of the
    constancy scan fails this test, and so does a class field of mean m
    rotated by a phase theta with |m sin theta| above the bound, such as
    the translated and rotated criterion-5 starts of perfbench.

    Otherwise d is formed in place in the one full-size temporary, the
    reflected copy of the values, and max |d| read from its modulus, a real
    array of half that size.
    """
    v = f.values
    top = float(np.abs(v).max())
    if abs(float(v.sum().imag)) > 0.5 * REFLECTION_TOL * top * v.size:
        return False
    d = _reflected(v, tuple(range(v.ndim)))
    np.conjugate(d, out=d)
    d -= v
    return bool(np.abs(d).max() <= REFLECTION_TOL * top)


def half_values(values: np.ndarray) -> np.ndarray:
    """The class storage of node values: their conjugate on the half grid,
    last axis 0..M/2, a new array."""
    return np.conj(values[..., : values.shape[-1] // 2 + 1])


def mirror(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Full node values of the class field stored as `half`, no transform:
    psi = conj(half) on the half grid, and psi(x) = half(-x) beyond it."""
    m = grid.sizes[-1] // 2
    out = np.empty(grid.sizes, dtype=np.complex128)
    np.conjugate(half, out=out[..., : m + 1])
    # last-axis column j > m reflects to column M - j, in 1..m-1
    out[..., m + 1:] = _reflected(half[..., m - 1:0:-1], tuple(range(grid.dim - 1)))
    return out


def to_real(values: np.ndarray) -> np.ndarray:
    """Complex node values as real coordinates, block layout [Re; Im]."""
    return np.concatenate([values.real.ravel(), values.imag.ravel()])


def from_real(vec: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Inverse of to_real: node values of shape grid.sizes."""
    n = grid.node_count
    out = np.empty(n, dtype=np.complex128)
    out.real = vec[:n]
    out.imag = vec[n:]
    return out.reshape(grid.sizes)


def transform_forward(f: ComplexField) -> np.ndarray:
    """Fourier coefficients of f as an array of shape grid.sizes, in FFT
    storage order (grid.integer_modes), normalized so the mode-0
    coefficient equals the mean of the field."""
    return fft_forward(f.values)


def _resize_axis(spec: np.ndarray, axis: int, size: int) -> np.ndarray:
    """Normalized spectrum `spec` with `axis` zero-padded or truncated to
    `size` modes: padding splits the Nyquist mode k = -n/2 evenly between
    k = +n/2 and k = -n/2, truncation folds k = +m/2 and k = -m/2 into it."""
    src = np.moveaxis(spec, axis, 0)
    n = src.shape[0]
    out = np.zeros((size,) + src.shape[1:], dtype=np.complex128)
    h = min(n, size) // 2
    out[:h] = src[:h]
    out[size - h + 1:] = src[n - h + 1:]
    if size > n:
        out[h] = out[size - h] = 0.5 * src[h]
    else:
        out[h] = src[h] + src[n - h]
    return np.moveaxis(out, 0, axis)


def resample(f: ComplexField, grid: TorusGrid) -> ComplexField:
    """f on another grid of its period and dimension, by zero-padding or
    truncating its normalized spectrum axis by axis; f itself when `grid`
    is f.grid, else two transforms.

    Prolongation splits the Nyquist mode evenly between +n/2 and -n/2, so
    it gives the trigonometric interpolant of f, which takes f's values at
    f's nodes. Restriction drops the modes beyond the coarse Nyquist mode
    and folds +m/2 and -m/2 into it, so it undoes a prolongation. Both are
    exact for band-limited fields.
    """
    if grid == f.grid:
        return f
    if grid.dim != f.grid.dim or grid.period != f.grid.period:
        raise GridMismatch(f"cannot resample {f.grid} onto {grid}")
    spec = fft_forward(f.values)
    for ax, size in enumerate(grid.sizes):
        if size != f.grid.sizes[ax]:
            spec = _resize_axis(spec, ax, size)
    return ComplexField(grid, fft_inverse(spec))


def _tails(f: ComplexField):
    """Yield (grid, tail) for f.grid and then for each halving of it while
    the sizes stay even and >= 8, with the spectral tail of coarsest_grid
    (0 when it is below the rounding of f's energy), all from one forward
    transform of f."""
    power = np.abs(fft_forward(f.values)) ** 2
    noise = np.finfo(float).eps * float(power.sum())
    # max_j |k_j| / M_j of each mode of f.grid; on the grid halved l times
    # the same mode sits at 2^l times this fraction of its axis
    reach = np.zeros(f.grid.sizes)
    for ax, m in enumerate(f.grid.sizes):
        shape = [1] * f.grid.dim
        shape[ax] = m
        reach = np.maximum(reach, np.abs(f.grid.integer_modes(ax)).reshape(shape) / m)
    total = float(power[reach > 0].sum())
    grid = f.grid
    while True:
        tail = float(power[reach > 1.0 / 3.0].sum())
        yield grid, (tail / total if tail > noise else 0.0)
        sizes = tuple(m // 2 for m in grid.sizes)
        if any(m < 8 or m % 2 for m in sizes):
            return
        reach *= 2.0
        grid = TorusGrid(sizes, grid.period)


def spectral_tail(f: ComplexField) -> float:
    """The spectral tail of f on its own grid (see coarsest_grid), from one
    forward transform: 0 for a field whose nonconstant energy is at
    rounding level, and small when the grid resolves f."""
    return next(_tails(f))[1]


def coarsest_grid(f: ComplexField) -> TorusGrid:
    """The coarsest grid that resolves f among f.grid and its halvings.

    Every axis is halved while the sizes stay even and >= 8 and f has a
    spectral tail <= TAIL_BOUND on the halved grid.
    The tail on a grid of n points per axis is the energy sum |f_k|^2 of
    f's modes with max_j |k_j| > n/3 over that of all its nonconstant
    modes: the share of the nonconstant energy that the 2/3 rule would cut
    there, or that the grid cannot hold at all. A tail below the rounding
    of f's energy counts as none, so a constant field halves as far as the
    sizes allow. One forward transform of f on its own grid gives the tail
    of every halving.
    """
    tails = _tails(f)
    grid, _ = next(tails)
    for coarse, tail in tails:
        if tail > TAIL_BOUND:
            break
        grid = coarse
    return grid


def l2_product(a: ComplexField, b: ComplexField) -> float:
    """Real L2 pairing int a.b with a.b = Re(a)Re(b) + Im(a)Im(b)."""
    _same_grid(a, b)
    return float(np.vdot(a.values, b.values).real) * a.grid.quad_weight


def l2_norm(f: ComplexField) -> float:
    return float(np.linalg.norm(f.values)) * np.sqrt(f.grid.quad_weight)


def _increments(v: np.ndarray, axis: int) -> np.ndarray:
    """Phase increment angle(v_b * conj(v_a)) in (-pi, pi] from each node a
    to its periodic neighbour b along `axis`. The product is formed in the
    rolled copy, so at most two arrays of v's size are live."""
    prod = np.roll(v, -1, axis=axis)
    prod *= np.conj(v)
    return np.angle(prod)


def axis_windings(f: ComplexField) -> tuple[int, ...]:
    """Phase circulation along the grid line through the origin in each
    axis direction, divided by 2*pi and rounded to an integer.

    Two parallel lines differ in circulation by 2*pi times the sum of the
    cell windings in the strip between them, so when vortex_count is (0, 0)
    every line of an axis carries the same winding to rounding.
    """
    out = []
    for ax in range(f.grid.dim):
        line = f.values[tuple(slice(None) if a == ax else 0 for a in range(f.grid.dim))]
        out.append(int(np.rint(_increments(line, 0).sum() / (2.0 * np.pi))))
    return tuple(out)


def vortex_count(f: ComplexField) -> tuple[int, int]:
    """(plus, minus): the total positive and negative winding of the grid
    cells of f.

    The winding of a cell is the sum of the four phase increments around it
    divided by 2*pi, the discrete winding number of the lattice. It is an
    integer to rounding whenever no node value is exactly 0, and it uses the
    node values only. In 3-D every cell face of the three orientations counts, so the
    count is the number of vortex-line crossings. The cell windings of a
    periodic field sum to zero, since each edge enters two cells with
    opposite signs, so plus == minus.
    """
    inc = [_increments(f.values, ax) for ax in range(f.grid.dim)]
    plus = minus = 0
    for a, b in itertools.combinations(range(f.grid.dim), 2):
        # inc[a] + roll(inc[b]) - roll(inc[a]) - inc[b], summed in the
        # rolled copy and rounded there to the cell windings
        w = np.roll(inc[b], -1, axis=a)
        w += inc[a]
        w -= np.roll(inc[a], -1, axis=b)
        w -= inc[b]
        w /= 2.0 * np.pi
        np.rint(w, out=w)
        plus += int(w[w > 0].sum())
        minus -= int(w[w < 0].sum())
    return plus, minus


# ---------------------------------------------------------------------------
# GPTW binary field files: magic "GPTW", u32 version, u32 N, u32 M_1..M_N,
# f64 T, f64 c, then node values as little-endian (re, im) f64 pairs,
# row-major.
# ---------------------------------------------------------------------------


def write_field(path, f: ComplexField, c: float = 0.0):
    grid = f.grid
    header = GPTW_MAGIC
    header += struct.pack("<II", GPTW_VERSION, grid.dim)
    header += struct.pack(f"<{grid.dim}I", *grid.sizes)
    header += struct.pack("<dd", grid.period, float(c))
    payload = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_header(raw: bytes) -> dict:
    """Parse and validate a GPTW header, returning its fields."""
    if len(raw) < 12:
        raise FieldFormatError(f"file too short for a GPTW header ({len(raw)} bytes)")
    if raw[:4] != GPTW_MAGIC:
        raise FieldFormatError(f"bad magic {raw[:4]!r}, expected {GPTW_MAGIC!r}")
    version, dim = struct.unpack_from("<II", raw, 4)
    if version != GPTW_VERSION:
        raise FieldFormatError(f"unsupported format version {version}")
    if dim not in (2, 3):
        raise FieldFormatError(f"dimension must be 2 or 3, got {dim}")
    need = 12 + 4 * dim + 16
    if len(raw) < need:
        raise FieldFormatError(f"truncated header: {len(raw)} bytes, need {need}")
    sizes = struct.unpack_from(f"<{dim}I", raw, 12)
    period, c = struct.unpack_from("<dd", raw, 12 + 4 * dim)
    return {
        "version": version,
        "dim": dim,
        "sizes": tuple(int(m) for m in sizes),
        "period": period,
        "c": c,
        "payload_offset": need,
    }


def read_field(path) -> tuple[ComplexField, float]:
    """Read a GPTW file, returning the field and the stored wave speed.
    Every malformed file raises FieldFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = read_header(raw)
    try:
        grid = TorusGrid(head["sizes"], head["period"])
    except ValueError as exc:
        raise FieldFormatError(f"invalid grid in header: {exc}") from exc
    if not math.isfinite(head["c"]):
        raise FieldFormatError(f"speed in header must be finite, got {head['c']}")
    n = grid.node_count
    payload = raw[head["payload_offset"]:]
    if len(payload) != 16 * n:
        raise FieldFormatError(
            f"truncated node data: expected {16 * n} bytes for {n} nodes, found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.sizes)
    try:
        return ComplexField(grid, values), head["c"]
    except ValueError as exc:
        raise FieldFormatError(f"invalid node data: {exc}") from exc
