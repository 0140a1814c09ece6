"""Torus grids, spectral calculus and phase lifting for periodic complex fields.

The domain is the cube [0, T]^N with opposite faces identified, sampled on a
uniform grid. Derivatives act as Fourier multipliers and integrals are
rectangle-rule sums, which is spectrally accurate for smooth periodic
integrands. Axis 0 is the traveling direction x1. A ComplexField holds node
values; Fourier coefficients are plain arrays (transform_forward).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GPTW_MAGIC = b"GPTW"
GPTW_VERSION = 1

# Path-dependence tolerance for phase unwrapping, radians per grid node.
UNWRAP_TOL = 1e-6
# Modulus floor below which a global phase lifting is refused.
LIFT_FLOOR = 0.1


class GridMismatch(ValueError):
    """Operands live on different grids."""


class VortexPresent(RuntimeError):
    """No global lifting: the modulus dips below the floor somewhere."""


class InconsistentWinding(RuntimeError):
    """Phase unwrapping is path dependent beyond tolerance (unresolved vortices)."""


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
    def spacing(self) -> tuple[float, ...]:
        return tuple(self.period / m for m in self.sizes)

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
        return np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(int)

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

    @cached_property
    def helmholtz_symbol(self) -> np.ndarray:
        """1 + |xi|^2, the inverse-Helmholtz preconditioner denominator."""
        return 1.0 + self.laplacian_symbol


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

    def conjugate(self) -> "ComplexField":
        return self.with_values(np.conj(self.values))

    def modulus(self) -> np.ndarray:
        return np.abs(self.values)


def _same_grid(a: ComplexField, b: ComplexField):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def fft_forward(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT over every axis of a raw node array.

    With fft_inverse, the only transforms of the package. scipy.fft is
    imported on first use, since it loads scipy.special (about 0.1 s and
    5 MB), and looked up at call time, so wrappers installed on it see
    every call.
    """
    import scipy.fft

    return scipy.fft.fftn(values)


def fft_inverse(spec: np.ndarray) -> np.ndarray:
    """Inverse of fft_forward; it carries the 1/node_count factor."""
    import scipy.fft

    return scipy.fft.ifftn(spec)


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
    return fft_forward(f.values) / f.grid.node_count


def transform_inverse(coeffs: np.ndarray, grid: TorusGrid) -> ComplexField:
    """The field whose transform_forward coefficients are `coeffs`."""
    return ComplexField(grid, fft_inverse(coeffs * grid.node_count))


def spectral_derivative(f: ComplexField, axis: int) -> ComplexField:
    """Partial derivative along one axis (0-based; axis 0 is x1).

    Multiplies mode k by i*(2*pi*k/T) with the Nyquist mode zeroed, so
    derivatives of real fields stay real.
    """
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dimension {f.grid.dim}")
    sym = 1j * f.grid.deriv_symbols[axis]
    return f.with_values(fft_inverse(fft_forward(f.values) * sym))


def l2_product(a: ComplexField, b: ComplexField) -> float:
    """Real L2 pairing int a.b with a.b = Re(a)Re(b) + Im(a)Im(b)."""
    _same_grid(a, b)
    return float(np.vdot(a.values, b.values).real) * a.grid.quad_weight


def l2_norm(f: ComplexField) -> float:
    return float(np.linalg.norm(f.values)) * np.sqrt(f.grid.quad_weight)


def inner_product(a: ComplexField, b: ComplexField) -> float:
    """H1 pairing: sum of derivative L2 pairings plus the L2 pairing."""
    _same_grid(a, b)
    total = l2_product(a, b)
    for ax in range(a.grid.dim):
        total += l2_product(spectral_derivative(a, ax), spectral_derivative(b, ax))
    return total


def axis_windings(f: ComplexField) -> tuple[tuple[int, ...], float]:
    """Phase circulation along each axis, checked on every grid line.

    Returns (windings, worst_dev): windings[j] is the net phase increment of
    the origin line along axis j divided by 2*pi, rounded to an integer;
    worst_dev is the largest deviation of any line's circulation from the
    corresponding 2*pi*integer, in radians per node. Large worst_dev signals
    unresolved vortices (path-dependent unwrapping).
    """
    v = f.values
    windings = []
    worst = 0.0
    two_pi = 2.0 * np.pi
    for ax in range(f.grid.dim):
        inc = np.angle(np.roll(v, -1, axis=ax) * np.conj(v))
        circ = inc.sum(axis=ax)
        origin = float(circ.flat[0])
        w = int(np.rint(origin / two_pi))
        dev = float(np.max(np.abs(circ - two_pi * w))) / f.grid.sizes[ax]
        windings.append(w)
        worst = max(worst, dev)
    return tuple(windings), worst


@dataclass(frozen=True, eq=False)
class LiftResult:
    """Polar representation rho*exp(i*theta) of a vortexless field.

    theta is the continuous unwrapped representative; it equals a periodic
    function plus the linear winding part 2*pi*w_j*x_j/T.
    """

    grid: TorusGrid
    rho: np.ndarray
    theta: np.ndarray
    windings: tuple[int, ...]

    def theta_periodic(self) -> np.ndarray:
        """theta with the linear winding part removed."""
        out = self.theta.copy()
        for ax, w in enumerate(self.windings):
            if w:
                out = out - (2.0 * np.pi * w / self.grid.period) * self.grid.coords[ax]
        return out

    def reconstruct(self) -> ComplexField:
        return ComplexField(self.grid, self.rho * np.exp(1j * self.theta))


def lift(f: ComplexField) -> LiftResult:
    """Lift f = rho*exp(i*theta) with integer windings per axis.

    Unwraps along the axis-0 line through the grid origin first, then sweeps
    the remaining axes. Raises VortexPresent when min |f| < LIFT_FLOOR and
    InconsistentWinding when circulation differs between parallel lines by
    more than UNWRAP_TOL.
    """
    rho = np.abs(f.values)
    lo = float(rho.min())
    if lo < LIFT_FLOOR:
        raise VortexPresent(f"min |f| = {lo:.3e} below floor {LIFT_FLOOR:.3e}")
    windings, dev = axis_windings(f)
    if dev > UNWRAP_TOL:
        raise InconsistentWinding(
            f"circulation varies between lines by {dev:.3e} rad/node (tol {UNWRAP_TOL:.1e})"
        )
    theta = np.angle(f.values)
    dim = f.grid.dim
    for ax in range(dim):
        block = tuple(slice(None) if a <= ax else slice(0, 1) for a in range(dim))
        theta[block] = np.unwrap(theta[block], axis=ax)
    return LiftResult(f.grid, rho, theta, windings)


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
