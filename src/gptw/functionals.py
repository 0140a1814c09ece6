"""Action functional I = E - c*P on the torus: values, gradients, certificates.

E is the Ginzburg-Landau energy, P the first momentum component. Critical
points of I at speed c are exactly the T-periodic traveling-wave profiles
solving  i*c*d_x1 psi + Lap psi + (1 - |psi|^2) psi = 0.  The gradient here is
the L2 gradient, so its norm is directly the residual of that equation.
certify reports that residual, the equation integrated over the cell, and
the spectral tail (field.spectral_tail), which says whether the grid
resolves the field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import (
    ComplexField,
    GridMismatch,
    TorusGrid,
    class_forward,
    class_inverse,
    fft_forward,
    fft_inverse,
    half_values,
    in_class,
    mirror,
    spectral_tail,
)


@dataclass(frozen=True)
class Params:
    """The wave speed c of the action I = E - c*P."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"wave speed must be finite and >= 0, got {self.c}")


def default_grad_tol(grid: TorusGrid) -> float:
    """Residual target 1e-8 * T^(N/2); the L2 residual scales like sqrt(volume)."""
    return 1e-8 * grid.period ** (grid.dim / 2.0)


@dataclass(frozen=True)
class ActionReport:
    """Energy split, momentum and action of one field at one speed."""

    kinetic: float
    potential: float
    momentum: float
    speed: float
    action: float

    @classmethod
    def assemble(cls, kinetic, potential, momentum, speed) -> "ActionReport":
        return cls(kinetic, potential, momentum, speed,
                   kinetic + potential - speed * momentum)


@dataclass(frozen=True)
class Certificate:
    """Solution certificates (see certify): the gradient residual, the
    integrated equation int (1-|f|^2) f and the spectral tail."""

    residual: float
    integral: complex
    tail: float


def admits(trial: float, value: float) -> bool:
    """The acceptance test of a step from action `value` to `trial` in the
    descent, its floor rule and the string: a rise of at most 1e-14 * (1 + |value|)."""
    return trial <= value + 1e-14 * (1.0 + abs(value))


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 as a new real array."""
    out = np.square(v.real)
    out += np.square(v.imag)
    return out


def density(v: np.ndarray) -> np.ndarray:
    """The Ginzburg-Landau density 1 - |v|^2 as a new real array."""
    out = _abs2(v)
    np.subtract(1.0, out, out=out)
    return out


def _pairing(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise real pairing u.v = Re(u)Re(v) + Im(u)Im(v)."""
    out = u.real * v.real
    out += u.imag * v.imag
    return out


def _sum_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) of two real arrays of one shape, as one BLAS pairing."""
    return float(np.dot(a.ravel(), b.ravel()))


class Kernel:
    """Action, L2 gradient and Hessian of I = E - c*P on raw node arrays,
    in one of two bases.

    Every linear operator is a Fourier symbol on the grid: -Lap - c*i*d_x1
    is the real multiplier |xi|^2 + c*xi1 (xi1 Nyquist-zeroed), so a
    gradient or a Hessian product costs one forward and one inverse
    transform. The cubic term is evaluated pointwise on the nodes, with no
    2/3-rule filter: solutions are smooth, and at the recommended
    resolutions aliasing sits below the solver tolerances.

    The full basis (half=False) holds node values of shape grid.sizes and
    complex normalized spectra (fft_forward, fft_inverse). The class basis
    (half=True) holds a field of the reflection class H of gptw.field as
    field.half_values, the conjugate of its values on the half grid, and its
    real normalized spectrum (field.class_forward, field.class_inverse), so
    arrays and transforms are half the size; sums over the nodes weight the
    half grid's interior last-axis columns twice. The pointwise terms are
    the same formulas on conjugated values, as |v|^2 and the pairing u.v
    are unchanged by conjugating both. Both bases implement every method;
    store and field convert from and to a ComplexField. A solve takes its
    kernel from Kernel.of, which picks the basis from its input; questions
    of the full space construct Kernel(grid, p, half=False).

    action and preconditioned_gradient also take what the caller holds, and
    then skip its computation: the normalized spectrum forward(v) of their
    argument, which saves a forward transform, and the density 1 - |v|^2,
    which action returns with the value; ray_coefficients always takes
    them, with the value and slope of its quartic. Sums are BLAS pairings
    (np.dot, np.vdot) of contiguous arrays. preconditioned_gradient forms
    grad I and (1 - Lap)^(-1) grad I in Fourier space from forward(v) in 2
    transforms; a string node step and a descent iteration cost these 2
    (gptw.minimize says what the descent carries).

    MINRES and LOBPCG work in spectral coordinates (hessian_real,
    to_coords), where the preconditioner is diagonal: the interleaved
    (Re, Im) view of the spectrum in the full basis, the real spectrum
    itself in the class basis (`dimension` floats, 2 or 1 per node), whose
    dot product is the node L2 pairing over volume. hessian acts on node
    arrays.

    No method enters np.errstate: overflow saturates to inf, which callers
    treat as a rejected trial or an unconverged point, and the callers own
    the error state, entering it once per solve or call (quiet_overflow).
    """

    def __init__(self, grid: TorusGrid, p: Params, *, half: bool):
        self.grid = grid
        self.c = p.c
        self.half = half
        self.lap = grid.laplacian_symbol
        self.xi1 = grid.deriv_symbols[0]
        self.weight = grid.quad_weight
        self.volume = grid.cell_volume
        self.dimension = grid.node_count if half else 2 * grid.node_count

    @classmethod
    def of(cls, p: Params, *fields: ComplexField) -> "Kernel":
        """The kernel of a solve on `fields`, which share one grid: the
        class basis when every field lies in the reflection class H
        (field.in_class), else the full basis; the package's one choice.

        H is a symmetry class of the action, so its critical points are
        critical points of I (Palais, Comm. Math. Phys. 69, 1979), and on H
        the Hessian has no symmetry zero mode. A solve in H runs on half
        the arrays and real transforms of half the size, with the control
        flow and transform counts of the full route; one translated or
        phase-rotated field puts it on the full grid.
        """
        return cls(fields[0].grid, p, half=all(in_class(f) for f in fields))

    @cached_property
    def linear(self) -> np.ndarray:
        """|xi|^2 + c*xi1, the symbol of -Lap - c*i*d_x1."""
        return self.lap + self.c * self.xi1

    @cached_property
    def preconditioner(self) -> np.ndarray:
        """1 / (1 + |xi|^2), the symbol of (1 - Lap)^(-1)."""
        return 1.0 / (1.0 + self.lap)

    def store(self, f: ComplexField) -> np.ndarray:
        """f's node array in this basis: f.values, or its half-grid storage."""
        return half_values(f.values) if self.half else f.values

    def field(self, v: np.ndarray) -> ComplexField:
        """The ComplexField of the node array v of this basis; a class field
        is mirrored to the full grid, with no transform."""
        return ComplexField(self.grid, mirror(v, self.grid) if self.half else v)

    def forward(self, v: np.ndarray) -> np.ndarray:
        """The normalized spectrum of the node array v, one transform."""
        return class_forward(v, self.grid.sizes) if self.half else fft_forward(v)

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        """The node array of the spectrum spec, one transform."""
        return class_inverse(spec) if self.half else fft_inverse(spec)

    def to_coords(self, spec: np.ndarray) -> np.ndarray:
        """The spectral coordinates of spec, a flat float64 view."""
        return (spec if self.half else spec.view(np.float64)).ravel()

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        """The spectrum whose spectral coordinates are x, a view of a
        contiguous x."""
        x = np.ascontiguousarray(x)
        return (x if self.half else x.view(np.complex128)).reshape(self.grid.sizes)

    def _power(self, spec: np.ndarray) -> np.ndarray:
        """|spec|^2 as a new real array."""
        return np.square(spec) if self.half else _abs2(spec)

    def _node_sum(self, a: np.ndarray, b: np.ndarray) -> float:
        """The sum of a*b over the grid's nodes, for real node arrays."""
        total = _sum_dot(a, b)
        if self.half:
            total = 2.0 * total - _sum_dot(a[..., 0], b[..., 0]) - _sum_dot(a[..., -1], b[..., -1])
        return total

    def _terms(self, v: np.ndarray, spec: np.ndarray | None, dens: np.ndarray | None = None
               ) -> tuple[float, float, float, np.ndarray]:
        """Kinetic, potential and momentum parts with the density 1 - |v|^2,
        formed unless `dens` holds it."""
        if spec is None:
            spec = self.forward(v)
        p2 = self._power(spec)
        kinetic = 0.5 * self.volume * _sum_dot(self.lap, p2)
        # xi1 varies along the first axis only: one matrix-vector product
        # sums |spec|^2 against it
        xi1 = self.xi1.ravel()
        mom = -0.5 * self.volume * float(np.dot(xi1, p2.reshape(xi1.size, -1)).sum())
        if dens is None:
            dens = density(v)
        potential = 0.25 * self.weight * self._node_sum(dens, dens)
        return kinetic, potential, mom, dens

    def parts(self, v: np.ndarray, spec: np.ndarray | None = None,
              dens: np.ndarray | None = None) -> tuple[float, float, float]:
        """Kinetic (1/2)int|grad v|^2, potential (1/4)int(1-|v|^2)^2 and
        momentum (1/2)int (i d_x1 v).v, from one forward transform, or none
        when spec = forward(v) is given; the density 1 - |v|^2 is read from
        `dens` when given, else formed."""
        return self._terms(v, spec, dens)[:3]

    def action(self, v: np.ndarray, spec: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """(kinetic + potential - c * momentum, 1 - |v|^2) (see parts)."""
        kinetic, potential, mom, dens = self._terms(v, spec)
        return kinetic + potential - self.c * mom, dens

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """-Lap v - c*i*d_x1 v - (1-|v|^2) v, from two transforms."""
        vhat = self.forward(v)
        vhat *= self.linear
        return self.inverse(vhat) - density(v) * v

    def gradient_spectrum(self, v: np.ndarray, spec: np.ndarray,
                          dens: np.ndarray | None = None) -> np.ndarray:
        """forward(gradient(v)) from spec = forward(v) and, when given,
        dens = 1 - |v|^2: linear*spec - forward((1-|v|^2) v), one forward
        transform."""
        gs = self.forward((density(v) if dens is None else dens) * v)
        np.subtract(self.linear * spec, gs, out=gs)
        return gs

    def preconditioned_gradient(self, v: np.ndarray, spec: np.ndarray,
                                dens: np.ndarray | None = None
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, z, Z) at v from spec = forward(v) and, when given, dens =
        1 - |v|^2: G = forward(gradient(v)), z = (1 - Lap)^(-1)
        gradient(v) and Z = forward(z).

        G is gradient_spectrum's, one forward transform, and z one inverse
        transform of Z = G / (1 + |xi|^2).
        """
        gs = self.gradient_spectrum(v, spec, dens)
        zs = gs * self.preconditioner
        return gs, self.inverse(zs), zs

    def _cubic_hessian(self, psi: np.ndarray):
        """u -> -(1-|psi|^2) u + 2 (psi.u) psi, the pointwise part of the
        Hessian at psi, whose density is evaluated once, here."""
        neg_dens = -density(psi)

        def apply(u: np.ndarray) -> np.ndarray:
            out = neg_dens * u
            out += 2.0 * _pairing(psi, u) * psi
            return out
        return apply

    def hessian(self, psi: np.ndarray):
        """u -> -Lap u - c*i*d_x1 u - (1-|psi|^2) u + 2 (psi.u) psi, the
        Hessian at psi on node arrays. A product costs 2 transforms and
        checks no finiteness: its callers do."""
        cubic = self._cubic_hessian(psi)

        def apply(u: np.ndarray) -> np.ndarray:
            out = self.inverse(self.linear * self.forward(u))
            out += cubic(u)
            return out
        return apply

    def hessian_real(self, psi: np.ndarray):
        """hessian(psi) on spectral coordinates (to_coords), for MINRES and
        LOBPCG, whose dot product is the node L2 pairing over volume, so the
        operator stays symmetric with the same spectrum. A product costs 2
        transforms."""
        cubic = self._cubic_hessian(psi)

        def apply(x: np.ndarray) -> np.ndarray:
            us = self.from_coords(x)
            out = self.linear * us
            out += self.forward(cubic(self.inverse(us)))
            return self.to_coords(out)
        return apply

    def precondition_real(self, x: np.ndarray) -> np.ndarray:
        """(1 - Lap)^(-1) on spectral coordinates (hessian_real): each
        coordinate times the preconditioner of its mode, no transform."""
        return self.to_coords(self.from_coords(x) * self.preconditioner)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Real L2 pairing int a.b of two node arrays."""
        total = np.vdot(a, b).real
        if self.half:
            total = (2.0 * total - np.vdot(a[..., 0], b[..., 0]).real
                     - np.vdot(a[..., -1], b[..., -1]).real)
        return float(total) * self.weight

    def spectral_dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """dot of the fields whose spectra are a and b, by Parseval:
        volume * Re<a, b>."""
        return float(np.vdot(a, b).real) * self.volume

    def ray_coefficients(self, f: np.ndarray, d: np.ndarray, value: float,
                         slope: float, dens: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """Coefficients p (degree 0..4) of the quartic alpha -> I(f + alpha d).

        p0 = value = I(f) and p1 = slope = <grad I(f), d> are what the
        caller holds already (the descent's carried action and its descent
        test), and dens = 1 - |f|^2. p2..p4 come from the quadratic form
        of d, the sum of (1/2)*linear*|ds|^2, and from four pointwise
        sums of dens, b = f.d and cc = |d|^2, since
        1 - |f + alpha d|^2 = dens - 2 alpha b - alpha^2 cc; the polynomial
        therefore agrees with action() along the whole ray. ds is
        forward(d), so no transform is made.
        """
        quad = 0.5 * self.volume * _sum_dot(self.linear, self._power(ds))
        b = _pairing(f, d)
        cc = _abs2(d)
        w = self.weight
        return np.array([
            value,
            slope,
            quad + w * (self._node_sum(b, b) - 0.5 * self._node_sum(dens, cc)),
            w * self._node_sum(b, cc),
            0.25 * w * self._node_sum(cc, cc),
        ])

    @staticmethod
    def ray_minimum(p) -> float | None:
        """argmin over alpha > 0 of the quartic with coefficients p, or None.

        The critical points are the real roots of the cubic p'(alpha),
        found in closed form (the trigonometric formula for three real
        roots, Cardano's for one) and polished by two Newton steps, all in
        Python floats. The positive root of the largest drop p(alpha) - p0
        below 0 is returned (the drop is compared with 0, not p(alpha) with
        p0, so a drop under one ulp of p0 counts); None when there is none,
        or when |4 p4| < 1e-300 leaves no cubic.
        """
        p1, p2, p3, p4 = (float(x) for x in p[1:])
        lead = 4.0 * p4
        if abs(lead) < 1e-300:
            return None
        # p'(alpha) / lead = alpha^3 + a2 alpha^2 + a1 alpha + a0; with
        # alpha = t - a2/3 it is the depressed cubic t^3 + s t + r
        a2, a1, a0 = 3.0 * p3 / lead, 2.0 * p2 / lead, p1 / lead
        s = a1 - a2 * a2 / 3.0
        r = a2 * (2.0 * a2 * a2 - 9.0 * a1) / 27.0 + a0
        if not math.isfinite(s + r):
            return None
        disc = 0.25 * r * r + s * s * s / 27.0
        if disc > 0.0 or s == 0.0:
            # one real root t = u - s/(3u), u^3 chosen against cancellation
            u3 = -0.5 * r - math.copysign(math.sqrt(max(disc, 0.0)), r)
            u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
            ts = (u - s / (3.0 * u) if u != 0.0 else 0.0,)
        else:
            # three real roots, by the trigonometric formula
            m = 2.0 * math.sqrt(-s / 3.0)
            phi = math.acos(max(-1.0, min(1.0, 3.0 * r / (s * m)))) / 3.0
            ts = tuple(m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3))
        best, best_drop = None, 0.0
        for t in ts:
            alpha = t - a2 / 3.0
            for _ in range(2):
                dp = ((lead * alpha + 3.0 * p3) * alpha + 2.0 * p2) * alpha + p1
                ddp = (3.0 * lead * alpha + 6.0 * p3) * alpha + 2.0 * p2
                if ddp == 0.0:
                    break
                alpha -= dp / ddp
            if not alpha > 0.0:
                continue
            drop = (((p4 * alpha + p3) * alpha + p2) * alpha + p1) * alpha
            if drop < best_drop:
                best, best_drop = alpha, drop
        return best


def quiet_overflow(solve):
    """solve, run inside np.errstate(over="ignore", invalid="ignore"): the
    one entry into the error state of a solve or module call, inside which
    Kernel's overflow saturates to inf silently."""
    @functools.wraps(solve)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return solve(*args, **kwargs)
    return run


# The wrappers below stay on the full grid for every field: the CLI's CSVs
# and the tests pin their full-grid bits, and Kernel.of would add an
# in_class test to each call, about half the cost of a full-grid action.
@quiet_overflow
def action(f: ComplexField, p: Params) -> ActionReport:
    return ActionReport.assemble(*Kernel(f.grid, p, half=False).parts(f.values), p.c)


@quiet_overflow
def gradient(f: ComplexField, p: Params) -> ComplexField:
    """L2 gradient of the action: -Lap f - c*i*d_x1 f - (1-|f|^2) f.

    This is the negative left-hand side of the traveling-wave equation, so
    l2_norm(gradient) is the equation residual.
    """
    return f.with_values(Kernel(f.grid, p, half=False).gradient(f.values))


@quiet_overflow
def hessian_apply(base: ComplexField, direction: ComplexField, p: Params) -> ComplexField:
    """Second variation of the action at `base` applied to `direction`:

        H[phi] = -Lap phi - c*i*d_x1 phi - (1-|psi|^2) phi + 2 (psi.phi) psi

    with the pointwise real pairing psi.phi = Re(psi)Re(phi) + Im(psi)Im(phi).
    Symmetric with respect to the L2 pairing.
    """
    if base.grid != direction.grid:
        raise GridMismatch("hessian_apply needs base and direction on one grid")
    apply = Kernel(base.grid, p, half=False).hessian(base.values)
    return base.with_values(apply(direction.values))


def equation_integral(f: ComplexField) -> complex:
    """int (1-|f|^2) f, the traveling-wave equation integrated over the cell;
    it equals -int grad I, so it vanishes at solutions. No transform."""
    v = f.values
    return complex(np.sum(density(v) * v)) * f.grid.quad_weight


@quiet_overflow
def certify(f: ComplexField, p: Params) -> Certificate:
    """Certificates of f at speed c, from 3 transforms.

    * residual: L2 norm of the action gradient, 0 at solutions of the
      discrete equation, and inf or nan where the gradient overflows.
    * integral: int (1-|f|^2) f, the equation integrated over the cell,
      0 at solutions.
    * tail: field.spectral_tail(f), the share of f's nonconstant energy in
      modes past 1/3 of the grid, small when the grid resolves f.
      On the 64^2 saddle at T = 29, R = 3.5 it reads 9.9e-10, and the
      saddle's action is within 8.8e-10 of the 128^2 solve.

    The solvers report residual and integral from what they hold
    (gptw.minimize.CriticalPoint); certify runs for `gptw certify` and the
    certificate CSVs. The residual is computed in the basis Kernel.of
    picks for f, as each solver's is for its start, so it repeats the
    arithmetic of the solver that found f: near the descent floor the two
    bases round a residual apart by a few 1e-14, from the linear symbol
    acting on the different rounding of their transforms.
    """
    kern = Kernel.of(p, f)
    # a raw array, not a ComplexField, which would reject an overflow
    g = kern.gradient(kern.store(f))
    return Certificate(math.sqrt(kern.dot(g, g)), equation_integral(f), spectral_tail(f))
