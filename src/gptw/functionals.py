"""Action functional I = E - c*P on the torus: values, gradients, certificates.

E is the Ginzburg-Landau energy, P the first momentum component. Critical
points of I at speed c are exactly the T-periodic traveling-wave profiles
solving  i*c*d_x1 psi + Lap psi + (1 - |psi|^2) psi = 0.  The gradient here is
the L2 gradient, so its norm is directly the residual of that equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import (
    ComplexField,
    GridMismatch,
    InconsistentWinding,
    TorusGrid,
    VortexPresent,
    fft_forward,
    fft_inverse,
    from_real,
    l2_norm,
    lift,
    spectral_derivative,
    to_real,
)


@dataclass(frozen=True)
class Params:
    """Wave speed and the certificate tolerance shared across operations.

    cert_tol bounds the integrated certificate |int (1-|f|^2) f| of a
    converged find_saddle result: its refinement stops at
    ||grad I|| <= cert_tol / T^(N/2) or lower (newton.certified_tol).
    """

    c: float
    cert_tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"wave speed must be finite and >= 0, got {self.c}")
        if not self.cert_tol > 0:
            raise ValueError("tolerances must be positive")


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
    """Solution certificates: gradient residual, the integrated equation
    int (1-|f|^2) f, and, when a lifting exists, the lifted identity, a
    resolution indicator for the lifting (see certify)."""

    residual: float
    integral: complex
    lift_identity: float | None
    windings: tuple[int, ...] | None
    note: str = ""

    @property
    def lifted(self) -> bool:
        return self.lift_identity is not None


class Kernel:
    """Action, L2 gradient and Hessian of I = E - c*P on raw node arrays.

    Every linear operator is a Fourier symbol on the grid: -Lap - c*i*d_x1
    is the real multiplier |xi|^2 + c*xi1 (xi1 Nyquist-zeroed), so a
    gradient or a Hessian product costs one forward and one inverse
    transform. The cubic term is evaluated pointwise on the nodes, with no
    2/3-rule filter: solutions are smooth, and at the recommended
    resolutions aliasing sits below the solver tolerances.

    action and ray_coefficients also take the normalized spectrum
    (spectrum(v)) of their arguments when the caller holds it, and then skip
    its forward transform. preconditioned_gradient forms grad I and
    (1 - Lap)^(-1) grad I in Fourier space from spectrum(v): one forward
    transform of the pointwise cubic term and one inverse transform, where
    precondition(gradient(v)) costs four. The descent carries the spectra
    of its iterate and direction by linearity, so an iteration costs these
    2 transforms (see gptw.minimize), and a string-relaxation node step
    costs them too (gptw.mountainpass.relax_path). spectral_dot pairs
    spectra by Parseval, so the descent never forms grad I on the nodes.
    """

    def __init__(self, grid: TorusGrid, p: Params):
        self.grid = grid
        self.c = p.c
        self.lap = grid.laplacian_symbol
        self.xi1 = grid.deriv_symbols[0]
        self.weight = grid.quad_weight
        self.volume = grid.cell_volume

    @cached_property
    def linear(self) -> np.ndarray:
        """|xi|^2 + c*xi1, the symbol of -Lap - c*i*d_x1."""
        return self.lap + self.c * self.xi1

    @staticmethod
    def spectrum(v: np.ndarray) -> np.ndarray:
        """Normalized Fourier coefficients fft(v) / n, linear in v."""
        return fft_forward(v)

    def parts(self, v: np.ndarray, spec: np.ndarray | None = None) -> tuple[float, float, float]:
        """Kinetic (1/2)int|grad v|^2, potential (1/4)int(1-|v|^2)^2 and
        momentum (1/2)int (i d_x1 v).v, from one forward transform, or none
        when spec = spectrum(v) is given."""
        if spec is None:
            spec = self.spectrum(v)
        p2 = spec.real**2 + spec.imag**2
        kinetic = 0.5 * self.volume * float(np.sum(self.lap * p2))
        mom = -0.5 * self.volume * float(np.sum(self.xi1 * p2))
        dens = 1.0 - (v.real**2 + v.imag**2)
        potential = 0.25 * self.weight * float(np.sum(dens**2))
        return kinetic, potential, mom

    def action(self, v: np.ndarray, spec: np.ndarray | None = None) -> float:
        # overflow deliberately saturates to inf; callers treat a non-finite
        # value as a rejected trial or raise NonFiniteValue
        with np.errstate(over="ignore", invalid="ignore"):
            kinetic, potential, mom = self.parts(v, spec)
            return kinetic + potential - self.c * mom

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """-Lap v - c*i*d_x1 v - (1-|v|^2) v, from two transforms."""
        vhat = fft_forward(v)
        vhat *= self.linear
        return fft_inverse(vhat) - (1.0 - (v.real**2 + v.imag**2)) * v

    def preconditioned_gradient(self, v: np.ndarray, spec: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, z, Z) at v from spec = spectrum(v): G = spectrum(gradient(v)),
        z = precondition(gradient(v)) and Z = spectrum(z).

        G = linear*spec - spectrum((1-|v|^2) v) takes one forward transform
        and z one inverse transform of Z = G / (1 + |xi|^2).
        """
        gs = self.linear * spec
        gs -= fft_forward((1.0 - (v.real**2 + v.imag**2)) * v)
        zs = gs * self.grid.inverse_helmholtz_symbol
        return gs, fft_inverse(zs), zs

    def hessian(self, psi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """-Lap u - c*i*d_x1 u - (1-|psi|^2) u + 2 (psi.u) psi."""
        out = fft_inverse(self.linear * fft_forward(u))
        pairing = psi.real * u.real + psi.imag * u.imag
        nl = -(1.0 - (psi.real**2 + psi.imag**2)) * u + 2.0 * pairing * psi
        return out + nl

    def precondition(self, g: np.ndarray) -> np.ndarray:
        """Inverse Helmholtz operator (1 - Lap)^(-1), from two transforms."""
        zs = fft_forward(g)
        zs *= self.grid.inverse_helmholtz_symbol
        return fft_inverse(zs)

    def precondition_real(self, x: np.ndarray) -> np.ndarray:
        """precondition on real coordinates (field.to_real layout): the
        preconditioner of Newton's MINRES and of the eigensolver."""
        return to_real(self.precondition(from_real(x, self.grid)))

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Real L2 pairing int a.b."""
        return float(np.vdot(a, b).real) * self.weight

    def spectral_dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """dot of the fields whose spectra are a and b, by Parseval:
        volume * Re<a, b>."""
        return float(np.vdot(a, b).real) * self.volume

    def ray_coefficients(self, f: np.ndarray, d: np.ndarray,
                         fs: np.ndarray | None = None,
                         ds: np.ndarray | None = None) -> np.ndarray:
        """Coefficients p (degree 0..4) of the quartic alpha -> I(f + alpha d).

        The quadratic part comes from the kinetic/momentum symbols, the
        quartic part from the pointwise Ginzburg-Landau density, so the
        polynomial agrees with action() along the whole ray. fs and ds, when
        given, are spectrum(f) and spectrum(d), and no transform is made.
        """
        if fs is None:
            fs = self.spectrum(f)
        if ds is None:
            ds = self.spectrum(d)
        quad_sym = 0.5 * self.linear
        k0 = self.volume * float(np.sum(quad_sym * (fs.real**2 + fs.imag**2)))
        k1 = 2.0 * self.volume * float(np.sum(quad_sym * (fs.real * ds.real + fs.imag * ds.imag)))
        k2 = self.volume * float(np.sum(quad_sym * (ds.real**2 + ds.imag**2)))
        a = 1.0 - (f.real**2 + f.imag**2)
        b = 2.0 * (f.real * d.real + f.imag * d.imag)
        cc = d.real**2 + d.imag**2
        w4 = 0.25 * self.weight
        return np.array([
            k0 + w4 * float(np.sum(a * a)),
            k1 - w4 * 2.0 * float(np.sum(a * b)),
            k2 + w4 * float(np.sum(b * b - 2.0 * a * cc)),
            w4 * 2.0 * float(np.sum(b * cc)),
            w4 * float(np.sum(cc * cc)),
        ])

    @staticmethod
    def ray_minimum(p: np.ndarray) -> float | None:
        """argmin over alpha > 0 of the quartic with coefficients p, or None."""
        dp = np.array([p[1], 2.0 * p[2], 3.0 * p[3], 4.0 * p[4]])
        if abs(dp[-1]) < 1e-300:
            return None
        roots = np.roots(dp[::-1])
        best, best_val = None, p[0]
        for r in roots:
            if abs(r.imag) > 1e-10 * (1.0 + abs(r.real)) or r.real <= 0:
                continue
            alpha = float(r.real)
            val = float(np.polyval(p[::-1], alpha))
            if val < best_val:
                best, best_val = alpha, val
        return best


def energy(f: ComplexField) -> tuple[float, float]:
    """Kinetic and potential parts, (1/2)int|grad f|^2 and (1/4)int(1-|f|^2)^2."""
    kinetic, potential, _ = Kernel(f.grid, Params(c=0.0)).parts(f.values)
    return kinetic, potential


def momentum(f: ComplexField) -> float:
    """First momentum component P = (1/2) int (i d_x1 f) . f."""
    return Kernel(f.grid, Params(c=0.0)).parts(f.values)[2]


def action(f: ComplexField, p: Params) -> ActionReport:
    return ActionReport.assemble(*Kernel(f.grid, p).parts(f.values), p.c)


def gradient(f: ComplexField, p: Params) -> ComplexField:
    """L2 gradient of the action: -Lap f - c*i*d_x1 f - (1-|f|^2) f.

    This is the negative left-hand side of the traveling-wave equation, so
    l2_norm(gradient) is the equation residual.
    """
    return f.with_values(Kernel(f.grid, p).gradient(f.values))


def hessian_apply(base: ComplexField, direction: ComplexField, p: Params) -> ComplexField:
    """Second variation of the action at `base` applied to `direction`:

        H[phi] = -Lap phi - c*i*d_x1 phi - (1-|psi|^2) phi + 2 (psi.phi) psi

    with the pointwise real pairing psi.phi = Re(psi)Re(phi) + Im(psi)Im(phi).
    Symmetric with respect to the L2 pairing.
    """
    if base.grid != direction.grid:
        raise GridMismatch("hessian_apply needs base and direction on one grid")
    return base.with_values(Kernel(base.grid, p).hessian(base.values, direction.values))


def certify(f: ComplexField, p: Params) -> Certificate:
    """Certificates that must vanish at solutions.

    * residual: L2 norm of the action gradient.
    * integral: int (1-|f|^2) f, from integrating the equation over the cell.
    * lift_identity: int |grad rho|^2 + rho^2 |grad theta|^2
      + c rho^2 d_x1 theta - (1-rho^2) rho^2, evaluated when a lifting
      exists. For zero-winding fields the speed term equals the usual
      c (rho^2 - 1) d_x1 theta form since int d_x1 theta = 0.

    The lifted identity equals <grad I(f), f> in the continuum. On the grid
    it measures how well rho and theta are resolved: it agrees with
    <grad I(f), f> to rounding on band-limited vortex-free fields, but the
    64^2 saddle at T = 29 reads 0.0424 where <grad I(f), f> is 1.7e-8.
    """
    grid = f.grid
    residual = l2_norm(gradient(f, p))
    v = f.values
    mod2 = v.real**2 + v.imag**2
    integral = complex(np.sum((1.0 - mod2) * v)) * grid.quad_weight
    try:
        lifted = lift(f)
    except (VortexPresent, InconsistentWinding) as exc:
        return Certificate(residual, integral, None, None,
                           note=f"vortexful; lifted identity skipped ({exc})")
    rho = lifted.rho
    theta_p = lifted.theta_periodic()
    grad_rho2 = np.zeros_like(rho)
    grad_theta2 = np.zeros_like(rho)
    dtheta1 = None
    for ax in range(grid.dim):
        dr = spectral_derivative(ComplexField(grid, rho), ax).values.real
        dt = (spectral_derivative(ComplexField(grid, theta_p), ax).values.real
              + 2.0 * np.pi * lifted.windings[ax] / grid.period)
        grad_rho2 += dr**2
        grad_theta2 += dt**2
        if ax == 0:
            dtheta1 = dt
    rho2 = rho**2
    integrand = grad_rho2 + rho2 * grad_theta2 + p.c * rho2 * dtheta1 - (1.0 - rho2) * rho2
    value = float(np.sum(integrand)) * grid.quad_weight
    return Certificate(residual, integral, value, lifted.windings)


CSV_COLUMNS = (
    "T", "c", "kinetic", "potential", "momentum", "action",
    "residual", "cert_integral_re", "cert_integral_im", "cert_lift",
)


def certificate_csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def certificate_csv_row(grid, p: Params, report: ActionReport, cert: Certificate) -> str:
    lift_val = cert.lift_identity if cert.lifted else float("nan")
    fields = (
        grid.period, p.c, report.kinetic, report.potential, report.momentum,
        report.action, cert.residual, cert.integral.real, cert.integral.imag,
        lift_val,
    )
    return ",".join(f"{x:.17g}" for x in fields)
