"""Energy, momentum, action, gradient, Hessian and certificate tests.

The derivative checks compare spectral gradients against central finite
differences of the action, the classical independent oracle.
"""

import numpy as np
import numpy.fft
import pytest
import scipy.fft

from gptw.field import ComplexField, TorusGrid, l2_norm, l2_product
from gptw.functionals import (
    ActionReport,
    Kernel,
    Params,
    action,
    certificate_csv_header,
    certificate_csv_row,
    certify,
    energy,
    gradient,
    hessian_apply,
    momentum,
)
from gptw.ansatz import constant, plane_wave


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    return ComplexField(grid, scale * v)


@pytest.fixture
def grid16():
    return TorusGrid((16, 16), 2 * np.pi)


@pytest.fixture
def p1():
    return Params(c=1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(c=-0.5)
        with pytest.raises(ValueError):
            Params(c=1.0, cert_tol=0.0)

    def test_report_identity(self):
        rep = ActionReport.assemble(1.5, 0.25, 2.0, 1.0)
        assert rep.action == rep.kinetic + rep.potential - rep.speed * rep.momentum


class TestEnergy:
    def test_zero_field(self, grid16):
        f = ComplexField(grid16, np.zeros(grid16.sizes, dtype=complex))
        kin, pot = energy(f)
        assert kin == 0.0
        assert pot == pytest.approx(grid16.cell_volume / 4, rel=1e-14)

    def test_unit_constants(self, grid16):
        for theta in (0.0, 1.0, np.pi):
            kin, pot = energy(constant(theta, grid16))
            assert abs(kin) < 1e-14
            assert abs(pot) < 1e-25

    def test_phase_ramp(self, grid16):
        T = grid16.period
        alpha = 2 * np.pi * 2 / T
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(1j * alpha * x1) * np.ones(grid16.sizes))
        kin, pot = energy(f)
        assert kin == pytest.approx(alpha**2 * T**2 / 2, rel=1e-12)
        assert abs(pot) < 1e-25


class TestMomentum:
    def test_real_field_zero(self, grid16):
        rng = np.random.default_rng(3)
        f = ComplexField(grid16, rng.standard_normal(grid16.sizes).astype(complex))
        assert abs(momentum(f)) < 1e-12

    def test_phase_ramp(self, grid16):
        T = grid16.period
        for k in (1, -1, 3):
            alpha = 2 * np.pi * k / T
            x1 = grid16.coords[0]
            f = ComplexField(grid16, np.exp(1j * alpha * x1) * np.ones(grid16.sizes))
            assert momentum(f) == pytest.approx(-alpha * T**2 / 2, rel=1e-12)

    def test_conjugation_flips_sign(self, grid16):
        for seed in range(5):
            f = random_field(grid16, seed)
            pf = momentum(f)
            pc = momentum(f.conjugate())
            assert abs(pc + pf) <= 1e-12 * abs(pf)
            kin_f, pot_f = energy(f)
            kin_c, pot_c = energy(f.conjugate())
            assert kin_c == pytest.approx(kin_f, rel=1e-12)
            assert pot_c == pytest.approx(pot_f, rel=1e-12)


class TestAction:
    def test_zero_and_constants(self, p1):
        for sizes, T in (((16, 16), 2 * np.pi), ((16, 16), 40.0), ((8, 8, 8), 2 * np.pi)):
            g = TorusGrid(sizes, T)
            zero = ComplexField(g, np.zeros(g.sizes, dtype=complex))
            scale = T**g.dim / 4
            assert abs(action(zero, p1).action - scale) <= 1e-12 * scale
            assert abs(action(constant(1.0, g), p1).action) <= 1e-12 * scale

    def test_plane_wave_closed_form(self):
        # c=1, T=4pi, k=-1: alpha=-1/2, beta=-1/4, action density beta/2-beta^2/4
        g = TorusGrid((64, 64), 4 * np.pi)
        p = Params(c=1.0)
        f = plane_wave(-1, 1.0, g)
        expected = (4 * np.pi) ** 2 * (-9.0 / 64.0)
        assert action(f, p).action == pytest.approx(expected, rel=1e-12)

    def test_phase_invariance(self, grid16, p1):
        f = random_field(grid16, 9)
        base = action(f, p1).action
        for theta in (np.pi / 7, 1.0, 2.0):
            rotated = ComplexField(grid16, np.exp(1j * theta) * f.values)
            assert action(rotated, p1).action == pytest.approx(base, rel=1e-12)

    def test_translation_invariance(self, grid16, p1):
        f = random_field(grid16, 10)
        base = action(f, p1).action
        for shift in ((1, 0), (5, 3), (0, 7)):
            moved = ComplexField(grid16, np.roll(f.values, shift, axis=(0, 1)))
            assert action(moved, p1).action == pytest.approx(base, rel=1e-13)

    def test_coercivity_bound(self, grid16):
        # (1-x^2)^2 >= 4 lam x^2 - K_lam with the tight K_lam = 4 lam (lam+1)
        for c in (0.5, 1.0, 1.3):
            p = Params(c=c)
            lam = c**2 / 4 + 1.0
            K = 4 * lam * (lam + 1.0)
            vol = grid16.cell_volume
            fields = [random_field(grid16, s, scale) for s, scale in
                      zip(range(25), (0.3, 1.0, 2.5) * 9)]
            fields += [constant(0.3, grid16), plane_wave(-1, c, grid16)]
            for f in fields:
                grad_sq = 2 * energy(f)[0]
                norm_sq = l2_product(f, f)
                lhs = action(f, p).action
                rhs = 0.25 * grad_sq + (lam - c**2 / 4) * norm_sq - K * vol
                assert lhs >= rhs - 1e-10 * (1 + abs(lhs))


class TestGradient:
    def test_zero_field(self, grid16, p1):
        f = ComplexField(grid16, np.zeros(grid16.sizes, dtype=complex))
        assert np.abs(gradient(f, p1).values).max() == 0.0

    def test_constant_two(self, grid16, p1):
        f = ComplexField(grid16, np.full(grid16.sizes, 2.0 + 0j))
        g = gradient(f, p1).values
        assert np.abs(g - 6.0).max() < 1e-12

    def test_plane_wave_is_critical(self):
        g = TorusGrid((64, 64), 4 * np.pi)
        f = plane_wave(-1, 1.0, g)
        assert l2_norm(gradient(f, Params(c=1.0))) <= 1e-10

    def test_finite_difference_consistency(self, grid16, p1):
        h = 1e-5
        for seed in range(25):
            f = random_field(grid16, seed, scale=0.8)
            phi = random_field(grid16, 1000 + seed, scale=1.0)
            plus = ComplexField(grid16, f.values + h * phi.values)
            minus = ComplexField(grid16, f.values - h * phi.values)
            fd = (action(plus, p1).action - action(minus, p1).action) / (2 * h)
            pairing = l2_product(gradient(f, p1), phi)
            assert abs(fd - pairing) <= 1e-6 * (1 + abs(pairing))


class TestHessian:
    def test_phase_direction_degenerate(self, grid16, p1):
        base = constant(0.0, grid16)
        phi = ComplexField(grid16, 1j * base.values)
        assert l2_norm(hessian_apply(base, phi, p1)) <= 1e-12

    def test_real_direction_at_one(self, grid16, p1):
        base = constant(0.0, grid16)
        phi = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        out = hessian_apply(base, phi, p1).values
        assert np.abs(out - 2.0).max() < 1e-12

    def test_symmetry(self, grid16, p1):
        for seed in range(8):
            base = random_field(grid16, seed, scale=0.7)
            phi = random_field(grid16, 100 + seed)
            chi = random_field(grid16, 200 + seed)
            a = l2_product(hessian_apply(base, phi, p1), chi)
            b = l2_product(phi, hessian_apply(base, chi, p1))
            assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_finite_difference_consistency(self, grid16, p1):
        h = 1e-4
        for seed in range(25):
            f = random_field(grid16, seed, scale=0.8)
            phi = random_field(grid16, 3000 + seed)
            plus = ComplexField(grid16, f.values + h * phi.values)
            minus = ComplexField(grid16, f.values - h * phi.values)
            fd = (gradient(plus, p1).values - gradient(minus, p1).values) / (2 * h)
            hv = hessian_apply(f, phi, p1).values
            err = np.sqrt(grid16.quad_weight) * np.linalg.norm(fd - hv)
            scale = np.sqrt(grid16.quad_weight) * np.linalg.norm(hv)
            assert err <= 1e-5 * (1 + scale)

    def test_mode_one_quadratic_form(self, p1):
        # dense eigensolve on 8x8 contains the symbol pair 2 +- sqrt(2)
        from gptw.spectrum import dense_hessian
        g = TorusGrid((8, 8), 2 * np.pi)
        A = dense_hessian(constant(0.0, g), p1)
        ev = np.linalg.eigvalsh(A)
        for target in (2 - np.sqrt(2), 2 + np.sqrt(2)):
            hits = np.sum(np.abs(ev - target) < 1e-9)
            assert hits >= 2


class TestTransformCount:
    def test_gradient_and_hessian_cost_two_transforms(self, grid16, p1, monkeypatch):
        # count calls into every numpy.fft / scipy.fft transform entry point
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            return wrapper

        for module in (numpy.fft, scipy.fft):
            for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                         "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        f = random_field(grid16, 1)
        phi = random_field(grid16, 2)
        gradient(f, p1)
        assert len(calls) == 2
        calls.clear()
        hessian_apply(f, phi, p1)
        assert len(calls) == 2


class TestCertify:
    def test_constant_one(self, grid16, p1):
        cert = certify(constant(0.0, grid16), p1)
        assert cert.residual <= 1e-13
        assert abs(cert.integral) <= 1e-13
        assert cert.lifted and abs(cert.lift_identity) <= 1e-13
        assert cert.windings == (0, 0)

    def test_plane_wave(self):
        g = TorusGrid((64, 64), 4 * np.pi)
        cert = certify(plane_wave(-1, 1.0, g), Params(c=1.0))
        assert cert.residual <= 1e-9
        assert abs(cert.integral) <= 1e-9
        assert cert.lifted and abs(cert.lift_identity) <= 1e-9
        assert cert.windings == (-1, 0)

    def test_half_constant_flags_nonsolution(self, grid16, p1):
        f = ComplexField(grid16, np.full(grid16.sizes, 0.5 + 0j))
        cert = certify(f, p1)
        expected = 0.375 * grid16.cell_volume
        assert cert.integral.real == pytest.approx(expected, rel=1e-12)
        assert abs(cert.integral.imag) < 1e-12

    def test_vortexful_skips_lift(self, p1):
        from gptw.ansatz import VortexAnsatz, vortex_test_function
        g = TorusGrid((64, 64), 40.0)
        f = vortex_test_function(VortexAnsatz(4.0), g)
        cert = certify(f, p1)
        assert not cert.lifted
        assert "vortexful" in cert.note

    def test_csv_row(self, grid16, p1):
        f = constant(0.0, grid16)
        rep = action(f, p1)
        cert = certify(f, p1)
        header = certificate_csv_header()
        row = certificate_csv_row(grid16, p1, rep, cert)
        assert header.split(",")[0] == "T"
        assert len(row.split(",")) == len(header.split(","))
        assert row.split(",")[1] == "1"


_RAY_GRIDS = [((16, 16), 2 * np.pi), ((8, 8, 8), 3.0)]


class TestRay:
    """Kernel.ray_coefficients and ray_minimum are the descent's only step rule."""

    @pytest.mark.parametrize("sizes,period", _RAY_GRIDS)
    def test_quartic_matches_action(self, sizes, period):
        grid = TorusGrid(sizes, period)
        kernel = Kernel(grid, Params(c=1.0))
        f = random_field(grid, 31).values
        d = random_field(grid, 32).values
        p = kernel.ray_coefficients(f, d)
        for a in (-1.0, -0.3, 0.25, 0.7, 1.5):
            exact = kernel.action(f + a * d)
            assert abs(np.polyval(p[::-1], a) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("sizes,period", _RAY_GRIDS)
    def test_minimum_not_beaten_by_samples(self, sizes, period):
        grid = TorusGrid(sizes, period)
        kernel = Kernel(grid, Params(c=1.0))
        f = random_field(grid, 33).values
        d = -kernel.gradient(f)
        p = kernel.ray_coefficients(f, d)
        alpha = kernel.ray_minimum(p)
        assert alpha is not None and alpha > 0
        samples = np.linspace(0.0, 2.0 * alpha, 4001)[1:]
        best = np.polyval(p[::-1], alpha)
        # the root is exact to rounding, so a sample may tie it to an ulp
        assert best <= np.polyval(p[::-1], samples).min() + 1e-14 * abs(best)
        assert best < p[0]
