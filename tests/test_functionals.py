"""Energy, momentum, action, gradient, Hessian and certificate tests.

The derivative checks compare spectral gradients against central finite
differences of the action, the classical independent oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gptw.field import (ComplexField, GridMismatch, TorusGrid, fft_forward, l2_norm,
                        l2_product)
from gptw.functionals import (
    ActionReport,
    Kernel,
    Params,
    action,
    certify,
    gradient,
    hessian_apply,
)
from gptw.ansatz import constant, plane_wave


# Speed 0: the energy and momentum parts of action(f, p) do not depend on c.
P0 = Params(c=0.0)


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

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_nonfinite_speed(self, c):
        with pytest.raises(ValueError, match="finite"):
            Params(c=c)

    def test_report_identity(self):
        rep = ActionReport.assemble(1.5, 0.25, 2.0, 1.0)
        assert rep.action == rep.kinetic + rep.potential - rep.speed * rep.momentum


class TestEnergy:
    def test_zero_field(self, grid16):
        f = ComplexField(grid16, np.zeros(grid16.sizes, dtype=complex))
        rep = action(f, P0)
        assert rep.kinetic == 0.0
        assert rep.potential == pytest.approx(grid16.cell_volume / 4, rel=1e-14)

    def test_unit_constants(self, grid16):
        for theta in (0.0, 1.0, np.pi):
            rep = action(constant(theta, grid16), P0)
            assert abs(rep.kinetic) < 1e-14
            assert abs(rep.potential) < 1e-25

    def test_phase_ramp(self, grid16):
        T = grid16.period
        alpha = 2 * np.pi * 2 / T
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(1j * alpha * x1) * np.ones(grid16.sizes))
        rep = action(f, P0)
        assert rep.kinetic == pytest.approx(alpha**2 * T**2 / 2, rel=1e-12)
        assert abs(rep.potential) < 1e-25


class TestMomentum:
    def test_real_field_zero(self, grid16):
        rng = np.random.default_rng(3)
        f = ComplexField(grid16, rng.standard_normal(grid16.sizes).astype(complex))
        assert abs(action(f, P0).momentum) < 1e-12

    def test_phase_ramp(self, grid16):
        T = grid16.period
        for k in (1, -1, 3):
            alpha = 2 * np.pi * k / T
            x1 = grid16.coords[0]
            f = ComplexField(grid16, np.exp(1j * alpha * x1) * np.ones(grid16.sizes))
            assert action(f, P0).momentum == pytest.approx(-alpha * T**2 / 2, rel=1e-12)

    def test_conjugation_flips_sign(self, grid16):
        for seed in range(5):
            f = random_field(grid16, seed)
            rep_f = action(f, P0)
            rep_c = action(f.with_values(np.conj(f.values)), P0)
            assert abs(rep_c.momentum + rep_f.momentum) <= 1e-12 * abs(rep_f.momentum)
            assert rep_c.kinetic == pytest.approx(rep_f.kinetic, rel=1e-12)
            assert rep_c.potential == pytest.approx(rep_f.potential, rel=1e-12)


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
                grad_sq = 2 * action(f, P0).kinetic
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


    def test_grids_must_match(self, grid16, p1):
        other = TorusGrid((32, 32), grid16.period)
        with pytest.raises(GridMismatch):
            hessian_apply(constant(0.0, grid16), constant(0.0, other), p1)


class TestTransformCount:
    def test_gradient_and_hessian_cost_two_transforms(self, grid16, p1, fft_calls):
        f = random_field(grid16, 1)
        phi = random_field(grid16, 2)
        gradient(f, p1)
        assert len(fft_calls) == 2
        fft_calls.clear()
        hessian_apply(f, phi, p1)
        assert len(fft_calls) == 2

    def test_preconditioned_gradient_costs_two_transforms(self, grid16, p1, fft_calls):
        kernel = Kernel(grid16, p1)
        v = random_field(grid16, 3).values
        spec = fft_forward(v)
        fft_calls.clear()
        kernel.preconditioned_gradient(v, spec)
        assert len(fft_calls) == 2


class TestCertify:
    def test_constant_one(self, grid16, p1):
        cert = certify(constant(0.0, grid16), p1)
        assert cert.residual <= 1e-13
        assert abs(cert.integral) <= 1e-13
        assert cert.tail == 0.0

    def test_plane_wave(self):
        g = TorusGrid((64, 64), 4 * np.pi)
        cert = certify(plane_wave(-1, 1.0, g), Params(c=1.0))
        assert cert.residual <= 1e-9
        assert abs(cert.integral) <= 1e-9
        assert cert.tail <= 1e-12

    def test_half_constant_flags_nonsolution(self, grid16, p1):
        f = ComplexField(grid16, np.full(grid16.sizes, 0.5 + 0j))
        cert = certify(f, p1)
        expected = 0.375 * grid16.cell_volume
        assert cert.integral.real == pytest.approx(expected, rel=1e-12)
        assert abs(cert.integral.imag) < 1e-12

    def test_costs_three_transforms(self, grid16, p1, fft_calls):
        # the gradient's two and the tail's one
        certify(random_field(grid16, 4), p1)
        assert len(fft_calls) == 3


_RAY_GRIDS = [((16, 16), 2 * np.pi), ((8, 8, 8), 3.0)]


def _ray_inputs(kernel, f, d):
    """What the descent supplies to the ray quartic at f along d: the
    action, the slope <grad I(f), d>, the density 1 - |f|^2 and fft_forward(d)."""
    value, dens = kernel.action(f)
    return value, kernel.dot(kernel.gradient(f), d), dens, fft_forward(d)


class TestRay:
    """Kernel.ray_coefficients and ray_minimum are the descent's only step rule."""

    @pytest.mark.parametrize("sizes,period", _RAY_GRIDS)
    def test_quartic_matches_action(self, sizes, period):
        grid = TorusGrid(sizes, period)
        kernel = Kernel(grid, Params(c=1.0))
        f = random_field(grid, 31).values
        d = random_field(grid, 32).values
        p = kernel.ray_coefficients(f, d, *_ray_inputs(kernel, f, d))
        for a in (-1.0, -0.3, 0.25, 0.7, 1.5):
            exact = kernel.action(f + a * d)[0]
            assert abs(np.polyval(p[::-1], a) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("sizes,period", _RAY_GRIDS)
    def test_minimum_not_beaten_by_samples(self, sizes, period):
        grid = TorusGrid(sizes, period)
        kernel = Kernel(grid, Params(c=1.0))
        f = random_field(grid, 33).values
        d = -kernel.gradient(f)
        p = kernel.ray_coefficients(f, d, *_ray_inputs(kernel, f, d))
        alpha = kernel.ray_minimum(p)
        assert alpha is not None and alpha > 0
        samples = np.linspace(0.0, 2.0 * alpha, 4001)[1:]
        best = np.polyval(p[::-1], alpha)
        # the root is exact to rounding, so a sample may tie it to an ulp
        assert best <= np.polyval(p[::-1], samples).min() + 1e-14 * abs(best)
        assert best < p[0]


def _reference_ray_minimum(p):
    """ray_minimum by numpy's companion-matrix roots of p' and polyval."""
    dp = np.array([p[1], 2.0 * p[2], 3.0 * p[3], 4.0 * p[4]])
    if abs(dp[-1]) < 1e-300:
        return None
    best, best_val = None, p[0]
    for r in np.roots(dp[::-1]):
        if abs(r.imag) > 1e-10 * (1.0 + abs(r.real)) or r.real <= 0:
            continue
        val = np.polyval(p[::-1], r.real)
        if val < best_val:
            best, best_val = float(r.real), val
    return best


def _quartic(p0, p4, derivative_roots):
    """Coefficients p0..p4 of the quartic with leading coefficient p4 whose
    derivative is 4 p4 prod(alpha - r) over derivative_roots."""
    dp = (4.0 * p4 * np.poly(derivative_roots)).real  # highest degree first
    return np.array([p0, dp[3], dp[2] / 2.0, dp[1] / 3.0, dp[0] / 4.0])


_ROOT = st.floats(0.1, 4.0).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def _ray_quartics(draw):
    """Quartics with p4 > 0 and one or three real critical points, or a
    double one, all at least 0.1 from 0 and from each other."""
    kind = draw(st.sampled_from(["three", "one", "double"]))
    p0 = draw(st.floats(-10.0, 10.0))
    p4 = draw(st.floats(1e-3, 1e3))
    r1, r2 = draw(_ROOT), draw(_ROOT)
    if kind == "three":
        roots = [r1, r2, draw(_ROOT)]
    elif kind == "one":
        y = draw(st.floats(0.1, 4.0))
        roots = [r1, complex(r2, y), complex(r2, -y)]
    else:
        roots = [r1, r2, r2]
    real = sorted(r for r in roots if not isinstance(r, complex))
    assume(all(b - a >= 0.1 for a, b in zip(real, real[1:])) or kind == "double")
    assume(abs(r1 - r2) >= 0.1)
    p = _quartic(p0, p4, roots)
    # no two candidates within rounding of each other or of p0
    values = [p0] + [np.polyval(p[::-1], r) for r in real if r > 0]
    scale = 1.0 + np.abs(p).max() * 4.0**4
    assume(all(abs(a - b) > 1e-9 * scale
               for i, a in enumerate(values) for b in values[i + 1:]))
    return p


class TestRayMinimum:
    """The closed-form cubic of ray_minimum against numpy's roots."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(p=_ray_quartics())
    def test_matches_companion_roots(self, p):
        got, want = Kernel.ray_minimum(p), _reference_ray_minimum(p)
        if want is None:
            assert got is None
        else:
            assert got is not None and abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("roots,argmin", [
        ([0.5, 1.0, 3.0], 3.0),                # three positive, the larger minimum wins
        ([0.5, 2.5, 3.0], 0.5),                # three positive, the smaller wins
        ([-1.0, 0.5, 2.0], 2.0),
        ([1.0, 2.0, 2.0], 1.0),                # a double root above the minimum
        ([2.0, 1.0, 1.0], 2.0),                # a double root below it
        ([1.5, complex(-1.0, 1.0), complex(-1.0, -1.0)], 1.5),
    ])
    def test_known_minimum(self, roots, argmin):
        p = _quartic(0.0, 1.0, roots)
        for got in (Kernel.ray_minimum(p), _reference_ray_minimum(p)):
            assert got is not None and abs(got - argmin) <= 1e-12 * argmin

    @pytest.mark.parametrize("roots", [
        [-3.0, -1.0, -0.5],                    # every critical point negative
        [-1.0, 1.0, 1.2],                      # the positive minimum lies above p0
        [-2.0, complex(1.0, 2.0), complex(1.0, -2.0)],
        [-0.5, 1.0, 1.0],                      # a double root above the only minimum
    ])
    def test_no_minimum_below_p0(self, roots):
        p = _quartic(0.5, 2.0, roots)
        assert _reference_ray_minimum(p) is None
        assert Kernel.ray_minimum(p) is None

    def test_no_cubic(self):
        p = np.array([1.0, -1.0, 0.5, 0.25, 1e-301])
        assert _reference_ray_minimum(p) is None
        assert Kernel.ray_minimum(p) is None


_SPECTRUM_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _scratch_quartic(kernel, f, d):
    """Coefficients of alpha -> I(f + alpha d) from f and d alone: the
    quadratic form of the linear symbol on their spectra and the pointwise
    expansion of the potential (1/4)(a - alpha b - alpha^2 cc)^2."""
    fs, ds = np.fft.fftn(f) / f.size, np.fft.fftn(d) / d.size
    half = 0.5 * kernel.linear
    k0 = kernel.volume * np.sum(half * np.abs(fs) ** 2)
    k1 = 2.0 * kernel.volume * np.sum(half * (fs.conj() * ds).real)
    k2 = kernel.volume * np.sum(half * np.abs(ds) ** 2)
    a = 1.0 - np.abs(f) ** 2
    b = 2.0 * (f.conj() * d).real
    cc = np.abs(d) ** 2
    w4 = 0.25 * kernel.weight
    return np.array([
        k0 + w4 * np.sum(a * a),
        k1 - 2.0 * w4 * np.sum(a * b),
        k2 + w4 * np.sum(b * b - 2.0 * a * cc),
        2.0 * w4 * np.sum(b * cc),
        w4 * np.sum(cc * cc),
    ])


class TestSuppliedSpectrum:
    """action, ray_coefficients and preconditioned_gradient given the spectra
    and the density the descent carries agree with from-scratch versions and
    with the ray quartic, and spectral_dot with dot."""

    @pytest.mark.parametrize("sizes,period", _RAY_GRIDS)
    @_SPECTRUM_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 3.0),
           alpha=st.floats(-1.5, 1.5))
    def test_matches_from_scratch(self, sizes, period, seed, scale, alpha):
        grid = TorusGrid(sizes, period)
        kernel = Kernel(grid, Params(c=1.0))
        f = random_field(grid, (seed, 0), scale).values
        d = random_field(grid, (seed, 1), scale).values
        fs, ds = fft_forward(f), fft_forward(d)

        exact, _ = kernel.action(f)
        value, dens = kernel.action(f, fs)
        assert abs(value - exact) <= 1e-13 * abs(exact)
        assert np.abs(dens - (1.0 - np.abs(f) ** 2)).max() <= 1e-13 * (1.0 + np.abs(f).max() ** 2)
        g = kernel.gradient(f)
        z = kernel.precondition(g)
        gs, zz, zs = kernel.preconditioned_gradient(f, fs, dens)
        for got, want in ((gs, fft_forward(g)), (zz, z), (zs, fft_forward(z))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        bound = 1e-13 * np.sqrt(kernel.dot(g, g) * kernel.dot(d, d))
        assert abs(kernel.spectral_dot(fft_forward(g), ds) - kernel.dot(g, d)) <= bound
        # the quartic from the values the descent holds: its carried action
        # and density, and the slope of its descent test
        lean = kernel.ray_coefficients(f, d, value, kernel.spectral_dot(gs, ds), dens, ds)
        p = _scratch_quartic(kernel, f, d)
        assert np.linalg.norm(lean - p) <= 1e-13 * np.linalg.norm(p)

        # the acceptance test of the descent: the action at a trial point,
        # from the trial spectrum updated by linearity
        trial = kernel.action(f + alpha * d, fs + alpha * ds)[0]
        quartic = np.polyval(lean[::-1], alpha)
        assert abs(trial - quartic) <= 1e-13 * abs(quartic)
