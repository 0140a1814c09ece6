"""Constants, plane waves, the vortex test function and seeded perturbations."""

import numpy as np
import pytest

from gptw.field import ComplexField, TorusGrid, l2_norm, transform_forward
from gptw.functionals import Params, action, certify
from gptw.ansatz import (
    NoSuchSolution,
    SupportTooLarge,
    VortexAnsatz,
    constant,
    fitted_vortex_ansatz,
    perturb,
    plane_wave,
    plane_wave_action_density,
    vortex_test_function,
)


@pytest.fixture
def grid16():
    return TorusGrid((16, 16), 2 * np.pi)


class TestConstant:
    def test_values(self, grid16):
        for theta in (0.0, np.pi, 2.3):
            f = constant(theta, grid16)
            assert np.abs(f.values - np.exp(1j * theta)).max() < 1e-15

    def test_residual_and_action(self, grid16):
        p = Params(c=1.0)
        for theta in (0.0, np.pi, 0.77):
            cert = certify(constant(theta, grid16), p)
            assert cert.residual <= 1e-13
            assert abs(action(constant(theta, grid16), p).action) <= 1e-13


class TestPlaneWave:
    def test_exact_zero_beta(self):
        # k=-1, c=1, T=2pi: alpha=-1, beta=0, psi=e^{-i x1}
        g = TorusGrid((16, 16), 2 * np.pi)
        f = plane_wave(-1, 1.0, g)
        x1 = g.coords[0]
        assert np.abs(f.values - np.exp(-1j * x1) * np.ones(g.sizes)).max() < 1e-13
        assert abs(action(f, Params(c=1.0)).action) <= 1e-10

    def test_negative_action_branch(self):
        g = TorusGrid((64, 64), 4 * np.pi)
        f = plane_wave(-1, 1.0, g)
        assert np.abs(f.values[0, 0]) == pytest.approx(np.sqrt(1.25), rel=1e-13)
        expected = (4 * np.pi) ** 2 * plane_wave_action_density(-1, 1.0, 4 * np.pi)
        assert expected == pytest.approx((4 * np.pi) ** 2 * (-9.0 / 64.0), rel=1e-14)
        assert action(f, Params(c=1.0)).action == pytest.approx(expected, rel=1e-12)

    def test_no_such_solution(self):
        # T = 3 below the onset pi*(sqrt(5)-1) ~ 3.883
        g = TorusGrid((16, 16), 3.0)
        with pytest.raises(NoSuchSolution):
            plane_wave(-1, 1.0, g)

    def test_certificates_at_recommended_resolution(self):
        cases = [((32, 32), 4 * np.pi, -1, 1.0), ((32, 32), 2 * np.pi, -1, 0.5),
                 ((16, 16, 16), 2 * np.pi, -1, 1.0)]
        for sizes, T, k, c in cases:
            g = TorusGrid(sizes, T)
            cert = certify(plane_wave(k, c, g), Params(c=c))
            assert cert.residual <= 1e-9
            assert abs(cert.integral) <= 1e-9
            assert cert.tail <= 1e-12


class TestVortexAnsatz:
    def test_invariants(self):
        with pytest.raises(ValueError):
            VortexAnsatz(1.5)
        with pytest.raises(ValueError, match="core width"):
            VortexAnsatz(3.0, core_width=0.0)
        with pytest.raises(ValueError):
            VortexAnsatz(4.0, cutoff_inner=7.0, cutoff_outer=20.0)  # inner <= 2R
        with pytest.raises(ValueError):
            VortexAnsatz(4.0, cutoff_inner=10.0, cutoff_outer=9.0)
        a = VortexAnsatz(4.0)
        assert (a.cutoff_inner, a.cutoff_outer) == (12.0, 16.0)

    def test_fitted(self):
        a = fitted_vortex_ansatz(8.0, 40.0)
        assert a.cutoff_outer < 20.0
        assert a.cutoff_inner > 16.0
        with pytest.raises(SupportTooLarge):
            fitted_vortex_ansatz(8.0, 30.0)

    def test_support_fit(self):
        g = TorusGrid((64, 64), 30.0)
        with pytest.raises(SupportTooLarge):
            vortex_test_function(VortexAnsatz(4.0), g)  # needs T > 32

    def test_identity_outside_cutoff(self):
        g = TorusGrid((128, 128), 40.0)
        a = VortexAnsatz(4.0)
        f = vortex_test_function(a, g)
        y = [g.coords[ax] - g.period / 2 for ax in range(2)]
        r = np.sqrt(y[0] ** 2 + y[1] ** 2) + np.zeros(g.sizes)
        outside = r >= a.cutoff_outer
        assert np.abs(f.values[outside] - 1.0).max() == 0.0
        assert np.abs(f.values[~outside] - 1.0).max() > 0.1

    def test_core_windings_opposite(self):
        # small-loop circulation around each core: one +1, one -1
        g = TorusGrid((256, 256), 40.0)
        a = VortexAnsatz(4.0)
        f = vortex_test_function(a, g)
        h = g.period / g.sizes[0]
        half = g.period / 2

        def loop_winding(cx, cy, radius):
            angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            pts = [(cx + radius * np.cos(t), cy + radius * np.sin(t)) for t in angles]
            idx = [(int(round(px / h)) % 256, int(round(py / h)) % 256) for px, py in pts]
            vals = np.array([f.values[i] for i in idx])
            inc = np.angle(np.roll(vals, -1) * np.conj(vals))
            return inc.sum() / (2 * np.pi)

        w_plus = loop_winding(half, half + a.half_separation, 1.5)
        w_minus = loop_winding(half, half - a.half_separation, 1.5)
        assert round(w_plus) + round(w_minus) == 0
        assert abs(round(w_plus)) == 1

    def test_positive_momentum(self):
        g = TorusGrid((128, 128), 40.0)
        f = vortex_test_function(VortexAnsatz(4.0), g)
        assert action(f, Params(c=0.0)).momentum > 0

    def test_negative_action_frozen(self):
        # frozen regression: R=8, default cutoffs, T=66 on 128^2
        g = TorusGrid((128, 128), 66.0)
        f = vortex_test_function(VortexAnsatz(8.0), g)
        rep = action(f, Params(c=1.0))
        assert rep.action < 0
        assert rep.action == pytest.approx(-24.550091683772855, rel=1e-7)

    def test_action_independent_of_period(self):
        # same spacing h = 34/512 = 42.5/640; w_R extended by zero
        p = Params(c=1.0)
        vals = []
        for T, M in ((34.0, 512), (42.5, 640)):
            g = TorusGrid((M, M), T)
            vals.append(action(vortex_test_function(VortexAnsatz(4.0), g), p).action)
        assert abs(vals[0] - vals[1]) <= 1e-10

    def test_ring_smoke(self):
        # N=3 vortex ring: exercised lightly at modest resolution
        g = TorusGrid((48, 48, 48), 26.0)
        a = VortexAnsatz(3.0)
        f = vortex_test_function(a, g)
        rep = action(f, Params(c=0.0))
        assert rep.momentum > 0
        y = [g.coords[ax] - g.period / 2 for ax in range(3)]
        r = np.sqrt(sum(c**2 for c in y)) + np.zeros(g.sizes)
        assert np.abs(f.values[r >= a.cutoff_outer] - 1.0).max() == 0.0
        assert rep.kinetic > 0 and rep.potential > 0


class TestPerturb:
    def test_zero_amplitude(self, grid16):
        f = constant(0.0, grid16)
        assert perturb(f, 0.0, 3, 1) is f

    def test_deterministic(self, grid16):
        f = constant(0.0, grid16)
        a = perturb(f, 0.5, 3, 42)
        b = perturb(f, 0.5, 3, 42)
        assert np.array_equal(a.values, b.values)
        c = perturb(f, 0.5, 3, 43)
        assert not np.array_equal(a.values, c.values)

    def test_norm_scaling(self, grid16):
        f = constant(0.0, grid16)
        for amp in (0.1, 1.0, 3.0):
            out = perturb(f, amp, 3, 7)
            bump = ComplexField(grid16, out.values - f.values)
            target = amp * grid16.period ** (grid16.dim / 2)
            assert l2_norm(bump) == pytest.approx(target, rel=1e-12)

    def test_band_limit(self, grid16):
        f = constant(0.0, grid16)
        band = 2
        out = perturb(f, 1.0, band, 9)
        bump = ComplexField(grid16, out.values - f.values)
        spec = transform_forward(bump)
        for idx in np.ndindex(*grid16.sizes):
            mode = tuple(int(grid16.integer_modes(ax)[idx[ax]]) for ax in range(2))
            if any(abs(m) > band for m in mode):
                assert abs(spec[idx]) < 1e-13

    def test_validation(self, grid16):
        f = constant(0.0, grid16)
        with pytest.raises(ValueError):
            perturb(f, -1.0, 3, 0)
        with pytest.raises(ValueError):
            perturb(f, 1.0, 0, 0)
        with pytest.raises(ValueError):
            perturb(f, 1.0, 8, 0)  # band too wide for 16 nodes
