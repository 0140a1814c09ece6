"""Descent, classification and the minimizer experiment."""

import io

import numpy as np
import pytest

from gptw.field import ComplexField, TorusGrid, l2_norm
from gptw.functionals import Kernel, Params, action, gradient
from gptw.ansatz import constant, perturb, plane_wave, vortex_test_function, VortexAnsatz
from gptw.minimize import (
    CONSTANT_CLASSES,
    MinimizeOptions,
    NonFiniteValue,
    classify,
    default_grad_tol,
    minimize_action,
    minimizer_experiment,
)


@pytest.fixture
def grid16():
    return TorusGrid((16, 16), 2 * np.pi)


@pytest.fixture
def p1():
    return Params(c=1.0)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimizeOptions(max_iters=0)
        with pytest.raises(ValueError):
            MinimizeOptions(grad_tol=-1.0)

    def test_default_tolerance_scales_with_volume(self):
        g = TorusGrid((16, 16), 40.0)
        assert default_grad_tol(g) == pytest.approx(1e-8 * 40.0)
        g3 = TorusGrid((8, 8, 8), 4.0)
        assert default_grad_tol(g3) == pytest.approx(1e-8 * 8.0)


class TestClassify:
    def test_buckets(self, grid16):
        zero = ComplexField(grid16, np.zeros(grid16.sizes, dtype=complex))
        assert classify(zero) == "ZeroConstant"
        assert classify(constant(1.2, grid16)) == "UnitConstant"
        assert classify(plane_wave(-1, 1.0, grid16)) == "PlaneWave"
        g = TorusGrid((64, 64), 40.0)
        assert classify(vortex_test_function(VortexAnsatz(4.0), g)) == "Vortexful"
        bumpy = perturb(constant(0.0, grid16), 0.3, 3, 0)
        assert classify(bumpy) == "OtherNonconstant"

    def test_order_zero_beats_unit(self, grid16):
        tiny = ComplexField(grid16, np.full(grid16.sizes, 1e-9 + 0j))
        assert classify(tiny) == "ZeroConstant"

    def test_constant_modulus_nonunit_is_other(self, grid16):
        f = ComplexField(grid16, np.full(grid16.sizes, 2.0 + 0j))
        assert classify(f) == "OtherNonconstant"


class TestMinimize:
    def test_constants_are_fixed_points(self, grid16, p1):
        for f in (constant(0.0, grid16), constant(0.7, grid16),
                  ComplexField(grid16, np.zeros(grid16.sizes, dtype=complex))):
            point = minimize_action(f, p1)
            assert point.converged
            assert point.iterations == 0
            assert np.array_equal(point.field.values, f.values)

    def test_real_constant_between_zero_and_one_moves(self, grid16, p1):
        f = ComplexField(grid16, np.full(grid16.sizes, 0.5 + 0j))
        point = minimize_action(f, p1)
        assert point.converged
        assert point.iterations >= 1
        assert point.classification == "UnitConstant"
        assert point.report.action < action(f, p1).action

    def test_residual_matches_recomputation(self, grid16, p1):
        init = perturb(constant(0.0, grid16), 0.4, 3, 3)
        point = minimize_action(init, p1)
        fresh = l2_norm(gradient(point.field, p1))
        assert abs(point.residual - fresh) <= 1e-12 * (1 + fresh)

    def test_monotone_log_and_convergence(self, grid16, p1):
        log = io.StringIO()
        opts = MinimizeOptions(log_stream=log)
        init = perturb(constant(0.0, grid16), 0.5, 3, 11)
        point = minimize_action(init, p1, opts)
        assert point.converged
        rows = [line.split() for line in log.getvalue().strip().splitlines()]
        actions = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(actions, actions[1:]))

    def test_stable_plane_wave_recovers(self, grid16, p1):
        # T=2pi: the k=-1 branch is a local minimum; perturbations relax back
        pw = plane_wave(-1, 1.0, grid16)
        target = action(pw, p1).action
        point = minimize_action(perturb(pw, 1e-3, 3, 42), p1)
        assert point.converged
        assert point.classification == "PlaneWave"
        assert abs(point.report.action - target) <= 1e-6

    def test_unstable_plane_wave_escapes(self):
        # T=4.25 sits in the window where the branch exists but carries
        # negative Hessian directions; descent leaves it
        g = TorusGrid((32, 32), 4.25)
        p = Params(c=1.0)
        pw = plane_wave(-1, 1.0, g)
        start = action(pw, p).action
        point = minimize_action(perturb(pw, 1e-3, 3, 1), p)
        assert point.converged
        assert point.classification in CONSTANT_CLASSES
        assert point.report.action < start - 1.0

    def test_phase_equivariance(self, grid16, p1):
        init = perturb(constant(0.0, grid16), 0.4, 3, 21)
        base = minimize_action(init, p1).report.action
        for theta in (0.9, np.pi / 3):
            rotated = ComplexField(grid16, np.exp(1j * theta) * init.values)
            other = minimize_action(rotated, p1).report.action
            assert abs(other - base) <= 1e-8 * (1 + abs(base))

    def test_small_period_multistarts_all_constant(self):
        # below the small-period sufficient bound 2*pi/sqrt(12) ~ 1.814
        g = TorusGrid((16, 16), 1.5)
        p = Params(c=1.0)
        amps = (0.1, 0.5, 1.0)
        for j in range(20):
            init = perturb(constant(0.0, g), amps[j % 3], 3, 500 + j)
            point = minimize_action(init, p)
            assert point.converged
            assert point.classification in CONSTANT_CLASSES

    def test_real_flow_keeps_momentum_zero_at_c0(self):
        g = TorusGrid((16, 16), 3.0)
        p = Params(c=0.0)
        rng = np.random.default_rng(8)
        init = ComplexField(g, (0.5 + 0.2 * rng.standard_normal(g.sizes)).astype(complex))
        point = minimize_action(init, p)
        assert point.converged
        assert abs(point.report.momentum) <= 1e-12

    def test_nonfinite_raises(self, grid16, p1):
        huge = ComplexField(grid16, np.full(grid16.sizes, 1e200 + 0j))
        with pytest.raises(NonFiniteValue):
            minimize_action(huge, p1)

    def test_three_dimensional_descent(self):
        g = TorusGrid((8, 8, 8), 3.0)
        init = perturb(constant(0.0, g), 0.4, 2, 5)
        point = minimize_action(init, Params(c=1.0))
        assert point.converged
        assert point.classification in CONSTANT_CLASSES

    def test_no_exact_step_stops_unconverged(self, grid16, p1, monkeypatch):
        # the exact ray minimum is the only step rule: when it finds no step
        # along either direction, the descent stops unconverged where it began
        monkeypatch.setattr(Kernel, "ray_minimum", staticmethod(lambda p: None))
        init = perturb(constant(0.0, grid16), 0.3, 3, 2)
        point = minimize_action(init, p1)
        assert not point.converged
        assert point.iterations == 0
        assert np.array_equal(point.field.values, init.values)


class TestMinimizerExperiment:
    def test_small_period_constant(self):
        init_grid = TorusGrid((64, 64), 3.0)
        init = perturb(constant(0.0, init_grid), 0.5, 4, 123)
        point, row = minimizer_experiment(1.0, 3.0, 64, 2.0, init=init)
        assert point.converged
        assert row["classification"] in CONSTANT_CLASSES
        assert abs(row["action"]) <= 1e-8 or row["classification"] == "ZeroConstant"

    def test_vortex_start_goes_negative(self):
        # desk-scale slice of the negative-minimizer experiment
        point, row = minimizer_experiment(1.0, 40.0, 128, 8.0,
                                          opts=MinimizeOptions(grad_tol=1e-5 * 40))
        assert point.converged
        assert row["action"] < 0
        assert row["classification"] not in CONSTANT_CLASSES

    def test_grid_mismatch_guard(self):
        g = TorusGrid((16, 16), 3.0)
        init = constant(0.0, g)
        with pytest.raises(ValueError):
            minimizer_experiment(1.0, 3.0, 32, 2.0, init=init)
