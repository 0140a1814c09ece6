"""Descent, classification and the minimizer experiment."""

import io

import numpy as np
import pytest

from gptw import minimize, newton
from gptw.field import ComplexField, TorusGrid, in_class, l2_norm, resample, vortex_count
from gptw.functionals import Kernel, Params, action, certify, gradient
from gptw.ansatz import (
    constant, fitted_vortex_ansatz, perturb, plane_wave, vortex_test_function, VortexAnsatz,
)
from gptw.minimize import (
    CONSTANT_CLASSES,
    MinimizeOptions,
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

    def test_vortex_on_node_is_vortexful(self):
        # T=48 on 64 nodes puts h=0.75; R=4.5 lands a core exactly on a grid
        # node, where the cell windings are not integers and count nothing
        g = TorusGrid((64, 64), 48.0)
        f = vortex_test_function(VortexAnsatz(4.5), g)
        assert float(np.abs(f.values).min()) == 0.0
        assert classify(f) == "Vortexful"

    def test_real_field_with_nodal_line_is_other(self):
        g = TorusGrid((64, 64), 40.0)
        f = ComplexField(g, np.cos(2 * np.pi * g.coords[0] / g.period) + np.zeros(g.sizes))
        assert float(np.abs(f.values).min()) < 0.1
        assert vortex_count(f) == (0, 0)
        assert classify(f) == "OtherNonconstant"

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

    def test_non_finite_field_stops_unconverged(self, grid16, p1):
        # |f|^2 overflows on this field: the descent returns it unconverged,
        # untouched, as Newton does
        huge = ComplexField(grid16, np.full(grid16.sizes, 1e200 + 0j))
        with np.errstate(all="ignore"):
            point = minimize_action(huge, p1)
        assert not point.converged
        assert point.iterations == 0
        assert np.array_equal(point.field.values, huge.values)

    def test_overflowing_step_stops_unconverged(self, grid16, p1, monkeypatch):
        # a trial point whose action overflows is refused along both
        # directions, so the descent stops where it began
        monkeypatch.setattr(Kernel, "ray_minimum", staticmethod(lambda p: 1e300))
        init = perturb(constant(0.0, grid16), 0.3, 3, 2)
        with np.errstate(all="ignore"):
            point = minimize_action(init, p1)
        assert not point.converged
        assert point.iterations == 0
        assert np.array_equal(point.field.values, init.values)

    def test_three_dimensional_descent(self):
        g = TorusGrid((8, 8, 8), 3.0)
        init = perturb(constant(0.0, g), 0.4, 2, 5)
        point = minimize_action(init, Params(c=1.0))
        assert point.converged
        assert point.classification in CONSTANT_CLASSES

    def test_no_companion_matrix_roots(self, monkeypatch):
        # ray_minimum solves its cubic in closed form
        def forbidden(*args, **kwargs):
            raise AssertionError("the descent called a numpy root finder")

        monkeypatch.setattr(np, "roots", forbidden)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        g = TorusGrid((32, 32), 21.0)
        point = minimize_action(vortex_test_function(fitted_vortex_ansatz(5.0, 21.0), g),
                                Params(c=1.0))
        assert point.converged

    def test_no_exact_step_stops_unconverged(self, grid16, p1, monkeypatch):
        # the exact ray minimum is the only step rule: when it finds no step
        # along either direction, the descent stops unconverged where it began
        monkeypatch.setattr(Kernel, "ray_minimum", staticmethod(lambda p: None))
        init = perturb(constant(0.0, grid16), 0.3, 3, 2)
        point = minimize_action(init, p1)
        assert not point.converged
        assert point.iterations == 0
        assert np.array_equal(point.field.values, init.values)


def _stall_start(n, T, R):
    g = TorusGrid((n, n), T)
    return vortex_test_function(fitted_vortex_ansatz(R, T), g)


class TestDescentFloor:
    """Every descent result comes from the descent: the ray step keeps drops
    below one ulp of the action, convergence is read off the nodes'
    spectrum, and below its floor the descent stops unconverged."""

    def test_sub_ulp_drop_is_a_step(self):
        # the ray quartic where the 32^2, T = 13, R = 3 descent stalled when
        # ray_minimum compared p(alpha) with p0: the drop at the minimum,
        # about 8e-16, is below one ulp of p0 (3.6e-15)
        p = np.array([-23.736247887059726, -2.4946e-15, 1.8514e-15, 5.7e-24, 7.8e-33])
        alpha = Kernel.ray_minimum(p)
        assert alpha is not None and 0.6 < alpha < 0.75

    @pytest.mark.parametrize("T,R", [(13.0, 3.0), (17.0, 4.0)])
    def test_stall_starts_converge_by_descent(self, T, R, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the descent called Newton-MINRES")

        # also where a module that imported the solver by name would call it
        for module in (newton, minimize):
            monkeypatch.setattr(module, "newton_minres", forbidden, raising=False)
        start = _stall_start(32, T, R)
        point = minimize_action(start, Params(c=1.0))
        assert point.converged
        assert point.residual <= default_grad_tol(start.grid)
        assert point.classification == "PlaneWave"

    @pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13])
    def test_converged_residual_is_the_nodes(self, tol):
        # On both routes: the start lies in H, its e^{0.7i} rotation does
        # not. Each route's floor on this start: the class route converged
        # at 3e-13 and stalled at 2e-13 (residual 2.4e-13); the full route,
        # from the rotated start, converged at 2e-13 and stalled at 1e-13
        # (1.5e-13). 1e-13 lies below both.
        p = Params(c=1.0)
        start = _stall_start(32, 13.0, 3.0)
        for theta in (0.0, 0.7):
            init = start.with_values(np.exp(1j * theta) * start.values)
            point = minimize_action(init, p, MinimizeOptions(grad_tol=tol))
            true = certify(point.field, p).residual
            if point.converged:
                assert true <= tol
            assert point.converged == (tol > 1e-13)
            # certify computes in the basis the descent ran in, and the two
            # residuals round apart by at most about 1e-16 at the floor; the
            # carried spectrum's drift read 5.3e-14 where the nodes' gave 3.3e-13
            assert abs(point.residual - true) <= 1e-3 * true

    def test_below_the_floor_stops_unconverged(self):
        start = _stall_start(64, 40.0, 8.0)
        point = minimize_action(start, Params(c=1.0),
                                MinimizeOptions(grad_tol=1e-15, max_iters=500))
        assert not point.converged
        assert point.iterations < 500
        assert point.classification == "PlaneWave"


def _descent_transforms(monkeypatch, calls, restart_every):
    """(transforms counted in `calls` over the whole minimize_action call,
    the critical point it returns included, iterations, RESTART_EVERY) of a
    converged 32^2 descent from a vortex test function."""
    if restart_every is not None:
        monkeypatch.setattr(minimize, "RESTART_EVERY", restart_every)
    g = TorusGrid((32, 32), 21.0)
    init = vortex_test_function(fitted_vortex_ansatz(5.0, 21.0), g)
    calls.clear()
    point = minimize_action(init, Params(c=1.0))
    assert point.converged
    return len(calls), point.iterations, minimize.RESTART_EVERY


class TestCarriedSpectra:
    """The descent carries the spectra of its iterate and direction by
    linearity and refreshes the iterate's at every RESTART_EVERY restart."""

    @pytest.mark.parametrize("restart_every", [None, 10])
    def test_three_transforms_per_iteration(self, restart_every, monkeypatch, fft_calls):
        count, iters, every = _descent_transforms(monkeypatch, fft_calls, restart_every)
        if restart_every is not None:
            assert iters >= 2 * every  # the refresh is counted
        assert count <= 3 * iters + 4 + iters // every

    @pytest.mark.parametrize("restart_every", [None, 10])
    def test_two_transforms_per_iteration(self, restart_every, monkeypatch, fft_calls):
        # set-up: the initial spectrum and one preconditioned gradient; one
        # refresh per restart, and the confirm of the converged residual
        # unless it converged on a restart, which refreshed already
        count, iters, every = _descent_transforms(monkeypatch, fft_calls, restart_every)
        confirm = 0 if iters % every == 0 else 1
        assert count == 2 * iters + 3 + iters // every + confirm

    def test_no_drift_across_restarts(self, grid16, p1, monkeypatch):
        monkeypatch.setattr(minimize, "RESTART_EVERY", 3)
        log = io.StringIO()
        init = perturb(constant(0.0, grid16), 0.5, 3, 11)
        point = minimize_action(init, p1, MinimizeOptions(log_stream=log))
        assert point.converged
        assert point.iterations > 3
        rows = [line.split() for line in log.getvalue().strip().splitlines()]
        actions = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(actions, actions[1:]))
        final = point.report.action
        assert abs(actions[-1] - final) <= 1e-12 * (1 + abs(final))
        fresh = l2_norm(gradient(point.field, p1))
        assert abs(point.residual - fresh) <= 1e-12 * (1 + fresh)


def _vortex_start(g):
    return vortex_test_function(fitted_vortex_ansatz(5.0, g.period), g)


def _plane_wave_start(g):
    return perturb(plane_wave(-1, 1.0, g), 1e-3, 3, 42)


class TestHeldValues:
    """The critical point is built from what the descent holds when it
    stops; its values are those computed from scratch at its field."""

    @pytest.mark.parametrize("start,T", [(_vortex_start, 21.0),
                                         (_plane_wave_start, 2 * np.pi)])
    def test_match_from_scratch(self, start, T):
        g = TorusGrid((32, 32), T)
        p = Params(c=1.0)
        point = minimize_action(start(g), p)
        assert point.converged
        # the residual the stopping rule tested: no rounding slack
        assert point.residual <= default_grad_tol(g)
        fresh, cert = action(point.field, p), certify(point.field, p)
        for name in ("kinetic", "potential", "momentum", "action"):
            want = getattr(fresh, name)
            assert abs(getattr(point.report, name) - want) <= 1e-12 * (1 + abs(want))
        assert abs(point.residual - cert.residual) <= 1e-12 * (1 + cert.residual)
        assert abs(point.integral - cert.integral) <= 1e-12 * (1 + abs(cert.integral))


class TestMinimizerExperiment:
    def test_small_period_constant(self):
        init_grid = TorusGrid((64, 64), 3.0)
        init = perturb(constant(0.0, init_grid), 0.5, 4, 123)
        point, _ = minimizer_experiment(1.0, 3.0, 64, 2.0, init=init)
        assert point.converged
        assert point.classification in CONSTANT_CLASSES
        assert abs(point.report.action) <= 1e-8 or point.classification == "ZeroConstant"

    def test_vortex_start_goes_negative(self):
        # desk-scale slice of the negative-minimizer experiment
        point, _ = minimizer_experiment(1.0, 40.0, 128, 8.0,
                                        opts=MinimizeOptions(grad_tol=1e-5 * 40))
        assert point.converged
        assert point.report.action < 0
        assert point.classification not in CONSTANT_CLASSES

    def test_grid_mismatch_guard(self):
        g = TorusGrid((16, 16), 3.0)
        init = constant(0.0, g)
        with pytest.raises(ValueError):
            minimizer_experiment(1.0, 3.0, 32, 2.0, init=init)


def _transform_shapes(monkeypatch):
    """Record the grid sizes of every transform made through field's
    fft_forward, fft_inverse, class_forward and class_inverse, through each
    gptw module that binds them."""
    import gptw
    from gptw import field

    shapes = []

    def counting(fn):
        # class_forward(half, sizes) transforms to the grid sizes it is given
        def wrapper(data, *sizes):
            shapes.append(sizes[0] if sizes else data.shape)
            return fn(data, *sizes)
        return wrapper

    for name in ("fft_forward", "fft_inverse", "class_forward", "class_inverse"):
        original = getattr(field, name)
        for module in vars(gptw).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(original))
    return shapes


class TestNestedDescent:
    """minimizer_experiment finds the basin on the coarsest grid that
    resolves its start and finishes on the target grid."""

    def test_target_grid_only_finishes(self, monkeypatch):
        T = 40.0
        g = TorusGrid((256, 256), T)
        init = vortex_test_function(fitted_vortex_ansatz(8.0, T), g)
        shapes = _transform_shapes(monkeypatch)
        log = io.StringIO()
        point, start = minimizer_experiment(1.0, T, 256, 8.0, init=init,
                                            opts=MinimizeOptions(grad_tol=2e-7, log_stream=log))
        assert point.converged and point.field.grid == g
        assert start.field.grid.sizes == (64, 64) and start.iterations > 0
        # the coarse grid's tail, the restriction, the prolongation, and the
        # target descent's spectrum and gradient spectrum: no target-grid
        # iteration is left
        assert shapes.count((256, 256)) == 5
        assert shapes.count((64, 64)) >= 2 * start.iterations
        # the log is the target-grid descent's
        assert len(log.getvalue().splitlines()) == point.iterations

    def test_resolved_start_descends_on_its_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(minimize, "minimize_action",
                            lambda init, *a: calls.append(init.grid) or minimize_action(init, *a))
        g = TorusGrid((64, 64), 29.0)
        point, start = minimizer_experiment(1.0, 29.0, 64, 3.5)
        assert calls == [g]
        assert start is None and point.field.grid == g

    def test_plane_wave_start_stays_a_plane_wave(self):
        # the k = 5 wave is critical and resolved on 16^2, not on 8^2
        g = TorusGrid((64, 64), 40.0)
        point, start = minimizer_experiment(0.0, 40.0, 64, 8.0, init=plane_wave(5, 0.0, g))
        assert point.converged and point.field.grid == g
        assert start.field.grid.sizes == (16, 16)
        assert point.classification == "PlaneWave"

    def test_constancy_scan_descends_once_per_start(self, monkeypatch):
        from gptw import spectrum

        calls = []
        monkeypatch.setattr(spectrum, "minimize_action",
                            lambda init, *a: calls.append(init.grid) or minimize_action(init, *a))
        spectrum.constancy_scan(1.0, [1.0, 1.5], starts=3, resolution=16, seed=0)
        assert calls == [TorusGrid((16, 16), 1.0)] * 3 + [TorusGrid((16, 16), 1.5)] * 3


def _rotated(f, theta=0.7):
    """e^{i theta} f: an exact symmetry of the action, which takes a field
    of the reflection class H out of it unless theta is 0 or pi."""
    return f.with_values(np.exp(1j * theta) * f.values)


@pytest.fixture(scope="module")
def criterion5_coarse():
    """The minimizer of the criterion-5 descent on 64^2 (T = 40, R = 8,
    grad_tol 2e-7), where minimizer_experiment finds the basin."""
    point = minimize_action(_stall_start(64, 40.0, 8.0), Params(c=1.0),
                            MinimizeOptions(grad_tol=2e-7))
    assert point.converged
    return point.field


class TestClassRoute:
    """A start in the reflection class H (field.in_class) descends in the
    Kernel's class basis; its e^{0.7i} rotation, the same start up to a
    symmetry of the action, leaves H and descends on the full grid."""

    @pytest.mark.parametrize("n,T,R,grad_tol", [(32, 13.0, 3.0, None), (64, 40.0, 8.0, 2e-7)],
                             ids=["stall-start-32", "criterion-5-64"])
    def test_class_descent_matches_full_descent(self, n, T, R, grad_tol):
        p = Params(c=1.0)
        start = _stall_start(n, T, R)
        assert in_class(start) and not in_class(_rotated(start))
        opts = MinimizeOptions(grad_tol=grad_tol)
        cls = minimize_action(start, p, opts)
        full = minimize_action(_rotated(start), p, opts)
        tol = default_grad_tol(start.grid) if grad_tol is None else grad_tol
        assert cls.converged and full.converged
        assert cls.iterations == full.iterations
        assert cls.report.action == pytest.approx(full.report.action, rel=1e-12)
        assert cls.residual <= tol and full.residual <= tol
        assert cls.classification == full.classification == "PlaneWave"
        assert abs(full.integral - np.exp(0.7j) * cls.integral) <= 1e-5 * abs(cls.integral)
        assert np.abs(_rotated(full.field, -0.7).values - cls.field.values).max() <= 1e-9

    def test_criterion_5(self):
        # both stages run in H, and meet the full-grid descent's action and
        # its 109 coarse iterations
        point, start = minimizer_experiment(1.0, 40.0, 256, 8.0,
                                            opts=MinimizeOptions(grad_tol=2e-7))
        assert point.converged and point.residual <= 2e-7
        assert point.report.action == pytest.approx(-112.93699680205735, rel=1e-10)
        assert point.classification == "PlaneWave"
        assert start.iterations == 109 and point.iterations == 0

    def test_scan_starts_descend_on_the_full_grid(self, monkeypatch):
        from gptw import spectrum

        halves = []

        class Recording(Kernel):
            def __init__(self, grid, p, *, half):
                halves.append(half)
                super().__init__(grid, p, half=half)

        monkeypatch.setattr(minimize, "Kernel", Recording)
        spectrum.constancy_scan(1.0, [1.5, 8.0], starts=4, resolution=16, seed=7)
        assert len(halves) == 8 and not any(halves)

    def test_converged_start_costs_two_transforms(self, criterion5_coarse, fft_calls):
        # the prolonged criterion-5 minimizer meets grad_tol: the descent
        # forms its spectrum and its gradient spectrum, and nothing else
        fine = resample(criterion5_coarse, TorusGrid((128, 128), 40.0))
        for f, name in ((fine, "irfftn"), (_rotated(fine), "fftn")):
            fft_calls.clear()
            point = minimize_action(f, Params(c=1.0), MinimizeOptions(grad_tol=2e-7))
            assert point.converged and point.iterations == 0
            assert [fn.__name__ for fn in fft_calls] == [name, name]

    @pytest.mark.parametrize("n", [128, 256])
    def test_finish_memory(self, criterion5_coarse, n, traced_peak):
        # the traced peak of the finish on the prolonged criterion-5 point,
        # in full-size complex arrays (measured: 3.51 and 4.51 at 128^2,
        # 3.50 and 4.13 at 256^2). The class route's is classify (2.5
        # arrays: a rolled copy with the product formed in it and a
        # conjugate, next to the increments of the first axis) beside the
        # mirrored field. The full route's is the gradient spectrum next to
        # the spectrum and the density; at 128^2 scipy.fft takes one array
        # more there than at 256^2. The report reads the held density and
        # forms no second one.
        grid = TorusGrid((n, n), 40.0)
        fine = resample(criterion5_coarse, grid)
        full_array = 16 * grid.node_count
        p, opts = Params(c=1.0), MinimizeOptions(grad_tol=2e-7)
        full_route = {128: 4.75, 256: 4.375}[n]
        for f, arrays in ((fine, 3.75), (_rotated(fine), full_route)):
            minimize_action(f, p, opts)  # the grid's symbols are cached on it
            point, peak = traced_peak(minimize_action, f, p, opts)
            assert point.converged and point.iterations == 0
            assert peak <= arrays * full_array
