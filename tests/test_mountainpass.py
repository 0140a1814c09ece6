"""Path construction, string relaxation and saddle refinement."""

import gc
import weakref

import numpy as np
import pytest

from gptw.field import (ComplexField, TorusGrid, coarsest_grid, fft_forward, fft_inverse,
                        in_class, l2_product, resample, spectral_tail, vortex_count)
from gptw.functionals import Kernel, Params, action, certify, hessian_apply
from gptw.ansatz import VortexAnsatz, constant
from gptw.minimize import OTHER_NONCONSTANT, VORTEXFUL, classify
from gptw.mountainpass import (
    NODE_STEPS,
    STEP0,
    NotASaddle,
    Path,
    RelaxOptions,
    SaddleOptions,
    _reparametrize,
    _straight_path_max,
    find_saddle,
    init_path,
    mountain_pass_pipeline,
    relax_path,
)
from gptw.newton import CERT_TOL, certified_tol, newton_minres
from gptw.spectrum import hessian_operator, lanczos_smallest, smallest_direction, symmetry_basis


P1 = Params(c=1.0)
# A global phase: an exact symmetry of the action that takes the paths and
# saddles of the reflection class H out of it, onto the full-grid route.
PHASE = np.exp(0.7j)

# shared small-scale setting: R=3.5 with default cutoffs (10.5, 14) fits
# T=29 and carries negative endpoint action at c=1
SMALL = dict(T=29.0, size=64, R=3.5)


def _rotated(path):
    """`path` with every node times PHASE."""
    return Path(tuple(n.with_values(PHASE * n.values) for n in path.nodes))


@pytest.fixture(scope="module")
def small_grid():
    return TorusGrid((SMALL["size"],) * 2, SMALL["T"])


@pytest.fixture(scope="module")
def small_pipeline(small_grid):
    return mountain_pass_pipeline(
        1.0, small_grid, SMALL["R"], node_count=17,
        relax_opts=RelaxOptions(sweeps=40, patience=6),
        saddle_opts=SaddleOptions(grad_tol=1e-8 * SMALL["T"]),
    )


@pytest.fixture(scope="module")
def rotated_pipeline(small_grid):
    """small_pipeline with every node of its straight path times PHASE, so
    the string, Newton and the witness run on the full grid."""
    from gptw import mountainpass

    original = mountainpass._straight_nodes

    def rotated(*args):
        return tuple(n.with_values(PHASE * n.values) for n in original(*args))

    mountainpass._straight_nodes = rotated
    try:
        return mountain_pass_pipeline(
            1.0, small_grid, SMALL["R"], node_count=17,
            relax_opts=RelaxOptions(sweeps=40, patience=6),
            saddle_opts=SaddleOptions(grad_tol=1e-8 * SMALL["T"]),
        )
    finally:
        mountainpass._straight_nodes = original


@pytest.fixture(scope="module")
def coarse_string():
    """TestCoarseString's 128^2 pipeline, with the grids relax_path ran on."""
    from gptw import mountainpass

    cls = TestCoarseString
    grids = []
    original = mountainpass.relax_path

    def spy(path, *args):
        grids.append(path.grid)
        return original(path, *args)

    mountainpass.relax_path = spy
    try:
        out = mountain_pass_pipeline(1.0, TorusGrid((128, 128), cls.T), cls.R,
                                     node_count=cls.NODES, saddle_opts=cls.SADDLE)
    finally:
        mountainpass.relax_path = original
    return out, grids


class TestInitPath:
    def test_structure(self, small_grid):
        path = init_path(small_grid, SMALL["R"], node_count=9)
        assert len(path.nodes) == 9
        acts = path.actions(P1)
        assert abs(acts[0]) <= 1e-12            # constant 1
        assert acts[-1] < 0                      # 1 + w_R carries negative action
        assert acts.max() > 0                    # barrier in between

    def test_node_count_validation(self, small_grid):
        with pytest.raises(ValueError):
            init_path(small_grid, SMALL["R"], node_count=2)

    def test_support_guard(self):
        g = TorusGrid((32, 32), 20.0)
        with pytest.raises(Exception):
            init_path(g, 8.0, 9)

    def test_upper_bound_independent_of_period(self):
        # M = max action over the straight path; w_R is extended by zero, so
        # matching spacings give the same M on different tori
        Ms = []
        for T, M in ((34.0, 512), (42.5, 640)):
            g = TorusGrid((M, M), T)
            path = init_path(g, 4.0, 17, ansatz=VortexAnsatz(4.0))
            Ms.append(float(path.actions(P1).max()))
        assert abs(Ms[0] - Ms[1]) <= 1e-10

    def test_path_type_validation(self, small_grid):
        with pytest.raises(ValueError):
            Path((constant(0.0, small_grid),) * 2)

    def test_mixed_grids_raise(self, small_grid):
        other = TorusGrid((32, 32), SMALL["T"])
        with pytest.raises(ValueError, match="one grid"):
            Path((constant(0.0, small_grid), constant(0.0, other), constant(0.0, small_grid)))


@pytest.mark.parametrize("make", [
    lambda: RelaxOptions(sweeps=0),
    lambda: RelaxOptions(patience=0),
    lambda: SaddleOptions(max_iters=0),
], ids=["sweeps", "patience", "max_iters"])
def test_option_guards(make):
    with pytest.raises(ValueError, match=">= 1"):
        make()


def _sweep_budget(path, fft_calls, monkeypatch):
    """Relax the 6-node `path` for 3 sweeps, the first rejected, and check
    the transforms of the start path, of each sweep and of the returned
    actions; returns the names of the transforms made."""
    from gptw import mountainpass

    interior = 4
    decisions = iter([False, True, True])
    marks, first_gradient = [], []

    def scripted(trial, value):
        marks.append(len(fft_calls))
        return next(decisions)

    original = Kernel.preconditioned_gradient

    def counted(self, *args):
        if not first_gradient:
            first_gradient.append(len(fft_calls))
        return original(self, *args)

    monkeypatch.setattr(mountainpass, "admits", scripted)
    monkeypatch.setattr(Kernel, "preconditioned_gradient", counted)
    fft_calls.clear()
    relax_path(path, P1, RelaxOptions(sweeps=3))
    assert first_gradient == [6]
    per_sweep = np.diff([first_gradient[0]] + marks + [len(fft_calls)]).tolist()
    assert per_sweep == [interior * 2 * NODE_STEPS,         # rejected
                         interior * 2 * (NODE_STEPS - 1),   # its retry
                         interior * 2 * NODE_STEPS,         # a fresh sweep
                         interior]                          # returned actions
    return [fn.__name__ for fn in fft_calls]


class TestRelaxPath:
    def test_constants_path_is_stationary_then_stalls(self):
        g = TorusGrid((16, 16), 2 * np.pi)
        nodes = tuple(constant(th, g) for th in np.linspace(0, 2 * np.pi, 9))
        path = Path(nodes)
        relaxed, gamma, _ = relax_path(path, P1, RelaxOptions(sweeps=30, patience=3))
        assert gamma == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(relaxed.nodes[0].values, nodes[0].values)
        assert np.array_equal(relaxed.nodes[-1].values, nodes[-1].values)
        # every node is a critical point, so nothing moves beyond rounding
        for a, b in zip(relaxed.nodes, nodes):
            assert np.abs(a.values - b.values).max() <= 1e-9

    def test_gamma_monotone_over_sweeps(self, small_grid):
        path = init_path(small_grid, SMALL["R"], node_count=9)
        gammas = [float(path.actions(P1).max())]
        current = path
        for _ in range(6):
            current, gamma, _ = relax_path(current, P1, RelaxOptions(sweeps=1, patience=10))
            gammas.append(gamma)
        assert all(b <= a + 1e-10 for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] < gammas[0]

    def test_transform_budget(self, fft_calls):
        # every node carries its spectrum across sweeps: one transform per
        # node for the start path's actions and spectra, 2 per step of each
        # interior node, and one per interior node for the returned actions
        g = TorusGrid((32, 32), SMALL["T"])
        path = init_path(g, SMALL["R"], node_count=5)
        fft_calls.clear()
        relax_path(path, P1, RelaxOptions(sweeps=1))
        assert len(fft_calls) == 5 + 3 * 2 * NODE_STEPS + 3

    @pytest.mark.parametrize("size", [16, 32])
    def test_transform_budget_per_sweep(self, size, fft_calls, monkeypatch):
        # a scripted acceptance test rejects the first sweep: its retry
        # reuses the first-step gradients of the accepted nodes, and the
        # start path is transformed once, with no second actions pass; the
        # path lies in H, so every transform is a class one
        g = TorusGrid((size, size), SMALL["T"])
        names = _sweep_budget(init_path(g, SMALL["R"], node_count=6), fft_calls, monkeypatch)
        assert names[:6] == ["irfftn"] * 6
        assert set(names) == {"irfftn", "rfftn"}

    @pytest.mark.parametrize("size", [16, 32])
    def test_transform_budget_per_sweep_off_class(self, size, fft_calls, monkeypatch):
        # the same budget on the full grid, for the path rotated out of H
        g = TorusGrid((size, size), SMALL["T"])
        path = init_path(g, SMALL["R"], node_count=6)
        names = _sweep_budget(_rotated(path), fft_calls, monkeypatch)
        assert names[:6] == ["fftn"] * 6
        assert set(names) == {"fftn", "ifftn"}

    def test_node_actions_evaluated_once(self):
        # the returned actions are those of the returned path, evaluated in
        # the basis the string ran in: the class basis for init_path, whose
        # nodes lie in H, the full grid for the path rotated out of it
        g = TorusGrid((32, 32), SMALL["T"])
        path = init_path(g, SMALL["R"], node_count=5)
        relaxed, _, acts = relax_path(path, P1, RelaxOptions(sweeps=3))
        kern = Kernel(g, P1, half=True)
        assert np.array_equal(acts, [kern.action(kern.store(n))[0] for n in relaxed.nodes])
        relaxed, _, acts = relax_path(_rotated(path), P1, RelaxOptions(sweeps=3))
        assert np.array_equal(acts, relaxed.actions(P1))

    def test_sweep_matches_steps_from_scratch(self):
        # the spectrum a node carries through its steps gives the steps
        # v -> v - STEP0 * precondition(gradient(v)) made from scratch
        g = TorusGrid((32, 32), SMALL["T"])
        path = init_path(g, SMALL["R"], node_count=5)
        relaxed, gamma, _ = relax_path(path, P1, RelaxOptions(sweeps=1))
        assert gamma < path.actions(P1).max()  # the sweep was accepted
        kern = Kernel(g, P1, half=False)
        moved = [n.values for n in path.nodes]
        for i in range(1, len(moved) - 1):
            for _ in range(NODE_STEPS):
                z = fft_inverse(fft_forward(kern.gradient(moved[i])) * kern.preconditioner)
                moved[i] = moved[i] - STEP0 * z
        nodes, spectra = _reparametrize(moved, [fft_forward(v) for v in moved], kern.dot)
        for got, want in zip(relaxed.nodes, nodes):
            assert np.abs(got.values - want).max() <= 1e-12
        # the spectra are interpolated with the nodes' weights
        for v, spec in zip(nodes, spectra):
            assert np.abs(fft_forward(v) - spec).max() <= 1e-15

    def test_endpoints_bit_for_bit(self, small_pipeline):
        _, relaxed, _ = small_pipeline
        g = relaxed.grid
        start = constant(0.0, g)
        assert np.array_equal(relaxed.nodes[0].values, start.values)
        fresh = init_path(g, SMALL["R"], node_count=17)
        assert np.array_equal(relaxed.nodes[-1].values, fresh.nodes[-1].values)


class TestGammaBarrier:
    def test_gamma_dominates_sphere_minimum(self, small_grid, small_pipeline):
        # gamma must clear the action barrier on the sphere at distance
        # delta = 0.1 from the curve of modulus-one constants, measured in
        # the H1 metric; the barrier minimum is sampled over random fields
        from gptw.field import l2_norm
        from gptw.functionals import action as action_of

        def h1_norm(f):
            # the kinetic part of the action is half the squared L2 norm of grad f
            return np.sqrt(l2_norm(f) ** 2 + 2 * action_of(f, Params(c=0.0)).kinetic)

        result, _, _ = small_pipeline
        g = small_grid
        delta = 0.1
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        eps = np.inf
        for seed in range(30):
            rng = np.random.default_rng(seed)
            u = ComplexField(g, rng.standard_normal(g.sizes)
                             + 1j * rng.standard_normal(g.sizes))
            u = ComplexField(g, u.values / h1_norm(u))
            psi = ComplexField(g, 1.0 + delta * u.values)
            dist = min(h1_norm(ComplexField(g, psi.values - np.exp(1j * th)))
                       for th in thetas)
            assert dist <= delta + 1e-9
            assert dist >= 0.03  # stays a genuine distance away from Z
            eps = min(eps, action_of(psi, P1).action)
        assert eps > 0.0
        assert result.gamma >= eps


class TestFindSaddle:
    def test_small_saddle(self, small_pipeline):
        result, relaxed, upper = small_pipeline
        s = result.saddle
        assert s.converged
        assert s.residual <= 1e-6 * SMALL["T"]
        assert 0.0 < s.report.action <= upper + 1e-8
        assert 0.0 < result.gamma <= upper
        assert result.witness_value < 0.0
        # witness direction certifies the index through the quadratic form
        quad = l2_product(hessian_apply(s.field, result.index_witness, P1),
                          result.index_witness)
        assert quad < 0.0
        norm2 = l2_product(result.index_witness, result.index_witness)
        assert quad / norm2 == pytest.approx(result.witness_value, rel=1e-9)

    def test_morse_count_two(self, small_pipeline):
        # a two-vector block at the saddle resolves its one negative
        # direction and the bottom of the positive cluster above it
        result, _, _ = small_pipeline
        s = result.saddle.field
        kern = Kernel(s.grid, P1, half=False)
        hess = hessian_operator(kern, s)
        products = 0

        def matvec(vec):
            nonlocal products
            products += 1
            return hess(vec)

        vals, _ = lanczos_smallest(matvec, kern.precondition_real, symmetry_basis(s), 2,
                                   np.random.default_rng(0))
        assert np.sum(vals < 0.0) == 1
        assert products <= 1000

    def test_saddle_certificate(self, small_pipeline):
        result, _, _ = small_pipeline
        assert abs(result.saddle.integral) <= 1e-6

    def test_held_values_match_from_scratch(self, small_grid, small_pipeline):
        # the saddle's point comes from the Newton result, and gamma from
        # the node actions relax_path returned
        result, relaxed, _ = small_pipeline
        s = result.saddle
        fresh, cert = action(s.field, P1), certify(s.field, P1)
        for name in ("kinetic", "potential", "momentum", "action"):
            want = getattr(fresh, name)
            assert abs(getattr(s.report, name) - want) <= 1e-12 * (1 + abs(want))
        assert abs(s.residual - cert.residual) <= 1e-12 * (1 + cert.residual)
        assert abs(s.integral - cert.integral) <= 1e-12 * (1 + abs(cert.integral))
        assert s.converged
        assert s.residual <= certified_tol(small_grid, 1e-8 * SMALL["T"])
        assert np.array_equal(result.path_actions, relaxed.actions(P1))
        assert result.gamma == float(relaxed.actions(P1).max())

    def test_stopping_rule_reads_cert_tol(self, small_pipeline):
        # converged implies |int (1-|f|^2) f| <= CERT_TOL, however loose
        # grad_tol is
        _, relaxed, _ = small_pipeline
        result = find_saddle(relaxed, P1, SaddleOptions(grad_tol=1e-3))
        assert result.saddle.converged
        assert result.saddle.residual <= CERT_TOL / SMALL["T"]
        assert abs(result.saddle.integral) <= CERT_TOL

    def test_near_z_raises_not_a_saddle(self):
        g = TorusGrid((16, 16), 2 * np.pi)
        nodes = tuple(constant(th, g) for th in np.linspace(0, 2 * np.pi, 5))
        with pytest.raises(NotASaddle):
            find_saddle(Path(nodes), P1, SaddleOptions(max_iters=20))

    def test_gamma_bounded_by_initial_max(self, small_pipeline):
        result, _, upper = small_pipeline
        assert result.gamma <= upper + 1e-12


class TestClassRoute:
    """The string, Newton and the witness run in the reflection class H when
    their input lies in it, and give the full route's results there."""

    def test_relax_path_matches_full_route(self, small_grid):
        path = init_path(small_grid, SMALL["R"], node_count=17)
        opts = RelaxOptions(sweeps=40, patience=6)
        got, gamma, acts = relax_path(path, P1, opts)
        want, want_gamma, want_acts = relax_path(_rotated(path), P1, opts)
        assert gamma == pytest.approx(want_gamma, rel=1e-12)
        assert np.allclose(acts, want_acts, rtol=1e-12, atol=1e-12)
        for a, b in zip(got.nodes, want.nodes):
            assert np.abs(a.values - np.conj(PHASE) * b.values).max() <= 1e-12

    def test_pipeline_matches_full_route(self, small_pipeline, rotated_pipeline):
        (got, relaxed, M), (want, rotated, want_M) = small_pipeline, rotated_pipeline
        assert in_class(relaxed.nodes[1]) and not in_class(rotated.nodes[1])
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        assert np.allclose(got.path_actions, want.path_actions, rtol=1e-12, atol=1e-12)
        assert abs(got.saddle.report.action - want.saddle.report.action) <= 1e-12
        # both Newton stages take the same steps
        assert got.coarse is not None and want.coarse is not None
        assert got.coarse.iterations == want.coarse.iterations
        assert got.saddle.iterations == want.saddle.iterations
        assert got.saddle.converged and want.saddle.converged
        saddle = np.conj(PHASE) * want.saddle.field.values
        assert np.abs(got.saddle.field.values - saddle).max() <= 1e-10
        assert got.witness_value < 0.0 and want.witness_value < 0.0
        assert abs(got.witness_value - want.witness_value) <= 1e-6
        assert M == want_M

    def test_find_saddle_matches_full_route(self, small_pipeline):
        _, relaxed, _ = small_pipeline
        opts = SaddleOptions(grad_tol=1e-8 * SMALL["T"])
        got, want = find_saddle(relaxed, P1, opts), find_saddle(_rotated(relaxed), P1, opts)
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        assert abs(got.saddle.report.action - want.saddle.report.action) <= 1e-12
        assert got.saddle.iterations == want.saddle.iterations
        assert abs(got.witness_value - want.witness_value) <= 1e-6

    def test_one_node_off_class_puts_the_string_on_the_full_grid(self, fft_calls):
        # Kernel.of reads every node: one interior node times PHASE leaves
        # H, and the whole string runs on the full grid
        path = init_path(TorusGrid((32, 32), SMALL["T"]), SMALL["R"], node_count=5)
        node = path.nodes[2]
        rotated = node.with_values(PHASE * node.values)
        mixed = Path(path.nodes[:2] + (rotated,) + path.nodes[3:])
        assert not Kernel.of(P1, node, rotated).half and Kernel.of(P1, node).half
        for start, names in ((mixed, {"fftn", "ifftn"}), (path, {"irfftn", "rfftn"})):
            fft_calls.clear()
            relax_path(start, P1, RelaxOptions(sweeps=2))
            assert {fn.__name__ for fn in fft_calls} == names

    def test_witness_is_in_class_without_zero_modes(self, small_pipeline):
        # on H the Hessian has no symmetry zero mode: the witness direction
        # lies in H, and its Rayleigh quotient is the full Hessian's
        result, _, _ = small_pipeline
        w = result.index_witness
        assert in_class(result.saddle.field) and in_class(w)
        quad = l2_product(hessian_apply(result.saddle.field, w, P1), w)
        assert quad / l2_product(w, w) == pytest.approx(result.witness_value, rel=1e-9)


class TestNestedNewton:
    """find_saddle refines the max node on its coarsest resolving grid
    first, then on the path's grid from the prolonged result."""

    def test_coarsest_grid_is_the_direct_newton(self, small_pipeline):
        # on a grid that is already the coarsest the nested refinement is
        # one Newton solve from the max node, bit for bit; SMALL's relaxed
        # path, restricted to 32^2, has its max node there
        grid = TorusGrid((32, 32), SMALL["T"])
        path = Path(tuple(resample(n, grid) for n in small_pipeline[1].nodes))
        opts = SaddleOptions(grad_tol=1e-8 * SMALL["T"])
        result = find_saddle(path, P1, opts)
        top = path.nodes[int(np.argmax(result.path_actions))]
        assert coarsest_grid(top) == grid
        direct = newton_minres(top, P1, certified_tol(grid, opts.grad_tol))
        got = result.saddle
        assert result.coarse is None and direct.converged
        assert np.array_equal(got.field.values, direct.field.values)
        assert got.report.action == direct.report.action
        assert got.iterations == direct.iterations

    def test_nested_matches_direct_at_128(self, coarse_string):
        (result, relaxed, _), _ = coarse_string
        grid = relaxed.grid
        top = relaxed.nodes[int(np.argmax(result.path_actions))]
        direct = newton_minres(top, P1, certified_tol(grid, TestCoarseString.SADDLE.grad_tol))
        got = result.saddle
        assert result.coarse.field.grid == TorusGrid((64, 64), TestCoarseString.T)
        assert result.coarse.converged and got.converged and direct.converged
        assert abs(got.report.action - direct.report.action) <= 1e-10
        assert np.abs(got.field.values - direct.field.values).max() <= 1e-8
        assert got.classification == direct.classification
        assert result.witness_value < 0.0
        # the target grid takes the last steps only
        assert got.iterations <= 3 < direct.iterations


class TestUpperBound:
    def test_quartic_matches_node_actions(self, small_grid, small_pipeline, coarse_string):
        # M is read off the ray quartic, not from a straight path's nodes
        (_, relaxed, M), _ = coarse_string
        for grid, R, nodes, upper in ((small_grid, SMALL["R"], 17, small_pipeline[2]),
                                      (relaxed.grid, TestCoarseString.R,
                                       TestCoarseString.NODES, M)):
            want = float(init_path(grid, R, nodes).actions(P1).max())
            assert abs(upper - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("size", [32, 64])
    def test_costs_one_forward_transform(self, size, fft_calls):
        g = TorusGrid((size, size), SMALL["T"])
        w = init_path(g, SMALL["R"], node_count=3).nodes[-1].values - 1.0
        fft_calls.clear()
        _straight_path_max(Kernel(g, P1, half=False), w, 17)
        assert [fn.__name__ for fn in fft_calls] == ["fftn"]


class TestVortexBirth:
    def test_pair_is_born_between_c_0_9_and_0_85(self, small_grid, small_pipeline):
        # the c = 1 saddle continued down in c by Newton: at c = 0.9 the
        # modulus dips to 0.026 with no cell winding anywhere, at c = 0.85
        # a vortex pair is born
        f = small_pipeline[0].saddle.field
        seen = {}
        for c in (0.95, 0.9, 0.85):
            run = newton_minres(f, Params(c=c), certified_tol(small_grid))
            assert run.converged
            f = run.field
            seen[c] = (float(np.abs(f.values).min()), vortex_count(f), classify(f))
        assert seen[0.9][0] < 0.1
        assert seen[0.9][1:] == ((0, 0), OTHER_NONCONSTANT)
        assert seen[0.85][1:] == ((1, 1), VORTEXFUL)


class TestSpectralTail:
    """The tail tracks resolution: the SMALL saddle, resampled and solved
    again on coarser grids, has a tail that falls as the grid refines and
    stays within a factor of 20 of its action error against 128^2."""

    COARSE = (32, 40, 48)

    def test_tail_tracks_the_action_error(self, small_pipeline):
        # measured: tails 3.1e-5, 1.9e-6, 1.1e-7, 9.9e-10 and action errors
        # 4.1e-4, 1.8e-5, 7.0e-7, 8.8e-10 on 32^2, 40^2, 48^2, 64^2
        saddle = small_pipeline[0].saddle
        points = {}
        for n in self.COARSE + (128,):
            grid = TorusGrid((n, n), SMALL["T"])
            run = newton_minres(resample(saddle.field, grid), P1, certified_tol(grid))
            assert run.converged
            points[n] = (action(run.field, P1).action, spectral_tail(run.field))
        points[SMALL["size"]] = (saddle.report.action, spectral_tail(saddle.field))
        reference = points.pop(128)[0]
        sizes = sorted(points)
        tails = [points[n][1] for n in sizes]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        for n in sizes:
            value, tail = points[n]
            error = abs(value - reference)
            assert error / 20 <= tail <= 20 * error, (n, tail, error)

    def test_certify_reports_the_saddle_resolved(self, small_pipeline):
        assert certify(small_pipeline[0].saddle.field, P1).tail <= 1e-8


class TestCoarseString:
    """At 128^2 (T=40, R=8) the string relaxes on 64^2, the coarsest grid
    that resolves 1 + w_R, and the saddle is refined and certified on
    128^2; at SMALL's grid the string stays on its grid."""

    T, R, NODES = 40.0, 8.0, 17
    SADDLE = SaddleOptions(grad_tol=1e-8 * 40.0)

    @pytest.fixture(scope="class")
    def grid(self):
        return TorusGrid((128, 128), self.T)

    @pytest.fixture(scope="class")
    def nested(self, coarse_string):
        return coarse_string

    def test_relaxes_coarse_returns_target(self, grid, nested):
        (result, relaxed, M), grids = nested
        coarse = TorusGrid((64, 64), self.T)
        assert grids == [coarse]
        assert relaxed.grid == grid and result.saddle.field.grid == grid
        assert result.relax_grid == coarse
        # gamma is the max node action of the target-grid path
        assert np.array_equal(result.path_actions, relaxed.actions(P1))

    def test_same_saddle_as_direct_route(self, grid, nested):
        (result, _, M), _ = nested
        path = init_path(grid, self.R, self.NODES)
        direct, _, _ = relax_path(path, P1, RelaxOptions())
        want = find_saddle(direct, P1, self.SADDLE).saddle
        got = result.saddle
        assert got.converged and want.converged
        assert abs(got.report.action - want.report.action) <= 1e-9
        assert got.report.action <= result.gamma <= M

    def test_resolved_path_relaxes_on_its_grid(self, small_grid, small_pipeline):
        result, relaxed, _ = small_pipeline
        assert relaxed.grid == small_grid
        assert result.relax_grid == small_grid

    def test_identity_route_is_direct_route(self, small_grid, small_pipeline):
        # on a grid that is already the coarsest, restriction and
        # prolongation return their fields, so the pipeline is relax_path
        # and find_saddle on that grid, bit for bit
        result, relaxed, M = small_pipeline
        path = init_path(small_grid, SMALL["R"], node_count=17)
        direct, _, _ = relax_path(path, P1, RelaxOptions(sweeps=40, patience=6))
        want = find_saddle(direct, P1, SaddleOptions(grad_tol=1e-8 * SMALL["T"]))
        for a, b in zip(relaxed.nodes, direct.nodes, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(result.path_actions, want.path_actions)
        assert np.array_equal(result.saddle.field.values, want.saddle.field.values)


class TestOnePathPipeline:
    """mountain_pass_pipeline holds one path at a time: the coarse straight
    path lives in relax_path's call only, and the relaxed coarse string
    until its interior is prolonged to the target grid."""

    T, R, NODES = 40.0, 8.0, 33

    def test_coarse_paths_are_released_before_find_saddle(self, monkeypatch):
        from gptw import mountainpass

        class Entered(Exception):
            pass

        held, grids, alive = [], [], []
        relax = mountainpass.relax_path

        def spy_relax(path, *args):
            out = relax(path, *args)
            grids.append(path.grid)
            held.extend(weakref.ref(n.values) for n in path.nodes + out[0].nodes)
            return out

        def spy_find(path, *args):
            gc.collect()
            alive.extend(ref() is not None for ref in held)
            raise Entered

        monkeypatch.setattr(mountainpass, "relax_path", spy_relax)
        monkeypatch.setattr(mountainpass, "find_saddle", spy_find)
        with pytest.raises(Entered):
            mountain_pass_pipeline(1.0, TorusGrid((128, 128), self.T), self.R, node_count=5,
                                   relax_opts=RelaxOptions(sweeps=2))
        assert grids == [TorusGrid((64, 64), self.T)]
        assert len(alive) == len(held) == 10 and not any(alive)

    def test_traced_peak(self, traced_peak):
        # measured 1.53 target-grid paths (33 complex 128^2 arrays), inside
        # relax_path; find_saddle holds the target-grid path and peaks
        # below that
        grid = TorusGrid((128, 128), self.T)

        def run():
            return mountain_pass_pipeline(1.0, grid, self.R, node_count=self.NODES,
                                          saddle_opts=SaddleOptions(grad_tol=1e-6 * self.T))

        run()  # scipy's first-use imports and the grids' cached symbols
        (result, relaxed, _), peak = traced_peak(run)
        assert result.saddle.converged and len(relaxed.nodes) == self.NODES
        assert peak <= 1.6 * self.NODES * 16 * grid.node_count


class TestNestedWitness:
    """find_saddle solves the index witness at the coarse Newton point from
    a seeded block, then on the path's grid from that direction prolonged."""

    @pytest.fixture(scope="class")
    def counted(self, coarse_string):
        """find_saddle on the 128^2 relaxed path of coarse_string, with the
        Hessian products counted per grid."""
        from gptw import spectrum

        (_, relaxed, _), _ = coarse_string
        products = {}
        original = spectrum.hessian_operator

        def counting(kern, base):
            apply = original(kern, base)

            def product(x):
                products[kern.grid.sizes] = products.get(kern.grid.sizes, 0) + 1
                return apply(x)
            return product

        spectrum.hessian_operator = counting
        try:
            result = find_saddle(relaxed, P1, TestCoarseString.SADDLE)
        finally:
            spectrum.hessian_operator = original
        return result, products

    def test_products_per_grid(self, counted):
        result, products = counted
        assert result.coarse is not None
        assert set(products) == {(64, 64), (128, 128)}
        assert products[(64, 64)] > 0
        assert products[(128, 128)] <= 8

    def test_agrees_with_a_random_start(self, counted):
        result, _ = counted
        s, w = result.saddle.field, result.index_witness
        assert w.grid == s.grid and result.witness_value < 0.0
        value, _ = smallest_direction(s, P1, np.random.default_rng(0))
        assert abs(result.witness_value - value) <= 1e-6
        quad = l2_product(hessian_apply(s, w, P1), w)
        assert quad / l2_product(w, w) == pytest.approx(result.witness_value, rel=1e-9)

    def test_seeds_draw_the_coarse_block(self, coarse_string, monkeypatch):
        import scipy.sparse.linalg as sla

        (_, relaxed, _), _ = coarse_string
        original = sla.lobpcg
        blocks = []

        def spy(A, X, **kwargs):
            blocks.append(np.array(X))
            return original(A, X, **kwargs)

        monkeypatch.setattr(sla, "lobpcg", spy)
        for seed in (0, 1):
            find_saddle(relaxed, P1, SaddleOptions(grad_tol=TestCoarseString.SADDLE.grad_tol,
                                                   seed=seed))
        # per run: the coarse solve's block, then the target grid's
        assert [b.shape for b in blocks] == [(64 * 64, 1), (128 * 128, 1)] * 2
        assert not np.allclose(blocks[0], blocks[2])
