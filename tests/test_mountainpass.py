"""Path construction, string relaxation and saddle refinement."""

import numpy as np
import pytest

from gptw.field import ComplexField, TorusGrid, l2_product
from gptw.functionals import Kernel, Params, action, hessian_apply
from gptw.ansatz import VortexAnsatz, constant
from gptw.mountainpass import (
    NotASaddle,
    Path,
    RelaxOptions,
    SaddleOptions,
    find_saddle,
    init_path,
    mountain_pass_pipeline,
    relax_path,
)
from gptw.spectrum import hessian_operator, lanczos_smallest, symmetry_basis


P1 = Params(c=1.0)

# shared small-scale setting: R=3.5 with default cutoffs (10.5, 14) fits
# T=29 and carries negative endpoint action at c=1
SMALL = dict(T=29.0, size=64, R=3.5)


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


class TestRelaxPath:
    def test_constants_path_is_stationary_then_stalls(self):
        g = TorusGrid((16, 16), 2 * np.pi)
        nodes = tuple(constant(th, g) for th in np.linspace(0, 2 * np.pi, 9))
        path = Path(nodes)
        relaxed, gamma = relax_path(path, P1, RelaxOptions(sweeps=30, patience=3))
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
            current, gamma = relax_path(current, P1, RelaxOptions(sweeps=1, patience=10))
            gammas.append(gamma)
        assert all(b <= a + 1e-10 for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] < gammas[0]

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
        from gptw.field import inner_product
        from gptw.functionals import action as action_of

        result, _, _ = small_pipeline
        g = small_grid
        delta = 0.1
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        eps = np.inf
        for seed in range(30):
            rng = np.random.default_rng(seed)
            u = ComplexField(g, rng.standard_normal(g.sizes)
                             + 1j * rng.standard_normal(g.sizes))
            u = ComplexField(g, u.values / np.sqrt(inner_product(u, u)))
            psi = ComplexField(g, 1.0 + delta * u.values)
            dist = min(
                np.sqrt(inner_product(
                    ComplexField(g, psi.values - np.exp(1j * th)),
                    ComplexField(g, psi.values - np.exp(1j * th))))
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
        hess = hessian_operator(s, P1)
        products = 0

        def matvec(vec):
            nonlocal products
            products += 1
            return hess(vec)

        vals, _ = lanczos_smallest(matvec, Kernel(s.grid, P1).precondition_real,
                                   symmetry_basis(s), 2, np.random.default_rng(0))
        assert np.sum(vals < 0.0) == 1
        assert products <= 1000

    def test_saddle_certificate(self, small_pipeline):
        result, _, _ = small_pipeline
        cert = result.saddle.certificate
        assert abs(cert.integral) <= 1e-6

    def test_stopping_rule_reads_cert_tol(self, small_pipeline):
        # converged implies |int (1-|f|^2) f| <= Params.cert_tol, whatever
        # that tolerance is
        _, relaxed, _ = small_pipeline
        p = Params(c=1.0, cert_tol=1e-9)
        result = find_saddle(relaxed, p, SaddleOptions(grad_tol=1e-8 * SMALL["T"]))
        assert result.saddle.converged
        assert abs(result.saddle.certificate.integral) <= 1e-9

    def test_near_z_raises_not_a_saddle(self):
        g = TorusGrid((16, 16), 2 * np.pi)
        nodes = tuple(constant(th, g) for th in np.linspace(0, 2 * np.pi, 5))
        with pytest.raises(NotASaddle):
            find_saddle(Path(nodes), P1, SaddleOptions(max_iters=20))

    def test_gamma_bounded_by_initial_max(self, small_pipeline):
        result, _, upper = small_pipeline
        assert result.gamma <= upper + 1e-12
