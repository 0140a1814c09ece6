"""Hessian spectra, Poincare constants, weighted eigenvalues, constancy scan."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gptw
from gptw import functionals, spectrum
from gptw.field import (ComplexField, TorusGrid, fft_forward, fft_inverse, from_real,
                        l2_product, to_real)
from gptw.functionals import Kernel, Params, hessian_apply
from gptw.ansatz import constant, perturb, plane_wave
from gptw.spectrum import (
    NoConvergence,
    WeightOutOfRange,
    case1_bound,
    constancy_scan,
    dense_hessian,
    hessian_operator,
    hessian_spectrum_at_constant,
    lanczos_smallest,
    plane_wave_onset,
    poincare_constant,
    positivity_criterion,
    smallest_direction,
    symbol_eigenvalues,
    symmetry_basis,
    weighted_eigenvalue,
)


@pytest.fixture
def grid16():
    return TorusGrid((16, 16), 2 * np.pi)


class TestSymbolOracle:
    def test_matches_dense_assembly(self):
        g = TorusGrid((8, 8), 2 * np.pi)
        p = Params(c=1.0)
        A = dense_hessian(constant(0.0, g), p)
        dense = np.sort(np.linalg.eigvalsh(A))
        # the phase direction's zero, 0 + 1 - sqrt(1), completes the symbol
        sym = np.sort([0.0] + [e[0] for e in symbol_eigenvalues(g, 1.0)])
        assert dense.size == sym.size == 2 * g.node_count
        assert np.abs(dense - sym).max() <= 1e-9

    def test_smallest_complement_value(self, grid16):
        entries = symbol_eigenvalues(grid16, 1.0)
        assert entries[0][0] == pytest.approx(2 - np.sqrt(2), abs=1e-14)
        assert entries[0][1][0] in (1, -1) and entries[0][1][1] == 0
        assert entries[0][2] == "-"

    def test_positivity_criterion(self):
        assert positivity_criterion(1.0, 2 * np.pi)
        assert positivity_criterion(1.7, 2 * np.pi)
        assert not positivity_criterion(1.8, 2 * np.pi)


class TestLanczos:
    def test_small_dense_matrix(self):
        rng = np.random.default_rng(0)
        n = 60
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        target = np.concatenate([[0.5, 0.5, 0.9], np.linspace(2, 30, n - 3)])
        A = Q @ np.diag(target) @ Q.T
        vals, vecs = lanczos_smallest(lambda v: A @ v, lambda v: v, np.zeros((n, 0)), 4,
                                      np.random.default_rng(1))
        assert np.abs(vals - np.array([0.5, 0.5, 0.9, 2.0])).max() <= 1e-8
        for i in range(4):
            r = A @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(r) <= 1e-4

    def test_budget_error(self, lobpcg_fails):
        rng = np.random.default_rng(2)
        n = 400
        d = np.linspace(1.0, 1.001, n)  # hopelessly clustered spectrum
        A = np.diag(d)
        with pytest.raises(NoConvergence):
            lanczos_smallest(lambda v: A @ v, lambda v: v, np.zeros((n, 0)), 3, rng)
        assert len(lobpcg_fails) == 1

    @pytest.mark.parametrize("error", [ValueError("array must not contain infs or NaNs"),
                                       np.linalg.LinAlgError("not positive definite")],
                             ids=["ValueError", "LinAlgError"])
    def test_breakdown_is_no_convergence(self, lobpcg_raises, error):
        # a breakdown inside lobpcg is a failed solve, not a rejected input
        lobpcg_raises(error)
        with pytest.raises(NoConvergence, match="broke down") as info:
            lanczos_smallest(lambda v: v, lambda v: v, np.zeros((40, 0)), 2,
                             np.random.default_rng(0))
        assert info.value.__cause__ is error

    def test_count_beyond_block_limit(self):
        # lobpcg iterates only while the complement of the basis has at
        # least 5 * count dimensions
        n = 40
        d = np.linspace(1.0, 2.0, n)
        with pytest.raises(ValueError, match="complement"):
            lanczos_smallest(lambda v: d * v, lambda v: v, np.eye(n)[:, :1], 8,
                             np.random.default_rng(0))
        vals, _ = lanczos_smallest(lambda v: d * v, lambda v: v, np.zeros((n, 0)), 8,
                                   np.random.default_rng(0))
        assert np.abs(vals - d[:8]).max() <= 1e-8
        with pytest.raises(ValueError, match="complement"):
            lanczos_smallest(lambda v: d * v, lambda v: v, np.zeros((n, 0)), 0,
                             np.random.default_rng(0))

    def test_start_block_shape_is_checked(self):
        n = 40
        for start in (np.ones((n, 2)), np.ones(n), np.ones((n - 1, 1))):
            with pytest.raises(ValueError, match="start block"):
                lanczos_smallest(lambda v: v, lambda v: v, np.zeros((n, 0)), 1, None,
                                 start=start)

    def test_start_block_near_the_answer_takes_few_products(self):
        # a start close to the eigenvectors replaces the random block: from
        # the lowest two unit vectors, perturbed, the solve takes a third of
        # the products it takes from a random block (measured 11 and 33)
        n = 200
        d = np.linspace(1.0, 50.0, n)
        near = np.eye(n)[:, :2] + 1e-6 * np.random.default_rng(3).standard_normal((n, 2))
        products = {}
        for name, start in (("near", near), ("random", None)):
            products[name] = 0

            def matvec(v, name=name):
                products[name] += 1
                return d * v

            vals, _ = lanczos_smallest(matvec, lambda v: v / d, np.zeros((n, 0)), 2,
                                       np.random.default_rng(0), start=start)
            assert np.abs(vals - d[:2]).max() <= 1e-8
        assert 2 * products["near"] <= products["random"]

    def test_projects_output_off_the_basis(self):
        # a perturbed constant is no critical point: the Hessian maps the
        # phase direction partly off itself, and only the projected output
        # lets the residual fall below the tolerance
        g = TorusGrid((16, 16), 2 * np.pi)
        f = perturb(constant(0.0, g), 0.3, 3, 1)
        value, witness = smallest_direction(f, Params(c=1.0), np.random.default_rng(0))
        quad = l2_product(hessian_apply(f, witness, Params(c=1.0)), witness)
        assert quad / l2_product(witness, witness) == pytest.approx(value, rel=1e-9)
        coordinates = fft_forward(witness.values).view(np.float64).ravel()
        assert np.all(np.abs(symmetry_basis(f).T @ coordinates) <= 1e-10)

    def test_non_finite_product_fails_fast(self, grid16, monkeypatch):
        # |f|^2 overflows on this field: the first block product is not
        # finite, and the solve stops there rather than iterating on NaN
        f = perturb(constant(0.0, grid16), 0.5, 2, 0)
        big = ComplexField(grid16, 1e154 * f.values)
        products = []
        original = spectrum.hessian_operator

        def counting(*args):
            matvec = original(*args)

            def counted(x):
                products.append(x)
                return matvec(x)
            return counted

        monkeypatch.setattr(spectrum, "hessian_operator", counting)
        with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="non-finite"):
            smallest_direction(big, Params(c=1.0), np.random.default_rng(0))
        assert len(products) == 1

    def test_import_does_not_load_eigensolver(self):
        # scipy.fft, scipy.linalg and scipy.sparse.linalg are each imported on
        # first use, not with the package, so importing it loads no scipy module
        code = ("import sys, gptw; "
                "assert 'scipy.sparse.linalg' not in sys.modules, 'loaded'; "
                "loaded = sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')); "
                "assert not loaded, loaded")
        src = str(Path(gptw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


_HELD_GRIDS = [((16, 16), 2 * np.pi), ((8, 8, 8), 3.0)]


def _nodes(x, grid):
    """The node values whose spectral coordinates are x."""
    return fft_inverse(np.ascontiguousarray(x).view(np.complex128).reshape(grid.sizes))


def _coordinates(values):
    """The spectral coordinates of node values."""
    return fft_forward(values).view(np.float64).ravel()


class TestHeldHessian:
    """The Kernel's Hessian held at a base in spectral coordinates, the one
    product behind Newton-MINRES and LOBPCG, against hessian_apply and the
    dense check on node values."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=8,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=st.sampled_from(_HELD_GRIDS), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.1, 2.0), column=st.integers(0, 2**20))
    def test_matches_apply_and_dense(self, grid, seed, scale, column, fft_calls):
        grid = TorusGrid(*grid)
        p = Params(c=1.0)
        rng = np.random.default_rng(seed)
        base = ComplexField(grid, scale * (rng.standard_normal(grid.sizes)
                                           + 1j * rng.standard_normal(grid.sizes)))
        directions = rng.standard_normal((5, 2 * grid.node_count))

        densities = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(functionals, "density",
                      lambda v, _fn=functionals.density: densities.append(v) or _fn(v))
            held = hessian_operator(Kernel(grid, p, half=False), base)
            products = []
            for x in directions:
                before = len(fft_calls)
                products.append(held(x))
                assert len(fft_calls) - before == 2
        assert len(densities) == 1

        for x, hx in zip(directions, products):
            want = _coordinates(hessian_apply(base, ComplexField(grid, _nodes(x, grid)), p).values)
            assert np.linalg.norm(hx - want) <= 1e-13 * np.linalg.norm(want)
        # a column of the dense node-value matrix is the held product of
        # that unit vector's spectral coordinates, read back on the nodes
        j = column % (2 * grid.node_count)
        dense_column = dense_hessian(base, p)[:, j]
        unit = from_real(np.eye(1, 2 * grid.node_count, j)[0], grid)
        hx = to_real(_nodes(held(_coordinates(unit)), grid))
        assert np.linalg.norm(hx - dense_column) <= 1e-13 * np.linalg.norm(dense_column)

    @pytest.mark.parametrize("size", [8, 10])
    @pytest.mark.parametrize("kind", ["constant", "plane_wave"])
    def test_spectral_matrix_is_symmetric_with_the_dense_spectrum(self, size, kind):
        # the spectral coordinates are a multiple of an orthogonal map of
        # the node values, so the held operator's matrix is symmetric and
        # has the eigenvalues of dense_hessian
        grid = TorusGrid((size, size), 6.0)
        p = Params(c=1.0)
        base = constant(0.0, grid) if kind == "constant" else plane_wave(-1, 1.0, grid)
        held = hessian_operator(Kernel(grid, p, half=False), base)
        dim = 2 * grid.node_count
        A = np.column_stack([held(e) for e in np.eye(dim)])
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        spectral = np.linalg.eigvalsh(0.5 * (A + A.T))
        nodal = np.linalg.eigvalsh(dense_hessian(base, p))
        assert np.abs(spectral - nodal).max() <= 1e-10 * np.abs(nodal).max()


class TestSpectrumAtConstant:
    def test_iterative_matches_symbol_16_and_32(self):
        p = Params(c=1.0)
        for M in (16, 32):
            g = TorusGrid((M, M), 2 * np.pi)
            rep = hessian_spectrum_at_constant(0.0, p, g, count=5)
            sym = np.array([e[0] for e in symbol_eigenvalues(g, 1.0)[:5]])
            got = np.array([e[0] for e in rep.eigenvalues])
            assert np.abs(got - sym).max() <= 1e-8 * np.abs(sym).max()

    def test_smallest_is_two_minus_sqrt2(self, grid16):
        rep = hessian_spectrum_at_constant(0.0, Params(c=1.0), grid16, count=1)
        assert rep.eigenvalues[0][0] == pytest.approx(2 - np.sqrt(2), abs=1e-8)
        assert rep.eigenvalues[0][1] in ((1, 0), (-1, 0))
        assert rep.eigenvalues[0][2] == "-"
        assert rep.positivity

    def test_cluster_rows_do_not_depend_on_the_seed(self, grid16):
        # count 8 holds the four copies at 2 - sqrt(2) + 1 whole: modes
        # (1, 1) and (1, -1), lower branch, twice each; seeds 0 and 3 used
        # to list them in different orders, and seed 9 labeled three of
        # them (1, 1)
        rows = []
        for seed in range(4):
            rep = hessian_spectrum_at_constant(0.0, Params(c=1.0), grid16, count=8, seed=seed)
            rows.append([(mode, branch) for _, mode, branch in rep.eigenvalues])
        assert rows[1:] == rows[:1] * 3
        assert rows[0][4:] == [((1, -1), "-")] * 2 + [((1, 1), "-")] * 2
        rep = hessian_spectrum_at_constant(0.0, Params(c=1.0), grid16, count=8, seed=9)
        assert [(mode, branch) for _, mode, branch in rep.eigenvalues] == rows[0]

    def test_degenerate_direction(self, grid16):
        for theta in (0.0, 1.0, np.pi):
            rep = hessian_spectrum_at_constant(theta, Params(c=1.0), grid16, count=1)
            assert rep.degenerate_residual <= 1e-12

    def test_c_zero_decoupled(self):
        for T in (2 * np.pi, 10.0):
            g = TorusGrid((16, 16), T)
            rep = hessian_spectrum_at_constant(0.0, Params(c=0.0), g, count=1)
            expected = min(2.0, (2 * np.pi / T) ** 2)
            assert rep.eigenvalues[0][0] == pytest.approx(expected, rel=1e-10)

    def test_positivity_sign_change(self, grid16):
        rep_lo = hessian_spectrum_at_constant(0.0, Params(c=1.7), grid16, count=1)
        rep_hi = hessian_spectrum_at_constant(0.0, Params(c=1.8), grid16, count=1)
        assert rep_lo.positivity and rep_lo.eigenvalues[0][0] > 0
        assert not rep_hi.positivity and rep_hi.eigenvalues[0][0] < 0

    def test_positivity_lattice_3x3(self):
        p_grid = TorusGrid((12, 12), 1.0)  # period replaced per point below
        for c in (0.8, 1.5, 2.1):
            for T in (2.5, 4.5, 7.0):
                g = TorusGrid((12, 12), T)
                rep = hessian_spectrum_at_constant(0.0, Params(c=c), g, count=1)
                assert rep.positivity == positivity_criterion(c, T)

    def test_3d_start_that_defeated_the_lanczos_restarts(self):
        # 24^3 with this start seed: a hand-written restarted Lanczos raised
        # NoConvergence, and a single eigsh solve with two BLAS threads
        # returned one of the four copies of the eigenvalue 1 short
        g = TorusGrid((24,) * 3, 2 * np.pi)
        rep = hessian_spectrum_at_constant(0.0, Params(c=1.0), g, count=5, seed=1918102982)
        sym = np.array([e[0] for e in symbol_eigenvalues(g, 1.0)[:5]])
        got = np.array([e[0] for e in rep.eigenvalues])
        assert np.abs(got - sym).max() <= 1e-8 * np.abs(sym).max()

    @pytest.mark.parametrize("seed", [15, 25, 49])
    def test_final_rayleigh_ritz_stays_within_tol(self, grid16, seed):
        # the `gptw spectrum` defaults: with these start seeds LOBPCG stopped
        # on in-loop residuals at tol and its final Rayleigh-Ritz pass
        # reported 1.01-1.18x tol
        rep = hessian_spectrum_at_constant(0.0, Params(c=1.0), grid16, count=6, seed=seed)
        sym = np.array([e[0] for e in symbol_eigenvalues(grid16, 1.0)[:6]])
        got = np.array([e[0] for e in rep.eigenvalues])
        assert np.abs(got - sym).max() <= 1e-8 * np.abs(sym).max()

    def test_subsonic_decrease(self):
        p = Params(c=1.3)
        values = []
        for T, M in ((2 * np.pi, 16), (4 * np.pi, 24), (8 * np.pi, 32)):
            g = TorusGrid((M, M), T)
            rep = hessian_spectrum_at_constant(0.0, p, g, count=1)
            assert rep.eigenvalues[0][0] == pytest.approx(rep.analytic_min, rel=1e-8)
            assert rep.eigenvalues[0][0] > 0
            values.append(rep.eigenvalues[0][0])
        assert values[0] > values[1] > values[2]


class TestPoincare:
    def test_reference_values(self):
        lam, ct = poincare_constant(TorusGrid((16, 16), 2 * np.pi))
        assert lam == pytest.approx(1.0, rel=1e-14)
        assert ct == pytest.approx(0.25, rel=1e-14)
        lam_pi, _ = poincare_constant(TorusGrid((16, 16), np.pi))
        assert lam_pi == pytest.approx(4.0, rel=1e-14)

    def test_halving_scaling_exact(self):
        for T in (2 * np.pi, 5.0, 1.25):
            lam, _ = poincare_constant(TorusGrid((16, 16), T))
            lam_half, _ = poincare_constant(TorusGrid((16, 16), T / 2))
            assert lam_half == 4.0 * lam


class TestWeightedEigenvalue:
    def test_constant_one(self, grid16):
        lam1, _ = poincare_constant(grid16)
        got = weighted_eigenvalue(np.ones(grid16.sizes), grid16)
        assert got == pytest.approx(lam1, rel=1e-10)

    def test_constant_two_exact_half(self, grid16):
        lam1, _ = poincare_constant(grid16)
        got = weighted_eigenvalue(2.0 * np.ones(grid16.sizes), grid16)
        assert got == pytest.approx(lam1 / 2.0, rel=1e-10)

    def test_sine_weight_between(self, grid16):
        lam1, _ = poincare_constant(grid16)
        x1 = grid16.coords[0] + np.zeros(grid16.sizes)
        w = 1.0 + 0.4 * np.sin(2 * np.pi * x1 / grid16.period)
        got = weighted_eigenvalue(w, grid16)
        assert lam1 / 2.0 + 1e-6 < got < 2.0 * lam1

    def test_monotonicity_20_random_weights(self, grid16):
        lam1, _ = poincare_constant(grid16)
        lam2 = weighted_eigenvalue(2.0 * np.ones(grid16.sizes), grid16)
        assert lam2 == pytest.approx(lam1 / 2.0, rel=1e-12)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = np.zeros(grid16.sizes, dtype=complex)
            for kx in range(-2, 3):
                for ky in range(-2, 3):
                    spec[kx % 16, ky % 16] = rng.standard_normal() + 1j * rng.standard_normal()
            bump = np.fft.ifftn(spec * grid16.node_count).real
            bump *= 0.7 / max(np.abs(bump).max(), 1e-12)
            w = np.clip(1.0 + bump, 0.5, 2.0)
            got = weighted_eigenvalue(w, grid16)
            assert got >= lam2 - 1e-10

    def test_weight_out_of_range(self, grid16):
        with pytest.raises(WeightOutOfRange):
            weighted_eigenvalue(3.0 * np.ones(grid16.sizes), grid16)
        with pytest.raises(WeightOutOfRange):
            weighted_eigenvalue(0.1 * np.ones(grid16.sizes), grid16)


@pytest.mark.parametrize("call, match", [
    (lambda: dense_hessian(constant(0.0, TorusGrid((66, 66), 2 * np.pi)), Params(c=1.0)),
     "4096 nodes"),
    (lambda: weighted_eigenvalue(np.ones((8, 8)), TorusGrid((16, 16), 2 * np.pi)),
     "weight shape"),
    (lambda: weighted_eigenvalue(np.ones((66, 66)), TorusGrid((66, 66), 2 * np.pi)),
     "4096 nodes"),
], ids=["dense_hessian-66", "weight-shape", "weighted-66"])
def test_dense_guards(call, match):
    # 66^2 = 4,356 nodes is above DENSE_NODE_LIMIT
    with pytest.raises(ValueError, match=match):
        call()


class TestConstancyScan:
    def test_reference_bounds(self):
        assert case1_bound(1.0) == pytest.approx(2 * np.pi / np.sqrt(12.0), rel=1e-14)
        assert plane_wave_onset(1.0) == pytest.approx(np.pi * (np.sqrt(5.0) - 1.0), rel=1e-14)

    def test_small_periods_all_constant(self):
        rep = constancy_scan(1.0, [1.5, 1.8], starts=4, resolution=16, seed=3)
        assert all(r.all_constant for r in rep.rows)
        assert rep.empirical_onset == float("inf")
        assert rep.case1_bound < rep.plane_wave_onset

    def test_detection_at_large_period(self):
        # frozen scan outcome: T=8 yields nonconstant critical points while
        # mid-range periods still read all-constant (README, "Existence onset
        # and detectability onset": the plane wave branch is unstable until
        # T ~ 4.66 and its basin stays tiny)
        rep = constancy_scan(1.0, [3.5, 4.25, 8.0], starts=8, resolution=32, seed=7)
        by_T = {r.T: r for r in rep.rows}
        assert by_T[3.5].all_constant
        assert by_T[4.25].all_constant
        assert not by_T[8.0].all_constant
        assert rep.empirical_onset == 8.0
        assert rep.case1_bound <= rep.empirical_onset

    def test_starts_validation(self):
        with pytest.raises(ValueError):
            constancy_scan(1.0, [2.0], starts=0, resolution=16)
