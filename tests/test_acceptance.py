"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
without -s they still show for any failing criterion.
"""

import numpy as np
import pytest

from gptw.field import ComplexField, TorusGrid, l2_norm, l2_product
from gptw.functionals import Params, action, certify, gradient, hessian_apply
from gptw.ansatz import VortexAnsatz, constant, perturb, plane_wave, vortex_test_function
from gptw.minimize import (CONSTANT_CLASSES, MinimizeOptions, minimize_action,
                           minimizer_experiment)
from gptw.mountainpass import (RelaxOptions, SaddleOptions, init_path,
                               mountain_pass_pipeline, relax_path)
from gptw.spectrum import (case1_bound, constancy_scan, dense_hessian,
                           hessian_spectrum_at_constant, plane_wave_onset,
                           poincare_constant, positivity_criterion,
                           symbol_eigenvalues, weighted_eigenvalue)


def report(number, description, check):
    """Run `check`, print one PASS/FAIL line, re-raise on failure."""
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number} PASS - {description}")


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    return ComplexField(grid, scale * v)


def test_criterion_1_functional_exactness():
    """I(0) = T^N/4 and I(e^{i theta}) = 0 to 1e-12 relative."""

    def check():
        cases = [((16, 16), 2 * np.pi), ((64, 64), 40.0), ((16, 16, 16), 2 * np.pi)]
        p = Params(c=1.0)
        for sizes, T in cases:
            g = TorusGrid(sizes, T)
            scale = T**g.dim / 4.0
            zero = ComplexField(g, np.zeros(g.sizes, dtype=complex))
            assert abs(action(zero, p).action - scale) <= 1e-12 * scale
            for theta in (0.0, 1.0, np.pi / 3):
                assert abs(action(constant(theta, g), p).action) <= 1e-12 * scale

    report(1, "I(0) = T^N/4 and I(e^{i theta}) = 0 at (N,T) in {(2,2pi),(2,40),(3,2pi)}", check)


def test_criterion_2_plane_wave_oracle():
    """plane_wave(-1, 1, 4pi) on 128^2: residual <= 1e-10, action exact."""

    def check():
        g = TorusGrid((128, 128), 4 * np.pi)
        p = Params(c=1.0)
        f = plane_wave(-1, 1.0, g)
        res = l2_norm(gradient(f, p))
        assert res <= 1e-10
        expected = (4 * np.pi) ** 2 * (-9.0 / 64.0)
        assert abs(action(f, p).action - expected) <= 1e-10 * abs(expected)

    report(2, "plane-wave oracle: residual <= 1e-10, action = (4pi)^2(-9/64)", check)


def test_criterion_3_derivative_consistency():
    """Gradient and Hessian match central finite differences, 25 seeds."""

    def check():
        g = TorusGrid((16, 16), 2 * np.pi)
        p = Params(c=1.0)
        w = np.sqrt(g.quad_weight)
        for seed in range(25):
            f = random_field(g, seed, scale=0.8)
            phi = random_field(g, 1000 + seed)
            h = 1e-5
            plus = ComplexField(g, f.values + h * phi.values)
            minus = ComplexField(g, f.values - h * phi.values)
            fd = (action(plus, p).action - action(minus, p).action) / (2 * h)
            pairing = l2_product(gradient(f, p), phi)
            assert abs(fd - pairing) <= 1e-6 * (1 + abs(pairing))
            h = 1e-4
            plus = ComplexField(g, f.values + h * phi.values)
            minus = ComplexField(g, f.values - h * phi.values)
            fdg = (gradient(plus, p).values - gradient(minus, p).values) / (2 * h)
            hv = hessian_apply(f, phi, p).values
            assert w * np.linalg.norm(fdg - hv) <= 1e-5 * (1 + w * np.linalg.norm(hv))

    report(3, "gradient vs FD (1e-6) and Hessian vs FD (1e-5), 25 seeded cases", check)


def test_criterion_4_constant_spectrum():
    """Smallest complement eigenvalue 2 - sqrt(2); positivity region lattice."""

    def check():
        target = 2.0 - np.sqrt(2.0)
        p = Params(c=1.0)
        # iterative on 16^2
        rep = hessian_spectrum_at_constant(0.0, p, TorusGrid((16, 16), 2 * np.pi), count=1)
        iterative = rep.eigenvalues[0][0]
        assert abs(iterative - target) <= 1e-8
        # dense 8^2 eigensolve restricted to the complement
        g8 = TorusGrid((8, 8), 2 * np.pi)
        A = dense_hessian(constant(0.0, g8), p)
        phase = np.concatenate([np.zeros(g8.node_count), np.ones(g8.node_count)])
        phase /= np.linalg.norm(phase)
        P = np.eye(2 * g8.node_count) - np.outer(phase, phase)
        dense_vals = np.linalg.eigvalsh(P @ A @ P + 100.0 * np.outer(phase, phase))
        assert abs(dense_vals[0] - target) <= 1e-8
        # symbol formula
        symbol = symbol_eigenvalues(g8, 1.0)[0][0]
        assert abs(symbol - target) <= 1e-12
        assert abs(iterative - dense_vals[0]) <= 1e-8
        assert abs(iterative - symbol) <= 1e-8
        # positivity region on a 10 x 10 lattice
        cs = np.linspace(0.3, 2.4, 10)
        Ts = np.linspace(2.4, 8.7, 10)
        margin = min(abs(c - np.sqrt(2.0 + (2 * np.pi / T) ** 2)) for c in cs for T in Ts)
        assert margin > 1e-3  # lattice keeps clear of the boundary
        for c in cs:
            for T in Ts:
                g = TorusGrid((12, 12), T)
                got = hessian_spectrum_at_constant(0.0, Params(c=c), g, count=1).positivity
                assert got == positivity_criterion(c, T), (c, T)

    report(4, "spectrum at psi=1: 2-sqrt(2) via Lanczos/dense/symbol; 10x10 positivity lattice", check)


def test_criterion_5_global_minimizer_desk_scale():
    """Descent from 1 + w_R at c=1, T=40, 256^2, R=8: negative nonconstant."""

    def check():
        T = 40.0
        opts = MinimizeOptions(grad_tol=2e-7, max_iters=50000)
        point, _ = minimizer_experiment(1.0, T, 256, 8.0, opts=opts)
        assert point.converged
        assert point.residual <= 1e-6 * T
        assert point.classification not in CONSTANT_CLASSES
        assert point.report.action < 0
        assert abs(point.integral) <= 1e-6
        # frozen regression value (k=-1 winding branch on this grid)
        assert point.report.action == pytest.approx(-112.93699680205742, rel=1e-9)

    report(5, "global-minimizer experiment: nonconstant, action < 0, certificates pass", check)


def test_criterion_6_mountain_pass_desk_scale():
    """Saddle at (c=1, T=40, 256^2, R=8); gamma(T) <= single M for T in {30,40,50}."""

    def check():
        T = 40.0
        grid = TorusGrid((256, 256), T)
        result, relaxed, M = mountain_pass_pipeline(
            1.0, grid, 8.0, node_count=33,
            relax_opts=RelaxOptions(sweeps=60, patience=8),
            saddle_opts=SaddleOptions(grad_tol=1e-6 * T))
        s = result.saddle
        assert s.converged
        assert s.residual <= 1e-6 * T
        assert 0.0 < s.report.action <= M + 1e-8
        assert result.witness_value < 0.0
        quad = l2_product(hessian_apply(s.field, result.index_witness, Params(c=1.0)),
                          result.index_witness)
        assert quad < 0.0
        print(f"  saddle: action={s.report.action:.6f} gamma={result.gamma:.6f} M={M:.6f}")

        # T-independence of the bound: one R=3.5 test function on three tori
        p = Params(c=1.0)
        single_M = None
        gammas = {}
        for T_i, size in ((30.0, 128), (40.0, 128), (50.0, 160)):
            g = TorusGrid((size, size), T_i)
            path = init_path(g, 3.5, 33, ansatz=VortexAnsatz(3.5))
            m_here = float(path.actions(p).max())
            if single_M is None:
                single_M = m_here
            _, gamma, _ = relax_path(path, p, RelaxOptions(sweeps=50, patience=8))
            gammas[T_i] = gamma
            assert 0.0 < gamma <= single_M + 1e-6, (T_i, gamma, single_M)
        print(f"  gammas={ {k: round(v, 6) for k, v in gammas.items()} } M={single_M:.6f}")

    report(6, "mountain-pass pipeline: saddle in (0, M], negative direction, gamma <= M across T", check)


def test_criterion_7_small_period_constancy():
    """20 multistarts constant for T in {1.0, 1.5, 1.8}; onset bracket claim."""

    def check():
        lo, hi = 1.814, 3.884
        rep_small = constancy_scan(1.0, [1.0, 1.5, 1.8], starts=20, resolution=16, seed=11)
        for r in rep_small.rows:
            assert r.all_constant, f"nonconstant critical point at T={r.T}"
            assert r.unconverged == 0
        scan_T = [2.0, 2.75, 3.5, 4.25, 5.0, 5.75, 6.5, 7.25, 8.0]
        rep = constancy_scan(1.0, scan_T, starts=20, resolution=32, seed=7)
        for r in rep.rows:
            print(f"  T={r.T}: all_constant={r.all_constant} nonconstant={r.nonconstant}")
        onset = rep.empirical_onset
        print(f"  measured onset={onset} case1={rep.case1_bound:.4f} "
              f"plane_wave_onset={rep.plane_wave_onset:.4f}")
        assert rep.case1_bound >= lo - 1e-3
        assert rep.plane_wave_onset <= hi + 1e-3
        # The stated bracket. The k=-1 plane wave exists above 3.883 but is
        # an unstable critical point until T ~ 4.66 and its basin stays out
        # of reach of descent until T ~ 8, so detection-by-minimization
        # cannot place the onset inside [1.814, 3.884]; see the README note
        # "Existence onset and detectability onset". Kept as specified.
        assert lo <= onset <= hi, (
            f"empirical onset {onset} outside [{lo}, {hi}]: existence onset "
            f"(3.883) and descent-detectability onset (~8) differ; the "
            f"criterion conflates them")

    report(7, "constancy scan: constants below 1.8; onset inside [1.814, 3.884]", check)


def test_criterion_8_vortex_scalings():
    """Momentum ~ R^(N-1) (log-log slope in [0.85, 1.15]); kinetic ~ log R."""

    def check():
        p = Params(c=1.0)
        moms, kins = [], []
        Rs = (4.0, 8.0, 16.0, 32.0)
        for R, size in zip(Rs, (64, 128, 256, 512)):
            g = TorusGrid((size, size), 8.25 * R)
            rep = action(vortex_test_function(VortexAnsatz(R), g), p)
            moms.append(rep.momentum)
            kins.append(rep.kinetic)
        assert all(m > 0 for m in moms)
        slope = float(np.polyfit(np.log(Rs), np.log(moms), 1)[0])
        print(f"  momentum log-log slope = {slope:.4f}; kinetic ratio = {kins[-1]/kins[-2]:.4f}")
        assert 0.85 <= slope <= 1.15
        assert kins[-1] / kins[-2] < 1.35
        assert kins[-1] > kins[-2] > kins[-3]  # slow growth, consistent with log R

    report(8, "test-function scalings: P ~ R slope in [0.85,1.15], kinetic log-like", check)


def test_criterion_9_weighted_poincare():
    """lambda_T(2) = lambda_T(1)/2; monotonicity; exact period-halving scaling."""

    def check():
        g = TorusGrid((16, 16), 2 * np.pi)
        lam1, _ = poincare_constant(g)
        lam2 = weighted_eigenvalue(2.0 * np.ones(g.sizes), g)
        assert lam2 == pytest.approx(lam1 / 2.0, rel=1e-10)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            spec = np.zeros(g.sizes, dtype=complex)
            for kx in range(-2, 3):
                for ky in range(-2, 3):
                    spec[kx % 16, ky % 16] = rng.standard_normal() + 1j * rng.standard_normal()
            bump = np.fft.ifftn(spec * g.node_count).real
            bump *= 0.7 / max(np.abs(bump).max(), 1e-12)
            w = np.clip(1.0 + bump, 0.5, 2.0)
            assert weighted_eigenvalue(w, g) >= lam2 - 1e-10
        for T in (2 * np.pi, 5.0, 1.25):
            lam, _ = poincare_constant(TorusGrid((16, 16), T))
            lam_half, _ = poincare_constant(TorusGrid((16, 16), T / 2))
            assert lam_half == 4.0 * lam

    report(9, "weighted Poincare: lambda(2) = lambda(1)/2, monotone, exact halving", check)
