"""Newton-MINRES refinement and its certified stopping rule."""

import numpy as np

from gptw.ansatz import constant, perturb, plane_wave
from gptw.field import ComplexField, TorusGrid
from gptw.functionals import Params, action, certify, equation_integral
from gptw.minimize import PLANE_WAVE, classify
from gptw.newton import CERT_TOL, certified_tol, newton_minres

P1 = Params(c=1.0)


def test_certified_tol():
    g = TorusGrid((16, 16), 4.0)
    assert certified_tol(g) == 1e-8 * 4.0
    assert certified_tol(g, grad_tol=1e-4) == CERT_TOL / 4.0
    assert certified_tol(g, grad_tol=1e-12) == 1e-12


def test_converges_to_unstable_plane_wave():
    # at T = 4.25 the k = -1 plane wave is born unstable, so descent leaves
    # it; Newton converges to it from a nearby start
    g = TorusGrid((32, 32), 4.25)
    start = perturb(plane_wave(-1, 1.0, g), 0.01, 2, seed=0)
    tol = certified_tol(g)
    run = newton_minres(start, P1, tol)
    assert run.converged
    assert run.residual <= tol
    assert certify(run.field, P1).residual <= tol
    assert classify(run.field) == PLANE_WAVE
    # the point is built from its field: action, class and integral
    assert run.report == action(run.field, P1)
    assert run.classification == classify(run.field)
    assert run.integral == equation_integral(run.field)
    assert run.iterations >= 1


def test_non_finite_field_stops_unconverged():
    # |f|^2 overflows on this field: Newton returns it unconverged, untouched
    g = TorusGrid((16, 16), 2 * np.pi)
    big = ComplexField(g, 1e154 * perturb(constant(0.0, g), 0.5, 2, 0).values)
    with np.errstate(all="ignore"):
        run = newton_minres(big, P1, certified_tol(g))
    assert not run.converged
    assert run.iterations == 0
    assert np.array_equal(run.field.values, big.values)


def test_non_finite_minres_solution_stops_unconverged(monkeypatch):
    import scipy.sparse.linalg as sla

    calls = []

    def minres(A, b, **kwargs):
        calls.append(b)
        return np.full_like(b, np.nan), 0

    monkeypatch.setattr(sla, "minres", minres)
    g = TorusGrid((32, 32), 4.25)
    start = perturb(plane_wave(-1, 1.0, g), 0.01, 2, seed=0)
    run = newton_minres(start, P1, certified_tol(g))
    assert len(calls) == 1
    assert not run.converged
    assert run.iterations == 0
    assert np.array_equal(run.field.values, start.values)
