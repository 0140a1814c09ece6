"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def arpack_fails(monkeypatch):
    """Replace scipy's eigsh with one that raises ArpackNoConvergence; the
    eigensolver imports eigsh at call time, so it sees the fake. Returns the
    list of calls the fake received."""
    import scipy.sparse.linalg as sla

    calls = []

    def eigsh(*args, **kwargs):
        calls.append(kwargs)
        raise sla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(sla, "eigsh", eigsh)
    return calls
