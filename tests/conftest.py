"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def lobpcg_fails(monkeypatch):
    """Replace scipy's lobpcg with one that returns its start block with
    residuals ten times the tolerance; the eigensolver imports lobpcg at
    call time, so it sees the fake. Returns the list of calls the fake
    received."""
    import scipy.sparse.linalg as sla

    calls = []

    def lobpcg(A, X, **kwargs):
        calls.append(kwargs)
        count = X.shape[1]
        return np.zeros(count), X, [np.full(count, 10.0 * kwargs["tol"])]

    monkeypatch.setattr(sla, "lobpcg", lobpcg)
    return calls
