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


@pytest.fixture
def lobpcg_raises(monkeypatch):
    """A function that replaces scipy's lobpcg with one that raises the
    exception it is given, as lobpcg does when it breaks down."""
    import scipy.sparse.linalg as sla

    def install(error):
        def lobpcg(A, X, **kwargs):
            raise error

        monkeypatch.setattr(sla, "lobpcg", lobpcg)
    return install


@pytest.fixture
def fft_calls(monkeypatch):
    """Count every call into a numpy.fft / scipy.fft transform entry point;
    returns the list the calls are appended to."""
    import numpy.fft
    import scipy.fft

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for module in (numpy.fft, scipy.fft):
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                     "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls
