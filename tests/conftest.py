from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden output files instead of comparing against them",
    )


@pytest.fixture
def regen_golden(request) -> bool:
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """``(dtype, compute_uv)`` of each ``np.linalg.svd`` call the test makes."""
    calls = []
    svd = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.asarray(a).dtype, compute_uv))
        return svd(a, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def psd_calls(monkeypatch) -> list:
    """``(name, shape)`` of each ``np.linalg.cholesky`` and ``eigvalsh`` call, in order.

    These are the calls of ``basis._psd_test``: a shifted Cholesky per
    block array, and the spectrum only where that does not certify.
    """
    calls = []
    for name in ("cholesky", "eigvalsh"):

        def recording(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls
