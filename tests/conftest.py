from __future__ import annotations

from pathlib import Path

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

