import os
from pathlib import Path

import pytest

from srginv import matpow


def dataset_location() -> Path | None:
    """Directory with the Spence SRG dataset files, if the user provided one."""
    env = os.environ.get("SRGINV_DATASET")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "spence"
    if default.exists():
        return default
    return None


@pytest.fixture
def dataset_dir() -> Path:
    loc = dataset_location()
    if loc is None:
        pytest.skip(
            "Spence SRG dataset not found; set SRGINV_DATASET to the dataset "
            "directory to run the dataset reproduction criteria"
        )
    return loc


@pytest.fixture
def matmul_calls(monkeypatch) -> list:
    """Shapes of the ``checked_matmul`` products made while a test runs."""
    calls = []
    real = matpow.checked_matmul

    def counting(a, b, **kwargs):
        calls.append(a.shape)
        return real(a, b, **kwargs)

    monkeypatch.setattr(matpow, "checked_matmul", counting)
    return calls
