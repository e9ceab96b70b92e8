import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """Fail any test that leaves a writer's `*.tmp.*` file in its tmp_path."""
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.tmp.*"))
    assert not left, f"temporary files left behind: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_latent(rng, shape, scale=1.0):
    return (scale * rng.standard_normal(shape)).astype(np.float32)
