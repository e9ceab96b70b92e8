import threading

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """Fail any test that leaves a writer's `*.tmp.*` file in its tmp_path."""
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.tmp.*"))
    assert not left, f"temporary files left behind: {left}"


@pytest.fixture(autouse=True)
def no_tilefuse_thread_left():
    """Fail any test that leaves a `tilefuse-*` thread alive: a run's tile
    pool and channel lanes and the pipeline's noise draw end with it,
    however it ends."""
    yield
    left = sorted(t.name for t in threading.enumerate() if t.name.startswith("tilefuse-"))
    assert not left, f"threads left behind: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_latent(rng, shape, scale=1.0):
    return (scale * rng.standard_normal(shape)).astype(np.float32)
