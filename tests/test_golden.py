"""The committed golden table: latent bytes of small runs, and fill_noise's
bits on their own. rewrite_golden.py holds the configurations and rewrites
the table when a change moves bits on purpose."""

import json

import numpy as np
import pytest

from rewrite_golden import CONFIGS, TABLE, fill_noise_sha256, integer_noise, latent_sha256

GOLDEN = json.loads(TABLE.read_text())


def test_the_table_names_every_configuration():
    assert sorted(GOLDEN["latents"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_latent_bytes_match_the_table(name):
    assert latent_sha256(name) == GOLDEN["latents"][name]


def test_fill_noise_bits_match_the_table():
    assert fill_noise_sha256() == GOLDEN["fill_noise"]


def test_integer_noise_is_exact_and_spread():
    x = integer_noise((4, 1000), 11)
    assert x.dtype == np.float32
    assert np.array_equal(x, integer_noise((4, 1000), 11))
    assert not np.array_equal(x, integer_noise((4, 1000), 12))
    steps = x.astype(np.float64) * 2.0**22  # whole numbers in [-2**23, 2**23)
    assert np.array_equal(steps, np.round(steps))
    assert -2.0 <= x.min() and x.max() < 2.0
    assert abs(float(x.mean())) < 0.1 and 1.0 < float(x.std()) < 1.3
