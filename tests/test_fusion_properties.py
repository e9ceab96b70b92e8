"""Property tests: the fusion closed forms against the quadratic oracles of
tests/_oracles.py, on hypothesis-drawn canvases, windows, overlaps and
prior strengths, at the tolerance of tests/test_fusion.py.

A case covers its canvas with a full tile plan or with part of one. Where a
cell has neither tile weight nor prior strength the objective has no
minimizer, and the closed form must raise CoverageError; everywhere else it
must match the oracle's minimizer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilefuse import FusionAccumulator, accumulate, fuse_fd_flow, fuse_md, plan_tiles
from tilefuse.blending import ramp_weight_map
from tilefuse.errors import CoverageError

from _oracles import minimize_fd_flow

TOLERANCE = 1e-5  # rel_err of test_fusion.py's oracle tests
STRENGTHS = [0.0, 0.5, 1.5, 5.0]
PROPERTY = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def fusion_cases(draw):
    """A canvas, the tiles of a plan on it (all of them, or a random part)
    with border-ramp weights, float32 latents, and a prior strength that is
    a scalar or an (H, W) plane with zero cells."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w)
    plan = plan_tiles(
        h, w, draw(st.integers(1, h + 2)), draw(st.integers(1, w + 2)),
        draw(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75])),
    )
    weights = ramp_weight_map(
        plan.window_h, plan.window_w, draw(st.integers(0, 3)), draw(st.sampled_from([0.05, 0.1, 1.0]))
    )
    partial = draw(st.booleans())
    plane = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiles = [
        (rng.standard_normal((*shape[:2], r.height, r.width)).astype(np.float32), r, weights)
        for r in plan.tiles
        if not partial or rng.random() < 0.6
    ]
    lam = rng.choice(STRENGTHS, size=(h, w)) if plane else float(rng.choice(STRENGTHS))
    x = rng.standard_normal(shape).astype(np.float32)
    prior = rng.standard_normal(shape).astype(np.float32)
    return shape, tiles, x, prior, lam


def accumulated(shape, tiles):
    acc = FusionAccumulator.zeros(shape)
    for pred, r, wgt in tiles:
        accumulate(acc, pred, r, wgt)
    return acc


def rel_err(got, want):
    return np.max(np.abs(got.astype(np.float64) - want) / np.maximum(np.abs(want), 1.0))


def check_against_oracle(fuse, oracle, den, lam):
    """fuse() matches oracle() where every cell has tile weight or prior
    strength, and raises CoverageError where one has neither."""
    if np.any((den == 0.0) & (np.broadcast_to(lam, den.shape) == 0.0)):
        with pytest.raises(CoverageError):
            fuse()
    else:
        assert rel_err(fuse(), oracle()) <= TOLERANCE


def oracle_strength(lam):
    """The strength as the oracles broadcast it against (C, T, H, W)."""
    return lam[None, None] if np.ndim(lam) else lam


@PROPERTY
@given(fusion_cases())
def test_fuse_md_is_the_weighted_least_squares_minimizer(case):
    shape, tiles, x, prior, _ = case
    acc = accumulated(shape, tiles)
    check_against_oracle(
        lambda: fuse_md(acc),
        lambda: minimize_fd_flow(tiles, x.astype(np.float64), prior.astype(np.float64), 0.0, 1.0, shape),
        acc.den,
        0.0,
    )


@PROPERTY
@given(fusion_cases(), st.floats(0.1, 1.0))
def test_fuse_fd_flow_is_the_prior_regularized_minimizer(case, sigma):
    shape, tiles, x, prior, lam = case
    acc = accumulated(shape, tiles)
    check_against_oracle(
        lambda: fuse_fd_flow(acc, x, prior, lam, sigma),
        lambda: minimize_fd_flow(
            tiles, x.astype(np.float64), prior.astype(np.float64), oracle_strength(lam), sigma, shape
        ),
        acc.den,
        lam,
    )
