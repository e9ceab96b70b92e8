import numpy as np
import pytest

from tilefuse import (
    FusionAccumulator,
    Rect,
    accumulate,
    fuse_fd_eps,
    fuse_fd_flow,
    fuse_md,
    plan_tiles,
)
from tilefuse.errors import CoverageError, DomainError, ShapeError

from _oracles import (
    fusion_loss_field_eps,
    fusion_loss_field_flow,
    minimize_fd_eps,
    minimize_fd_flow,
)


def random_instance(rng, covered=True, max_extra=4):
    """Random small fusion instance: canvas, tiles, currents, prior."""
    c = int(rng.integers(1, 5))
    t = int(rng.integers(1, 4))
    h = int(rng.integers(3, 9))
    w = int(rng.integers(3, 9))
    shape = (c, t, h, w)
    tiles = []
    if covered:
        wh = int(rng.integers(2, h + 1))
        ww = int(rng.integers(2, w + 1))
        plan = plan_tiles(h, w, wh, ww, float(rng.uniform(0.0, 0.6)))
        for r in plan.tiles:
            pred = rng.standard_normal((c, t, r.height, r.width)).astype(np.float32)
            wgt = rng.uniform(0.1, 1.0, (r.height, r.width)).astype(np.float32)
            tiles.append((pred, r, wgt))
    for _ in range(int(rng.integers(0, max_extra))):
        th = int(rng.integers(1, h + 1))
        tw = int(rng.integers(1, w + 1))
        r = Rect(
            int(rng.integers(0, h - th + 1)),
            int(rng.integers(0, w - tw + 1)),
            th,
            tw,
        )
        pred = rng.standard_normal((c, t, th, tw)).astype(np.float32)
        wgt = rng.uniform(0.1, 1.0, (th, tw)).astype(np.float32)
        tiles.append((pred, r, wgt))
    x = rng.standard_normal(shape).astype(np.float32)
    prior = rng.standard_normal(shape).astype(np.float32)
    return shape, tiles, x, prior


def accumulate_tiles(shape, tiles):
    acc = FusionAccumulator.zeros(shape)
    for pred, r, w in tiles:
        accumulate(acc, pred, r, w)
    return acc


def flow_loss(y, tiles, x, prior, lam, sigma):
    """The prior-regularized flow objective at y, summed in float64 from
    the oracle's per-element field."""
    return fusion_loss_field_flow(
        y.astype(np.float64), tiles, x.astype(np.float64),
        prior.astype(np.float64), lam, sigma,
    ).sum()


def rel_err(got, want):
    return np.max(np.abs(got.astype(np.float64) - want) / np.maximum(np.abs(want), 1.0))


class TestAccumulate:
    def test_single_full_tile_unit_weight(self, rng):
        shape = (2, 1, 4, 4)
        pred = rng.standard_normal(shape).astype(np.float32)
        acc = FusionAccumulator.zeros(shape)
        accumulate(acc, pred, Rect(0, 0, 4, 4), np.ones((4, 4), dtype=np.float32))
        assert np.allclose(acc.num, pred)
        assert np.allclose(acc.den, 1.0)

    def test_two_identical_tiles_average_back(self, rng):
        shape = (1, 1, 3, 3)
        pred = rng.standard_normal(shape).astype(np.float32)
        acc = FusionAccumulator.zeros(shape)
        w = np.ones((3, 3), dtype=np.float32)
        accumulate(acc, pred, Rect(0, 0, 3, 3), w)
        accumulate(acc, pred, Rect(0, 0, 3, 3), w)
        assert np.allclose(acc.den, 2.0)
        assert np.allclose(fuse_md(acc), pred, atol=1e-7)

    def test_outside_window_untouched(self, rng):
        acc = FusionAccumulator.zeros((1, 1, 4, 4))
        pred = np.ones((1, 1, 2, 2), dtype=np.float32)
        accumulate(acc, pred, Rect(1, 1, 2, 2), np.full((2, 2), 0.5, np.float32))
        assert acc.num[0, 0, 0, 0] == 0.0
        assert acc.den[0, 0] == 0.0
        assert acc.den[1, 1] == 0.5

    def test_shape_mismatch(self, rng):
        acc = FusionAccumulator.zeros((1, 1, 4, 4))
        pred = np.ones((1, 1, 2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            accumulate(acc, pred, Rect(0, 0, 2, 2), np.ones((2, 2), np.float32))

    def test_matches_dense_loop(self, rng):
        shape, tiles, _, _ = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        num = np.zeros(shape)
        den = np.zeros(shape[2:])
        for pred, r, w in tiles:
            for i in range(r.height):
                for j in range(r.width):
                    num[:, :, r.row + i, r.col + j] += w[i, j] * pred[:, :, i, j]
                    den[r.row + i, r.col + j] += w[i, j]
        assert np.allclose(acc.num, num, atol=1e-6)
        assert np.allclose(acc.den, den, atol=1e-6)


class TestFuseMd:
    def test_weighted_mean_of_two(self):
        shape = (1, 1, 1, 1)
        acc = FusionAccumulator.zeros(shape)
        one = np.ones((1, 1), np.float32)
        accumulate(acc, np.full(shape, 3.0, np.float32), Rect(0, 0, 1, 1), 0.25 * one)
        accumulate(acc, np.full(shape, 7.0, np.float32), Rect(0, 0, 1, 1), 0.75 * one)
        assert np.isclose(fuse_md(acc)[0, 0, 0, 0], 0.25 * 3 + 0.75 * 7)

    def test_uncovered_cell_is_error(self):
        acc = FusionAccumulator.zeros((1, 1, 4, 4))
        accumulate(
            acc, np.ones((1, 1, 2, 2), np.float32), Rect(0, 0, 2, 2),
            np.ones((2, 2), np.float32),
        )
        with pytest.raises(CoverageError):
            fuse_md(acc)

    def test_minimizes_md_loss_vs_perturbations(self, rng):
        shape, tiles, _, _ = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        y = fuse_md(acc)
        zero = np.zeros(shape)  # lam = 0 leaves the tile-merging term alone
        base = flow_loss(y, tiles, zero, zero, 0.0, 1.0)
        for _ in range(100):
            noise = 0.1 * rng.standard_normal(shape).astype(np.float32)
            assert flow_loss(y + noise, tiles, zero, zero, 0.0, 1.0) >= base - 1e-9


class TestFuseFdFlow:
    def test_reduces_to_md_at_zero_strength(self, rng):
        for _ in range(25):
            shape, tiles, x, prior = random_instance(rng)
            acc = accumulate_tiles(shape, tiles)
            md = fuse_md(acc)
            fd_scalar = fuse_fd_flow(acc, x, prior, 0.0, 0.5)
            fd_plane = fuse_fd_flow(acc, x, prior, np.zeros(shape[2:]), 0.5)
            assert np.array_equal(fd_scalar, md)
            assert np.max(np.abs(fd_plane - md)) <= 1e-6

    def test_prior_only_cell_recovers_prior(self, rng):
        shape = (1, 1, 2, 2)
        acc = FusionAccumulator.zeros(shape)
        x = rng.standard_normal(shape).astype(np.float32)
        prior = rng.standard_normal(shape).astype(np.float32)
        sigma = 0.6
        y = fuse_fd_flow(acc, x, prior, 2.0, sigma)
        x0 = x - sigma * y
        assert np.allclose(x0, prior, atol=1e-6)

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(60):
            shape, tiles, x, prior = random_instance(rng)
            acc = accumulate_tiles(shape, tiles)
            lam = float(rng.choice([0.0, 0.5, 1.5, 5.0]))
            sigma = float(rng.choice([0.2, 0.5, 1.0]))
            got = fuse_fd_flow(acc, x, prior, lam, sigma)
            want = minimize_fd_flow(
                tiles, x.astype(np.float64), prior.astype(np.float64), lam, sigma, shape
            )
            assert rel_err(got, want) <= 1e-5

    def test_matches_oracle_with_spatial_strength(self, rng):
        for _ in range(30):
            shape, tiles, x, prior = random_instance(rng)
            acc = accumulate_tiles(shape, tiles)
            lam = rng.choice([0.0, 0.5, 1.5, 5.0], size=shape[2:])
            sigma = float(rng.choice([0.2, 0.5, 1.0]))
            got = fuse_fd_flow(acc, x, prior, lam, sigma)
            want = minimize_fd_flow(
                tiles,
                x.astype(np.float64),
                prior.astype(np.float64),
                lam[None, None],
                sigma,
                shape,
            )
            assert rel_err(got, want) <= 1e-5

    def test_full_tensor_strength_accepted(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        lam = rng.uniform(0.0, 3.0, shape)
        got = fuse_fd_flow(acc, x, prior, lam, 0.5)
        want = minimize_fd_flow(
            tiles, x.astype(np.float64), prior.astype(np.float64), lam, 0.5, shape
        )
        assert rel_err(got, want) <= 1e-5

    def test_sigma_domain_error(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        with pytest.raises(DomainError):
            fuse_fd_flow(acc, x, prior, 1.0, 0.0)

    def test_negative_strength_rejected(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        with pytest.raises(DomainError):
            fuse_fd_flow(acc, x, prior, -0.5, 0.5)

    def test_uncovered_with_zero_strength_rejected(self, rng):
        shape = (1, 1, 2, 2)
        acc = FusionAccumulator.zeros(shape)
        x = np.zeros(shape, np.float32)
        with pytest.raises(CoverageError):
            fuse_fd_flow(acc, x, x, np.zeros(shape[2:]), 0.5)

    def test_prior_pull_monotone_in_strength(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        sigma = 0.5
        dists = []
        for lam in (0.0, 0.5, 1.5, 5.0, 50.0):
            y = fuse_fd_flow(acc, x, prior, lam, sigma)
            dists.append(float(np.linalg.norm((x - sigma * y) - prior)))
        assert all(b <= a + 1e-6 for a, b in zip(dists, dists[1:]))

    def test_optimality_vs_perturbations(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        lam, sigma = 1.5, 0.5
        y = fuse_fd_flow(acc, x, prior, lam, sigma)
        base = flow_loss(y, tiles, x, prior, lam, sigma)
        for _ in range(100):
            noise = 0.05 * rng.standard_normal(shape).astype(np.float32)
            assert flow_loss(y + noise, tiles, x, prior, lam, sigma) >= base - 1e-9


class TestFuseFdEps:
    def test_reduces_to_md_at_zero_strength(self, rng):
        for _ in range(25):
            shape, tiles, x, prior = random_instance(rng)
            acc = accumulate_tiles(shape, tiles)
            md = fuse_md(acc)
            got = fuse_fd_eps(acc, x, prior, 0.0, 0.5)
            assert np.array_equal(got, md)

    def test_prior_only_cell_recovers_prior(self, rng):
        shape = (1, 1, 2, 2)
        acc = FusionAccumulator.zeros(shape)
        x = rng.standard_normal(shape).astype(np.float32)
        prior = rng.standard_normal(shape).astype(np.float32)
        alpha = 0.4
        y = fuse_fd_eps(acc, x, prior, 3.0, alpha)
        x0 = (x - np.sqrt(1 - alpha) * y) / np.sqrt(alpha)
        assert np.allclose(x0, prior, atol=1e-5)

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(60):
            shape, tiles, x, prior = random_instance(rng)
            acc = accumulate_tiles(shape, tiles)
            lam = float(rng.choice([0.0, 0.5, 1.5, 5.0]))
            alpha = float(rng.choice([0.2, 0.5, 0.9]))
            got = fuse_fd_eps(acc, x, prior, lam, alpha)
            want = minimize_fd_eps(
                tiles, x.astype(np.float64), prior.astype(np.float64), lam, alpha, shape
            )
            assert rel_err(got, want) <= 1e-5

    def test_alpha_domain(self, rng):
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        for alpha in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                fuse_fd_eps(acc, x, prior, 1.0, alpha)


class TestLosses:
    def test_eps_field_consistent_with_closed_form_identity(self, rng):
        # at alpha -> sigma mapping the two objectives differ; sanity-check the
        # eps field is minimized by the eps fusion and not by the flow one
        shape, tiles, x, prior = random_instance(rng)
        acc = accumulate_tiles(shape, tiles)
        lam, alpha = 1.5, 0.5
        y_eps = fuse_fd_eps(acc, x, prior, lam, alpha).astype(np.float64)
        y_flow = fuse_fd_flow(acc, x, prior, lam, np.sqrt(1 - alpha)).astype(np.float64)
        f_at = lambda y: fusion_loss_field_eps(
            y, tiles, x.astype(np.float64), prior.astype(np.float64), lam, alpha
        ).sum()
        assert f_at(y_eps) <= f_at(y_flow) + 1e-9
