import tracemalloc

import numpy as np
import pytest

from tilefuse import DenoiserRequest, GaussianAnalytic, Rect, TargetDriver, crop
from tilefuse.denoisers import gaussian_posterior_mean
from tilefuse.errors import DomainError, ShapeError

from _oracles import gaussian_posterior_mc


def make_request(tile, sigma, rect=None, step=0, t=0.0):
    return DenoiserRequest(
        tile=tile, step_index=step, t=t, sigma=sigma, conditioning="", rect=rect
    )


class TestGaussianAnalytic:
    def test_point_mass_limit(self, rng):
        mu = 0.8
        den = GaussianAnalytic(mu, 0.0)
        tile = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        sigma = 0.5
        resp = den(make_request(tile, sigma))
        expected = (tile - mu) / sigma
        assert np.allclose(resp.prediction, expected, atol=1e-6)

    def test_pure_noise_level(self, rng):
        # at sigma = 1 the posterior mean is exactly mu
        den = GaussianAnalytic(0.3, 0.7)
        tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        resp = den(make_request(tile, 1.0))
        assert np.allclose(resp.prediction, tile - 0.3, atol=1e-6)

    def test_small_sigma_estimate_tracks_observation(self, rng):
        x = np.full((1, 1, 1, 1), 0.4, dtype=np.float32)
        for sigma in (0.05, 0.01):
            x0 = gaussian_posterior_mean(x, sigma, 0.0, 0.5)
            assert abs(x0.item() - 0.4) < 0.1
            y = GaussianAnalytic(0.0, 0.5)(make_request(x, sigma)).prediction
            assert np.isfinite(y).all()

    def test_strided_view_allocates_its_output_and_one_channel(self, rng):
        """On a read-only strided tile the call allocates no more than its
        float32 output and one float64 channel of scratch, and gives the
        bits of the whole-tile float64 composition."""
        mu, s, sigma = 0.2, 0.4, 0.6
        canvas = rng.standard_normal((16, 21, 80, 130)).astype(np.float32)
        tile = canvas[:, :, 7:67, 11:115]
        tile.flags.writeable = False
        req = make_request(tile, sigma)
        tracemalloc.start()
        try:
            y = GaussianAnalytic(mu, s)(req).prediction
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        channel = tile[0].size * 8
        # besides: numpy's casting buffers (8192 elements an operand), a few objects
        assert peak <= y.nbytes + channel + (128 << 10)

        x0 = gaussian_posterior_mean(tile, sigma, mu, s)
        want = ((tile.astype(np.float64) - x0) / sigma).astype(np.float32)
        assert y.tobytes() == want.tobytes()
        d = (1.0 - sigma) ** 2 * s**2 + sigma**2
        x0_whole = (((1.0 - sigma) * s**2) * tile.astype(np.float64) + sigma**2 * mu) / d
        assert x0.tobytes() == x0_whole.tobytes()

    def test_sigma_zero_rejected(self, rng):
        den = GaussianAnalytic(0.0, 1.0)
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        with pytest.raises(DomainError):
            den(make_request(tile, 0.0))

    @pytest.mark.parametrize("sigma,query", [(0.5, 0.3), (0.5, 0.9), (0.8, -0.2), (0.3, 0.6)])
    def test_posterior_mean_matches_monte_carlo(self, sigma, query):
        mu, s = 0.7, 0.3
        formula = float(
            gaussian_posterior_mean(np.array(query, dtype=np.float64), sigma, mu, s)
        )
        mc = gaussian_posterior_mc(
            query, sigma, mu, s, n_samples=100_000, seed=99, bandwidth=0.08
        )
        assert abs(formula - mc) <= 0.01 * max(abs(formula), 0.1)

    def test_pure_function_of_request(self, rng):
        den = GaussianAnalytic(0.2, 0.4)
        tile = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        a = den(make_request(tile, 0.6)).prediction
        b = den(make_request(tile, 0.6)).prediction
        assert np.array_equal(a, b)


class TestTargetDriver:
    def test_zero_velocity_at_target(self, rng):
        target = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        den = TargetDriver(target)
        r = Rect(1, 2, 3, 3)
        resp = den(make_request(crop(target, r), 0.5, rect=r))
        assert np.allclose(resp.prediction, 0.0, atol=1e-7)

    def test_single_step_reaches_target(self, rng):
        target = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        den = TargetDriver(target)
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        r = Rect(0, 0, 4, 4)
        y = den(make_request(x, 1.0, rect=r)).prediction
        # Euler from sigma 1 to 0 with constant velocity
        x_final = x + (0.0 - 1.0) * y
        assert np.allclose(x_final, target, atol=1e-6)

    def test_clean_estimate_equals_crop(self, rng):
        target = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        den = TargetDriver(target)
        r = Rect(2, 3, 4, 4)
        x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        sigma = 0.4
        y = den(make_request(x, sigma, rect=r)).prediction
        assert np.allclose(x - sigma * y, crop(target, r), atol=1e-5)

    def test_overlapping_tiles_agree_pointwise(self, rng):
        # identical per-cell predictions regardless of which tile covers a cell
        target = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        canvas = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        den = TargetDriver(target)
        sigma = 0.5
        r1 = Rect(0, 0, 4, 6)
        r2 = Rect(2, 0, 4, 6)
        y1 = den(make_request(crop(canvas, r1), sigma, rect=r1)).prediction
        y2 = den(make_request(crop(canvas, r2), sigma, rect=r2)).prediction
        assert np.allclose(y1[:, :, 2:4], y2[:, :, 0:2], atol=1e-7)

    def test_requires_rect(self, rng):
        den = TargetDriver(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            den(make_request(np.zeros((1, 1, 2, 2), np.float32), 0.5))

    def test_sigma_zero_rejected(self, rng):
        den = TargetDriver(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        with pytest.raises(DomainError):
            den(make_request(np.zeros((1, 1, 4, 4), np.float32), 0.0, rect=Rect(0, 0, 4, 4)))
