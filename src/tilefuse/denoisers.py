"""Pluggable per-tile denoisers.

A denoiser is any callable mapping a DenoiserRequest to a DenoiserResponse
and must be a pure function of the request given fixed parameters. Two
verifiable built-ins ship here: an exact posterior-mean model for i.i.d.
Gaussian data and a driver that steers every tile toward a fixed target
canvas. Real backbones attach through the FDP1 worker protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .protocol import KINDS, WorkerPool
from .tensor import Rect, as_latent, crop, ensure_finite, latent_view


@dataclass(frozen=True)
class DenoiserRequest:
    tile: np.ndarray
    step_index: int
    t: float
    sigma: float
    conditioning: str = ""
    rect: Rect | None = None


@dataclass(frozen=True)
class DenoiserResponse:
    prediction: np.ndarray
    kind: str = "flow"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown prediction kind {self.kind!r}")


def gaussian_posterior_mean(x: np.ndarray, sigma: float, mu: float, s: float, out=None) -> np.ndarray:
    """Posterior mean of the clean value under i.i.d. N(mu, s^2) data when
    the observation is x = (1-sigma)*clean + sigma*noise, in float64, into
    out if given."""
    d = (1.0 - sigma) ** 2 * s**2 + sigma**2
    out = np.multiply(x, (1.0 - sigma) * s**2, out=out, dtype=np.float64)
    out += sigma**2 * mu
    out /= d
    return out


class GaussianAnalytic:
    """Exact velocity for a Gaussian data law: y = (x - posterior_mean)/sigma.

    The s = 0 point-mass limit is allowed and collapses the posterior mean
    to mu. The tile is read where it lies, uncopied, and the velocity is
    computed one channel at a time in one float64 buffer of a channel's
    shape, which every operation reads the float32 tile into as it goes: a
    call allocates its float32 output and that buffer, whatever the tile's
    strides, and makes a handful of numpy calls per channel.
    """

    def __init__(self, mu: float, s: float):
        if s < 0:
            raise DomainError(f"standard deviation must be nonnegative, got {s}")
        self.mu = float(mu)
        self.s = float(s)

    def __call__(self, req: DenoiserRequest) -> DenoiserResponse:
        if not 0.0 < req.sigma <= 1.0:
            raise DomainError(f"sigma must lie in (0, 1], got {req.sigma}")
        x = latent_view(req.tile, "tile")
        y = np.empty(x.shape, dtype=np.float32)
        x0 = np.empty(x.shape[1:])
        for c in range(x.shape[0]):
            gaussian_posterior_mean(x[c], req.sigma, self.mu, self.s, out=x0)
            np.subtract(x[c], x0, out=x0, dtype=np.float64)
            np.divide(x0, req.sigma, out=y[c], casting="same_kind")
        return DenoiserResponse(prediction=y, kind="flow")


class TargetDriver:
    """Velocity that points every tile straight at a fixed target canvas:
    the one-step clean estimate equals the target crop exactly."""

    def __init__(self, target: np.ndarray):
        self.target = ensure_finite(as_latent(target, "target"), "target")

    def __call__(self, req: DenoiserRequest) -> DenoiserResponse:
        if req.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {req.sigma}")
        if req.rect is None:
            raise ShapeError("target driver needs the tile window position")
        x = latent_view(req.tile, "tile")
        goal = crop(self.target, req.rect)
        if goal.shape != x.shape:
            raise ShapeError(
                f"tile shape {x.shape} does not match target crop {goal.shape}"
            )
        y = (
            (x.astype(np.float64) - goal.astype(np.float64)) / req.sigma
        ).astype(np.float32)
        return DenoiserResponse(prediction=y, kind="flow")


class ExternalDenoiser(WorkerPool):
    """Denoiser served by a pool of `size` FDP1 worker processes: a
    WorkerPool that takes DenoiserRequests, closed like any pool.

    The call is thread-safe at any size: requests fan out across the pool,
    one in flight per child, and a pool of one serialises them. A strided
    or read-only tile is copied once, into the contiguous float32 that goes
    on the wire.
    """

    def __call__(self, req: DenoiserRequest) -> DenoiserResponse:
        tile = as_latent(req.tile, "tile")
        rect = req.rect or Rect(0, 0, tile.shape[2], tile.shape[3])
        kind, pred = self.denoise(
            req.step_index, req.t, req.sigma, rect, req.conditioning, tile
        )
        return DenoiserResponse(prediction=pred, kind=kind)
