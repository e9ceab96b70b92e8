"""Closed-form merging of overlapping tile predictions.

Plain weighted averaging merges tiles alone; the prior-regularized variants
add a term that pulls the one-step clean estimate toward a reference latent,
for flow (velocity) outputs and for noise (epsilon) outputs. Each closed
form is the unique minimizer of a separable strictly convex objective.
The objectives are written out only in tests/_oracles.py, apart from this
code, and the tests check each closed form against them.

Accumulation runs in float64 and happens strictly in the caller's order; the
numerator is single-writer. The closed forms are elementwise, so they may be
applied to a channel block of the accumulator with the matching blocks of
the latents: a (1, T, H, W) slice gives the same bits as the whole canvas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, ShapeError
from .tensor import Rect, as_latent


@dataclass
class FusionAccumulator:
    """Running weighted sums: num holds sum(w * pred) over tiles, den holds
    sum(w) as a spatial plane shared by all channels and frames."""

    num: np.ndarray  # (C, T, H, W) float64
    den: np.ndarray  # (H, W) float64

    @classmethod
    def zeros(cls, canvas_shape) -> "FusionAccumulator":
        c, t, h, w = canvas_shape
        return cls(
            num=np.zeros((c, t, h, w), dtype=np.float64),
            den=np.zeros((h, w), dtype=np.float64),
        )

    @property
    def canvas_shape(self):
        return self.num.shape


def accumulate(
    acc: FusionAccumulator, tile_pred: np.ndarray, r: Rect, w: np.ndarray
) -> FusionAccumulator:
    """Add one weighted tile prediction in place; returns acc for chaining."""
    tile_pred = as_latent(tile_pred, "tile prediction")
    w = np.asarray(w)
    if tile_pred.shape[2:] != (r.height, r.width):
        raise ShapeError(
            f"prediction spatial dims {tile_pred.shape[2:]} do not match "
            f"window {r.height}x{r.width}"
        )
    if w.shape != (r.height, r.width):
        raise ShapeError(
            f"weight map {w.shape} does not match window {r.height}x{r.width}"
        )
    if tile_pred.shape[:2] != acc.num.shape[:2]:
        raise ShapeError(
            f"prediction (C,T)={tile_pred.shape[:2]} does not match "
            f"accumulator {acc.num.shape[:2]}"
        )
    r.validate_within(acc.num.shape[2], acc.num.shape[3])
    w64 = w.astype(np.float64)
    add_weighted_tile(acc.num, tile_pred, r, w64)
    acc.den[r.row_slice, r.col_slice] += w64
    return acc


def add_weighted_tile(
    num: np.ndarray, tile_pred: np.ndarray, r: Rect, w64: np.ndarray, buf=None
) -> None:
    """num[:, :, r] += w64 * tile_pred, unchecked, one channel at a time
    through one float64 buffer: the channel is cast into it (exactly), then
    multiplied and added by pure float64 passes, cheaper than a product
    that casts float32 as it goes. buf, a flat float64 array of at least
    one tile channel, is used if given, else one is allocated."""
    window = num[:, :, r.row_slice, r.col_slice]
    shape = window.shape[1:]
    prod = np.empty(shape) if buf is None else buf[: window[0].size].reshape(shape)
    for c in range(num.shape[0]):
        np.copyto(prod, tile_pred[c])
        prod *= w64
        window[c] += prod


def _broadcast_strength(lam, canvas_shape):
    """Normalize a prior strength (scalar, (H,W) plane, or full tensor) to a
    float64 value broadcastable against (C,T,H,W)."""
    c, t, h, w = canvas_shape
    arr = np.asarray(lam, dtype=np.float64)
    if arr.ndim == 0:
        pass
    elif arr.shape == (h, w):
        arr = arr[None, None, :, :]
    elif arr.shape == (c, t, h, w):
        pass
    else:
        raise ShapeError(
            f"prior strength shape {arr.shape} is not scalar, ({h},{w}), or "
            f"({c},{t},{h},{w})"
        )
    if np.any(arr < 0):
        raise DomainError("prior strength must be nonnegative")
    return arr


def fuse_md(acc: FusionAccumulator) -> np.ndarray:
    """Weighted mean of the accumulated tile predictions."""
    if np.any(acc.den <= 0.0):
        bad = int(np.count_nonzero(acc.den <= 0.0))
        raise CoverageError(f"{bad} cells have zero accumulated weight")
    return _divide_to_float32(acc.num, acc.den[None, None])


def fuse_fd_flow(
    acc: FusionAccumulator,
    x_t: np.ndarray,
    x_prior: np.ndarray,
    lam,
    sigma_t: float,
) -> np.ndarray:
    """Prior-regularized fused velocity.

    Elementwise (sigma * lam * (x_t - x_prior) + num) / (sigma^2 * lam + den).
    A scalar strength of exactly zero short-circuits to the plain weighted
    mean, which the general formula equals in exact arithmetic.
    """
    lam_b = _broadcast_strength(lam, acc.canvas_shape)
    if lam_b.ndim == 0 and float(lam_b) == 0.0:
        return fuse_md(acc)
    if sigma_t <= 0.0 and np.any(lam_b > 0):
        raise DomainError(f"sigma must be positive with an active prior, got {sigma_t}")
    x_hat = _check_canvas(x_t, acc, "current latent").astype(np.float64)
    return _fuse_prior(acc, x_hat, x_prior, lam_b, sigma_t, sigma_t**2)


def fuse_fd_eps(
    acc: FusionAccumulator,
    x_t: np.ndarray,
    x_prior: np.ndarray,
    lam,
    alpha_t: float,
) -> np.ndarray:
    """Prior-regularized fused noise estimate for epsilon-output models.

    Elementwise
    (sqrt((1-a)/a) * lam * (x_t/sqrt(a) - x_prior) + num) / ((1-a)/a * lam + den).
    """
    if not 0.0 < alpha_t < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha_t}")
    lam_b = _broadcast_strength(lam, acc.canvas_shape)
    if lam_b.ndim == 0 and float(lam_b) == 0.0:
        return fuse_md(acc)
    x_hat = _check_canvas(x_t, acc, "current latent").astype(np.float64)
    x_hat /= np.sqrt(alpha_t)
    ratio = (1.0 - alpha_t) / alpha_t
    return _fuse_prior(acc, x_hat, x_prior, lam_b, np.sqrt(ratio), ratio)


def _fuse_prior(acc, x_hat, x_prior, lam_b, s, s2):
    """The prior-regularized closed form both variants share, elementwise
    (s * lam * (x_hat - x_prior) + num) / (s2 * lam + den), computed in the
    float64 x_hat, which it overwrites."""
    num = x_hat
    num -= _check_canvas(x_prior, acc, "prior latent")
    num *= s * lam_b
    num += acc.num
    den = s2 * lam_b + acc.den[None, None]
    _check_positive_denominator(den, acc.canvas_shape)
    return _divide_to_float32(num, den)


def _check_canvas(x, acc, name):
    x = np.asarray(x, dtype=np.float32)  # a strided band view stays a view
    if x.shape != acc.canvas_shape:
        raise ShapeError(f"{name} shape {x.shape} does not match canvas {acc.canvas_shape}")
    return x


def _check_positive_denominator(den, canvas_shape):
    if np.any(den <= 0.0):
        bad = int(np.count_nonzero(np.broadcast_to(den, canvas_shape) <= 0.0))
        raise CoverageError(
            f"{bad} cells have neither tile coverage nor prior weight"
        )


def _divide_to_float32(num, den):
    """(num / den).astype(float32) without the float64 quotient array."""
    out = np.empty(np.broadcast_shapes(num.shape, den.shape), dtype=np.float32)
    return np.divide(num, den, out=out, casting="same_kind")

