"""Full-resolution evaluation metrics.

Frames are either (H, W, 3) uint8 color or (H, W) real luminance arrays.
Sharpness is the mean squared Sobel gradient magnitude; temporal consistency
is the mean squared difference between consecutive area-averaged 128x128
grayscale frames scaled by 1/64^2; prior alignment is the mean cosine
between per-frame embeddings from a pluggable provider. Seam energy is a
diagnostic: excess gradient energy along interior tile boundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, MetricError

LUMA_WEIGHTS = (0.299, 0.587, 0.114)
CONSISTENCY_SIZE = 128
CONSISTENCY_DIVISOR = 64.0**2  # kept verbatim from the metric definition


def luminance(frame: np.ndarray) -> np.ndarray:
    """Grayscale plane as float64. Color frames use the Rec.601 weights."""
    frame = np.asarray(frame)
    if frame.ndim == 2:
        return frame.astype(np.float64)
    if frame.ndim == 3 and frame.shape[2] == 3:
        r, g, b = LUMA_WEIGHTS
        f = frame.astype(np.float64)
        return r * f[:, :, 0] + g * f[:, :, 1] + b * f[:, :, 2]
    raise ArgumentError(f"frame must be (H,W) or (H,W,3), got {frame.shape}")


def sobel_gradients(lum: np.ndarray, border: str = "replicate"):
    """3x3 Sobel responses (gx, gy). border 'replicate' evaluates every
    pixel against edge-padded neighbours; 'valid' returns the interior only.
    """
    if border not in ("replicate", "valid"):
        raise ArgumentError(f"unknown border mode {border!r}")
    if lum.shape[0] < 3 or lum.shape[1] < 3:
        raise ArgumentError(f"frame {lum.shape} is smaller than the 3x3 kernel")
    p = np.pad(lum, 1, mode="edge") if border == "replicate" else lum
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return gx, gy


def tenengrad(frame: np.ndarray, border: str = "replicate") -> float:
    """Mean squared gradient magnitude of the luminance plane."""
    gx, gy = sobel_gradients(luminance(frame), border)
    return float(np.mean(gx * gx + gy * gy))


def video_tenengrad(frames, border: str = "replicate") -> float:
    frames = list(frames)
    if not frames:
        raise ArgumentError("need at least one frame")
    return float(np.mean([tenengrad(f, border) for f in frames]))


def area_average_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic (n_out, n_in) operator: each output cell averages the
    source interval it covers, with fractional overlap at the edges."""
    if n_in < 1 or n_out < 1:
        raise ArgumentError("sizes must be positive")
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for k in range(n_out):
        lo = k * scale
        hi = (k + 1) * scale
        j0 = int(np.floor(lo))
        j1 = min(n_in, int(np.ceil(hi)))
        for j in range(j0, j1):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                mat[k, j] = overlap / scale
    return mat


def _area_operators(shape, out_h: int = CONSISTENCY_SIZE, out_w: int = CONSISTENCY_SIZE):
    """The row operator and the transposed column operator that area-average
    a plane of `shape` to out_h by out_w."""
    return area_average_matrix(shape[0], out_h), area_average_matrix(shape[1], out_w).T


def area_downsample(lum: np.ndarray, out_h: int = CONSISTENCY_SIZE, out_w: int = CONSISTENCY_SIZE) -> np.ndarray:
    a_h, a_wt = _area_operators(lum.shape, out_h, out_w)
    return a_h @ lum.astype(np.float64) @ a_wt


def temporal_consistency(frames, divisor: float = CONSISTENCY_DIVISOR) -> float:
    """Mean squared difference between consecutive downscaled grayscale
    frames, divided by the fixed normalizer. The area operators are built
    once per frame shape, not once per frame; each frame is downscaled as
    area_downsample does."""
    frames = list(frames)
    if len(frames) < 2:
        raise ArgumentError("temporal consistency needs at least two frames")
    operators = {}
    small = []
    for f in frames:
        lum = luminance(f)
        if lum.shape not in operators:
            operators[lum.shape] = _area_operators(lum.shape)
        a_h, a_wt = operators[lum.shape]
        small.append(a_h @ lum @ a_wt)
    total = 0.0
    for prev, cur in zip(small, small[1:]):
        diff = cur - prev
        total += float(np.sum(diff * diff)) / divisor
    return total / (len(frames) - 1)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or a.shape != b.shape:
        raise MetricError(f"embedding dims differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise MetricError("zero-norm embedding")
    return float(np.dot(a, b) / (na * nb))


def prior_alignment(gen_frames, prior_frames, embedder) -> float:
    """Mean cosine similarity between per-frame embeddings of the generated
    and prior streams. embedder maps one frame to a 1-D vector."""
    gen_frames = list(gen_frames)
    prior_frames = list(prior_frames)
    if len(gen_frames) != len(prior_frames):
        raise ArgumentError(
            f"frame counts differ: {len(gen_frames)} vs {len(prior_frames)}"
        )
    if not gen_frames:
        raise ArgumentError("need at least one frame pair")
    sims = []
    for k, (g, p) in enumerate(zip(gen_frames, prior_frames)):
        zg = np.asarray(embedder(g))
        zp = np.asarray(embedder(p))
        if not (np.isfinite(zg).all() and np.isfinite(zp).all()):
            raise MetricError(f"non-finite embedding at frame {k}")
        sims.append(cosine_similarity(zp, zg))
    return float(np.mean(sims))


def _interior_edges(latent_edges, axis_len_px: int, factor: int) -> list[int]:
    return sorted(e * factor for e in latent_edges if 0 < e * factor < axis_len_px)


def seam_energy(frame: np.ndarray, plan, factor: int = 8) -> float:
    """Mean squared gradient across interior tile boundaries minus the
    frame-wide mean squared gradient. Positive excess flags seams."""
    lum = luminance(frame)
    h, w = lum.shape
    dcol = np.diff(lum, axis=1) ** 2  # gradient between columns j and j+1
    drow = np.diff(lum, axis=0) ** 2
    col_edges = set()
    row_edges = set()
    for r in plan.tiles:
        col_edges.update((r.col, r.col + r.width))
        row_edges.update((r.row, r.row + r.height))
    cols = _interior_edges(col_edges, w, factor)
    rows = _interior_edges(row_edges, h, factor)
    boundary = []
    for c in cols:
        boundary.append(dcol[:, c - 1])
    for r in rows:
        boundary.append(drow[r - 1, :])
    if not boundary:
        return 0.0
    boundary_mean = float(np.mean(np.concatenate(boundary)))
    global_mean = float(np.mean(np.concatenate([dcol.ravel(), drow.ravel()])))
    return boundary_mean - global_mean
