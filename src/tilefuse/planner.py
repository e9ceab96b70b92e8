"""Tile placement over a latent canvas.

Grid positions march by a fixed stride; whenever the last grid position
leaves the canvas edge uncovered an extra window is appended flush with that
edge, so coverage is total by construction. Pixel geometry converts to
latent cells by one rule, _latent_dims, for `plan` and `sample` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .tensor import Rect

PRIOR_TARGET_AREA = 480 * 832  # fixed thumbnail pixel budget
SNAP_MULTIPLE = 16
DEFAULT_COMPRESSION = 8  # pixels per latent cell


def snap_dim(x: int) -> int:
    """Snap a pixel dimension down to a multiple of 16 (never below 16)."""
    if x < 1:
        raise ArgumentError(f"dimension must be positive, got {x}")
    return max(SNAP_MULTIPLE, (x // SNAP_MULTIPLE) * SNAP_MULTIPLE)


def prior_resolution(h: int, w: int) -> tuple[int, int]:
    """Aspect-preserving pixel resolution of the thumbnail prior pass.

    Both dimensions target a fixed area, then snap down to multiples of 16.
    """
    if h < 1 or w < 1:
        raise ArgumentError(f"dimensions must be positive, got {h}x{w}")
    ph = math.floor(math.sqrt(PRIOR_TARGET_AREA * h / w) + 0.5)
    pw = math.floor(math.sqrt(PRIOR_TARGET_AREA * w / h) + 0.5)
    return snap_dim(ph), snap_dim(pw)


@dataclass(frozen=True)
class TilePlan:
    """Distinct tile rectangles in row-major order, covering a latent canvas."""

    tiles: tuple[Rect, ...]
    canvas_h: int
    canvas_w: int
    window_h: int
    window_w: int
    stride_h: int
    stride_w: int
    _coverage: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        counts = np.zeros((self.canvas_h, self.canvas_w), dtype=np.int32)
        for r in self.tiles:
            r.validate_within(self.canvas_h, self.canvas_w)
            counts[r.row_slice, r.col_slice] += 1
        object.__setattr__(self, "_coverage", counts)

    def coverage_counts(self) -> np.ndarray:
        """Per-cell tile membership count, shape (H, W)."""
        return self._coverage.copy()

    @property
    def min_coverage(self) -> int:
        return int(self._coverage.min())


def _axis_positions(canvas: int, window: int, stride: int) -> list[int]:
    if window >= canvas:
        return [0]
    last = canvas - window
    positions = list(range(0, last + 1, stride))
    if positions[-1] != last:
        positions.append(last)
    return positions


def _build_plan(canvas_h, canvas_w, window_h, window_w, stride_h, stride_w) -> TilePlan:
    eff_h = min(window_h, canvas_h)
    eff_w = min(window_w, canvas_w)
    tiles = []
    for row in _axis_positions(canvas_h, eff_h, stride_h):
        for col in _axis_positions(canvas_w, eff_w, stride_w):
            tiles.append(Rect(row, col, eff_h, eff_w))
    return TilePlan(
        tiles=tuple(tiles),
        canvas_h=canvas_h,
        canvas_w=canvas_w,
        window_h=eff_h,
        window_w=eff_w,
        stride_h=stride_h,
        stride_w=stride_w,
    )


def plan_tiles(
    canvas_h: int,
    canvas_w: int,
    window_h: int,
    window_w: int,
    overlap_fraction: float,
) -> TilePlan:
    """Row-major tile grid with flush-edge completion, in latent cells.

    Strides are floor(window * (1 - overlap)), clamped to at least one cell.
    A window larger than the canvas degrades to a single clipped tile.
    """
    if not 0.0 <= overlap_fraction < 1.0:
        raise ArgumentError(f"overlap fraction must be in [0, 1), got {overlap_fraction}")
    if min(canvas_h, canvas_w, window_h, window_w) < 1:
        raise ArgumentError("canvas and window dims must be positive")
    stride_h = max(1, math.floor(window_h * (1.0 - overlap_fraction)))
    stride_w = max(1, math.floor(window_w * (1.0 - overlap_fraction)))
    return _build_plan(canvas_h, canvas_w, window_h, window_w, stride_h, stride_w)


def _latent_dims(pixels, factor: int, snap: bool = False) -> tuple[int, ...]:
    """Latent cells of pixel dimensions: floor division by factor, never
    below one cell. A canvas (snap=True) first snaps down to a multiple of
    16; a window does not. `plan` and `sample` size their grids by this."""
    if factor < 1:
        raise ArgumentError(f"compression factor must be >= 1, got {factor}")
    return tuple(max(1, (snap_dim(p) if snap else p) // factor) for p in pixels)


def plan_tiles_pixels(
    canvas_h_px: int,
    canvas_w_px: int,
    window_h_px: int,
    window_w_px: int,
    overlap_fraction: float,
    compression: int = DEFAULT_COMPRESSION,
) -> TilePlan:
    """Plan in latent cells from pixel geometry, converted by _latent_dims."""
    canvas = _latent_dims((canvas_h_px, canvas_w_px), compression, snap=True)
    window = _latent_dims((window_h_px, window_w_px), compression)
    return plan_tiles(*canvas, *window, overlap_fraction)
