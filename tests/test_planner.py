import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilefuse import plan_tiles, plan_tiles_pixels, prior_resolution, snap_dim
from tilefuse.config import apply_overrides, default_config, resolve_settings
from tilefuse.errors import ArgumentError
from tilefuse.planner import TilePlan


class TestSnapDim:
    @pytest.mark.parametrize(
        "x,expected",
        [(3500, 3488), (16, 16), (7, 16), (17, 16), (32, 32), (1, 16), (4096, 4096)],
    )
    def test_values(self, x, expected):
        assert snap_dim(x) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ArgumentError):
            snap_dim(0)


class TestPriorResolution:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_native_aspect_is_fixed_point(self, k):
        assert prior_resolution(480 * k, 832 * k) == (480, 832)

    def test_square_input(self):
        # sqrt(399360) = 631.95 -> 632 -> snapped 624
        assert prior_resolution(1000, 1000) == (624, 624)

    def test_uhd_input(self):
        h, w = prior_resolution(2160, 3840)
        assert h % 16 == 0 and w % 16 == 0
        assert h * w <= 480 * 832 + 16 * max(h, w)
        # formula evaluated by hand: round(sqrt(399360*2160/3840)) = 474 -> 464,
        # round(sqrt(399360*3840/2160)) = 843 -> 832
        assert (h, w) == (464, 832)

    def test_extreme_aspect_floors_at_16(self):
        h, w = prior_resolution(1, 10000)
        assert h == 16 and w % 16 == 0


class TestPlanTiles:
    def test_single_tile_when_window_equals_canvas(self):
        plan = plan_tiles(60, 104, 60, 104, 0.3)
        assert len(plan.tiles) == 1
        assert plan.tiles[0].row == 0 and plan.tiles[0].col == 0

    def test_strides_match_overlap(self):
        plan = plan_tiles(272, 480, 60, 104, 0.3)
        assert (plan.stride_h, plan.stride_w) == (42, 72)

    def test_flush_edge_completion(self):
        plan = plan_tiles(128, 128, 60, 104, 0.3)
        rows = sorted({r.row for r in plan.tiles})
        cols = sorted({r.col for r in plan.tiles})
        assert rows == [0, 42, 68]
        assert cols == [0, 24]
        assert plan.min_coverage >= 1

    @pytest.mark.parametrize("canvas, window, overlap", [
        ((128, 128), (60, 104), 0.3),
        ((137, 251), (40, 56), 0.5),  # flush-edge tiles on both axes
        ((45, 77), (45, 77), 0.3),  # one tile, window = canvas
        ((30, 40), (60, 104), 0.3),  # one clipped tile
        ((9, 13), (2, 3), 0.0),  # strides that tile exactly, count 1 everywhere
    ])
    def test_coverage_oracle(self, canvas, window, overlap):
        plan = plan_tiles(*canvas, *window, overlap)
        counts = np.zeros(canvas, dtype=int)
        for r in plan.tiles:
            for i in range(r.row, r.row + r.height):
                counts[i, r.col : r.col + r.width] += 1
        assert np.array_equal(counts, plan.coverage_counts())
        assert counts.min() >= 1
        assert plan.min_coverage == counts.min()

    def test_a_plan_holds_no_canvas_sized_array(self):
        tracemalloc.start()
        try:
            plan = plan_tiles(4000, 4000, 4000, 4000, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(plan.tiles) == 1 and plan.min_coverage == 1
        assert peak < 2**20  # a 4000x4000 int32 count array is 61.0 MiB

    def test_tiles_off_the_grid_of_their_tops_and_lefts_are_rejected(self):
        plan = plan_tiles(128, 128, 60, 104, 0.3)
        fields = dict(canvas_h=128, canvas_w=128, window_h=60, window_w=104,
                      stride_h=42, stride_w=72)
        for tiles in (plan.tiles[:-1], plan.tiles[::-1], (*plan.tiles, plan.tiles[0])):
            with pytest.raises(ArgumentError):
                TilePlan(tiles=tiles, **fields)
        assert TilePlan(tiles=plan.tiles, **fields) == plan

    def test_oversized_window_clips(self):
        plan = plan_tiles(30, 40, 60, 104, 0.3)
        assert len(plan.tiles) == 1
        r = plan.tiles[0]
        assert (r.height, r.width) == (30, 40)

    def test_deterministic(self):
        a = plan_tiles(200, 300, 60, 104, 0.3)
        b = plan_tiles(200, 300, 60, 104, 0.3)
        assert a.tiles == b.tiles

    def test_row_major_order(self):
        plan = plan_tiles(128, 128, 60, 104, 0.3)
        keys = [(r.row, r.col) for r in plan.tiles]
        assert keys == sorted(keys)

    def test_bad_overlap(self):
        with pytest.raises(ArgumentError):
            plan_tiles(64, 64, 32, 32, 1.0)

    def test_random_canvases_always_covered(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ch = int(rng.integers(4, 200))
            cw = int(rng.integers(4, 200))
            wh = int(rng.integers(2, 80))
            ww = int(rng.integers(2, 80))
            ov = float(rng.uniform(0.0, 0.9))
            plan = plan_tiles(ch, cw, wh, ww, ov)
            assert plan.min_coverage >= 1
            for r in plan.tiles:
                assert r.row + r.height <= ch
                assert r.col + r.width <= cw


class TestPlanTilesPixels:
    def test_reference_pixel_geometry(self):
        plan = plan_tiles_pixels(2176, 3840, 480, 832, 0.3, compression=8)
        assert (plan.window_h, plan.window_w) == (60, 104)
        assert (plan.stride_h, plan.stride_w) == (42, 72)
        assert (plan.canvas_h, plan.canvas_w) == (272, 480)
        assert plan.min_coverage >= 1

    def test_matches_latent_route_on_default_geometry(self):
        a = plan_tiles_pixels(1024, 1024, 480, 832, 0.3, compression=8)
        b = plan_tiles(128, 128, 60, 104, 0.3)
        assert a.tiles == b.tiles


OVERLAPS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9])


@given(
    canvas=st.tuples(st.integers(1, 80), st.integers(1, 80)),
    window=st.tuples(st.integers(1, 90), st.integers(1, 90)),
    overlap=OVERLAPS,
)
def test_plan_properties(canvas, window, overlap):
    """Full coverage, row-major order with non-decreasing tops (the
    streamed step relies on it), distinct rects, a flush last row and
    column, and one tile size."""
    plan = plan_tiles(*canvas, *window, overlap)
    covered = np.zeros(canvas, dtype=bool)
    for r in plan.tiles:
        covered[r.row_slice, r.col_slice] = True
    assert covered.all()
    corners = [(r.row, r.col) for r in plan.tiles]
    assert corners == sorted(corners)
    assert len(set(plan.tiles)) == len(plan.tiles)
    last = plan.tiles[-1]
    assert (last.row + last.height, last.col + last.width) == canvas
    assert {(r.height, r.width) for r in plan.tiles} == {(plan.window_h, plan.window_w)}
    assert (plan.window_h, plan.window_w) == tuple(map(min, window, canvas))


@settings(max_examples=40, deadline=None)
@given(
    canvas=st.tuples(st.integers(1, 700), st.integers(1, 700)),
    window=st.tuples(st.integers(1, 900), st.integers(1, 900)),
    overlap=OVERLAPS,
    factor=st.integers(4, 16),
)
def test_pixel_plan_is_the_plan_sample_runs(canvas, window, overlap, factor):
    cfg = apply_overrides(default_config(), [
        f"canvas.pixel_height={canvas[0]}", f"canvas.pixel_width={canvas[1]}",
        f"tiles.pixel_window_height={window[0]}", f"tiles.pixel_window_width={window[1]}",
        f"tiles.overlap={overlap}", f"canvas.factor={factor}",
    ])
    expected = plan_tiles_pixels(*canvas, *window, overlap, compression=factor)
    assert resolve_settings(cfg).tiled.plan().tiles == expected.tiles
