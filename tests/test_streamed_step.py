"""The streamed row-band step against the whole-canvas composition.

A run adopts the noise canvas it is handed as its latent, updates each
finished band of it in place and keeps a rolling numerator; these tests pin
that it computes exactly the plain whole-canvas step, that a bare step
never writes to its argument, that runs on one sampler from several
threads do not share state, that denoisers get only read-only tiles, and
that memory beyond the latent does not grow with the canvas height. The
band kernel is pinned on its own against the public closed forms it stands
in for.
"""

import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tilefuse.sampler as sampler_module
from tilefuse import (
    FusionAccumulator,
    PriorScheduleConfig,
    SamplerConfig,
    TargetDriver,
    TiledSampler,
    fuse_fd_flow,
    fuse_md,
)
from tilefuse.errors import DenoiseError
from tilefuse.sampler import euler_update, expand_prior, make_noise, trace_prior_mse

from test_sampler import reference_step

MODES = ("md", "fd", "fd_regional")


@st.composite
def streamed_cases(draw):
    """A small random sampler: canvas, window, overlap, ramp, mode, workers,
    a seed for its target, prior, activity map and initial noise, whether
    that noise is handed to run read-only, and the prior's rows and columns
    if it is a thumbnail within the canvas (None: canvas-shaped)."""
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 12))
    return dict(
        prior_hw=draw(st.none() | st.tuples(st.integers(1, h), st.integers(1, w))),
        shape=(draw(st.integers(1, 2)), draw(st.integers(1, 2)), h, w),
        window=(draw(st.integers(1, h + 3)), draw(st.integers(1, w + 3))),
        overlap=draw(st.sampled_from([0.0, 0.3, 0.5, 0.75])),
        ramp=draw(st.integers(0, 3)),
        mode=draw(st.sampled_from(MODES)),
        workers=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        read_only=draw(st.booleans()),
    )


def build(case):
    """(sampler, initial noise) for one case."""
    rng = np.random.default_rng(case["seed"])
    shape = case["shape"]
    target = rng.standard_normal(shape).astype(np.float32)
    prior_hw = case.get("prior_hw") or shape[2:]
    prior = rng.standard_normal((*shape[:2], *prior_hw)).astype(np.float32)
    if case["mode"] == "fd":
        prior_cfg = PriorScheduleConfig(lambda_base=1.5, mode="constant")
    elif case["mode"] == "fd_regional":
        prior_cfg = PriorScheduleConfig(
            lambda_base=1.5, mode="regional", tau_active=0.2, tau_background=0.6,
            activity_map=rng.integers(0, 2, shape[2:]).astype(bool),
        )
    else:
        prior_cfg = PriorScheduleConfig()
    cfg = SamplerConfig(
        canvas_shape=shape, steps=3, prior=prior_cfg,
        window_h=case["window"][0], window_w=case["window"][1],
        overlap=case["overlap"], ramp=case["ramp"], workers=case["workers"],
    )
    noise = rng.standard_normal(shape).astype(np.float32)
    return TiledSampler(cfg, TargetDriver(target), prior), noise


def assert_close_or_none(value, ref):
    if ref is None:
        assert value is None
    else:
        assert value == pytest.approx(ref, rel=1e-12)


FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FAST
@given(streamed_cases())
def test_run_equals_composition_of_whole_canvas_steps(case):
    sampler, noise = build(case)
    assert sampler.prior.shape[2:] == (case["prior_hw"] or case["shape"][2:])  # held as is
    handed = noise.copy()
    handed.flags.writeable = not case["read_only"]
    x, trace = sampler.run(initial_noise=handed)
    if case["read_only"]:  # copied once and left as it is
        assert x is not handed and handed.tobytes() == noise.tobytes()
    else:  # adopted: the run's latent is the canvas it was handed
        assert x is handed

    ref = noise
    for i, record in enumerate(trace.records):
        ref, fg, bg = reference_step(sampler, ref, i)
        assert_close_or_none(record.fg_mse, fg)
        assert_close_or_none(record.bg_mse, bg)
    assert x.tobytes() == ref.tobytes()


def test_concurrent_runs_on_one_sampler_match_serial_runs():
    """Two threads running one sampler at once each get their own pool,
    ring, scratch and latent: each result equals its serial run."""
    cfg = SamplerConfig(
        canvas_shape=(2, 2, 40, 16), steps=3, window_h=8,
        window_w=8, overlap=0.3, workers=2,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(17)
    target = TargetDriver(rng.standard_normal(cfg.canvas_shape).astype(np.float32))

    def denoiser(req):
        time.sleep(0.002)
        return target(req)

    sampler = TiledSampler(cfg, denoiser, rng.standard_normal(cfg.canvas_shape).astype(np.float32))
    noises = [make_noise(cfg.canvas_shape, seed) for seed in (1, 2)]
    serial = [sampler.run(initial_noise=n.copy())[0].tobytes() for n in noises]
    start = threading.Barrier(2, timeout=30)

    def concurrent(noise):
        start.wait()
        return sampler.run(initial_noise=noise.copy())[0].tobytes()

    threads = threading.active_count()
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(concurrent, noises, timeout=60))
    assert results == serial
    assert threading.active_count() == threads


@FAST
@given(streamed_cases(), st.integers(0, 2))
def test_step_never_writes_to_its_argument(case, i):
    sampler, x = build(case)
    kept = x.copy()
    x_next, _ = sampler.step(x, i)
    assert x.tobytes() == kept.tobytes()
    assert x_next is not x
    ref, _, _ = reference_step(sampler, kept, i)
    assert x_next.tobytes() == ref.tobytes()


def test_more_threads_than_cores_match_one_thread():
    """Bands are updated on channel lanes while the pool predicts later
    tiles; with frequent thread switches and more threads than cores, the
    latent must still equal a one-thread run byte for byte, and so must the
    trace, whose sums each lane adds for its own channels."""
    case = dict(
        shape=(3, 2, 64, 20), window=(6, 8), overlap=0.5, ramp=2,
        mode="fd_regional", seed=3,
    )
    one, noise = build(dict(case, workers=1))
    expected, expected_trace = one.run(initial_noise=noise.copy())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            many, _ = build(dict(case, workers=6))
            x, trace = many.run(initial_noise=noise.copy())
            assert x.tobytes() == expected.tobytes()
            assert trace.to_tsv() == expected_trace.to_tsv()
    finally:
        sys.setswitchinterval(interval)


def test_failure_after_bands_were_handed_out_stops_every_task(monkeypatch):
    """A tile that fails in a later tile row leaves the step only after the
    band updates already on the pool have finished: none runs afterwards."""
    cfg = SamplerConfig(
        canvas_shape=(2, 1, 40, 16), steps=2, window_h=8,
        window_w=8, overlap=0.0, workers=2,
    )
    plan = cfg.plan()
    bad = plan.tiles.index(next(r for r in plan.tiles if r.row == 24))
    updates = []
    kernel = sampler_module._band_update

    def slow_kernel(*args, **kwargs):
        time.sleep(0.02)
        updates.append(1)
        return kernel(*args, **kwargs)

    def denoiser(req):
        if plan.tiles.index(req.rect) == bad:
            raise RuntimeError("backbone crashed")
        return np.zeros_like(req.tile)

    monkeypatch.setattr(sampler_module, "_band_update", slow_kernel)
    threads = threading.active_count()
    with pytest.raises(DenoiseError, match=f"tile {bad} "):
        TiledSampler(cfg, denoiser).run()
    assert threading.active_count() == threads
    assert updates  # the bands above row 24 were handed to the pool
    settled = len(updates)
    time.sleep(0.1)
    assert len(updates) == settled


def test_each_pool_thread_makes_its_kernel_buffers_once_per_run(monkeypatch):
    """Band pieces differ in height (the last band, pieces where the ring
    wraps), but each lane makes its kernel buffers once per run, at the
    sizes that cover every piece."""
    cfg = SamplerConfig(
        canvas_shape=(2, 3, 50, 24), steps=3, window_h=8,
        window_w=8, overlap=0.3, workers=2,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(9)
    sampler = TiledSampler(
        cfg, TargetDriver(rng.standard_normal(cfg.canvas_shape).astype(np.float32)),
        rng.standard_normal(cfg.canvas_shape).astype(np.float32),
    )
    made = []
    kernel_buffers = sampler_module._kernel_buffers

    def record(*sizes):
        made.append((threading.current_thread().name, sizes))
        return kernel_buffers(*sizes)

    monkeypatch.setattr(sampler_module, "_kernel_buffers", record)
    for _ in range(2):
        made.clear()
        sampler.run()
        threads = [name for name, *_ in made]
        assert 1 <= len(threads) <= cfg.workers
        assert len(set(threads)) == len(threads)
        assert {sizes for _, sizes in made} == {sampler._scratch_sizes()}


@pytest.mark.parametrize(
    "shape, window_h",
    [((2, 3, 50, 24), 8), ((1, 2, 5, 16), 8), ((1, 1, 12, 16), 12)],
    ids=["tall", "shorter-than-the-window", "one-tile-row"],
)
def test_run_holds_a_ring_of_one_tile_row(monkeypatch, shape, window_h):
    """The numerator ring a run allocates is min(H, window_h) rows: one
    tile row, not a tile row plus a stride."""
    cfg = SamplerConfig(
        canvas_shape=shape, steps=2, window_h=window_h, window_w=8,
        overlap=0.5, workers=2,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(4)
    sampler = TiledSampler(
        cfg, TargetDriver(rng.standard_normal(shape).astype(np.float32)),
        rng.standard_normal(shape).astype(np.float32),
    )
    rings, run_state = [], sampler_module._RunState

    def record(*args, **kwargs):
        state = run_state(*args, **kwargs)
        rings.append((state.ring.shape, state.ring.dtype))
        return state

    monkeypatch.setattr(sampler_module, "_RunState", record)
    sampler.run()
    c, t, h, w = shape
    assert rings == [((c, t, min(h, window_h), w), np.float64)]


def test_run_memory_holds_one_tile_row_of_numerator():
    """On a wide canvas with a short window, the ring dominates what a run
    allocates beyond its latent: the traced peak is the run's fixed buffers
    (one thread's kernel scratch and the tile channel buffer) plus at least
    window_h float64 canvas rows, the ring, and less than window_h +
    stride_h rows, what a ring of a tile row and a stride would take."""
    shape, window_h = (4, 8, 24, 4096), 8
    cfg = SamplerConfig(
        canvas_shape=shape, steps=2, window_h=window_h, window_w=256,
        overlap=0.5, workers=1,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(8)
    pred = rng.standard_normal((4, 8, window_h, 256)).astype(np.float32)
    thumbnail = rng.standard_normal((4, 2, 6, 512)).astype(np.float32)
    sampler = TiledSampler(cfg, lambda req: pred, thumbnail)
    noise = make_noise(shape, 3)
    n, cells, src, wide = sampler._scratch_sizes()
    fixed = 44 * n + 16 * cells + 8 * src + 20 * wide + 8 * shape[1] * window_h * 256
    row = 8 * shape[0] * shape[1] * shape[3]  # one float64 canvas row of all frames

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x, _ = sampler.run(initial_noise=noise)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x is noise
    assert fixed + window_h * row <= peak < fixed + (window_h + cfg.plan().stride_h) * row


def test_run_memory_does_not_grow_with_height():
    """On a tall canvas the run's peak beyond the latent it is handed is the
    ring of window_h numerator rows plus a few tiles in flight, which do not
    grow with the height; a whole-canvas float64 numerator alone would be
    2x the canvas bytes, and a second latent 1x."""
    shape = (2, 2, 1920, 32)
    cfg = SamplerConfig(
        canvas_shape=shape, steps=2, window_h=16, window_w=32,
        overlap=0.3, workers=2,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(5)
    sampler = TiledSampler(
        cfg, TargetDriver(rng.standard_normal(shape).astype(np.float32)),
        rng.standard_normal(shape).astype(np.float32),
    )
    noise = rng.standard_normal(shape).astype(np.float32)
    canvas_bytes = noise.nbytes

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x, _ = sampler.run(initial_noise=noise)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x is noise
    assert peak < 0.5 * canvas_bytes


def test_run_memory_with_a_thumbnail_prior_does_not_grow_with_height():
    """A prior handed at thumbnail height is held at that height: the run's
    peak beyond the latent stays below half a canvas, and no array the
    sampler holds, bar the latent, is as large as the canvas."""
    shape = (2, 2, 1920, 32)
    cfg = SamplerConfig(
        canvas_shape=shape, steps=2, window_h=16, window_w=32,
        overlap=0.3, workers=2,
        prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
    )
    rng = np.random.default_rng(6)
    thumbnail = rng.standard_normal((2, 1, 240, 8)).astype(np.float32)
    sampler = TiledSampler(
        cfg, TargetDriver(rng.standard_normal(shape).astype(np.float32)), thumbnail,
    )
    noise = rng.standard_normal(shape).astype(np.float32)
    canvas_bytes = noise.nbytes

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x, _ = sampler.run(initial_noise=noise)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x is noise
    assert peak < 0.5 * canvas_bytes
    assert sampler.prior.shape == (2, 2, 240, 32)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    held = [a for v in vars(sampler).values() for a in arrays(v)]
    held += [a for v in vars(cfg).values() for a in arrays(v)]
    assert held and max(a.nbytes for a in held) < canvas_bytes


@pytest.mark.parametrize(
    "mode, shape, window, prior_frames",
    [
        *[pytest.param(mode, (4, 32, 96, 128), (64, 64), 4, id=mode) for mode in MODES],
        # a band's blend tables (2 x 16 rows x 4096 float32) are twice a tile channel
        pytest.param("md", (1, 2, 64, 4096), (32, 1024), 4, id="md-wide-bands"),
        # a thumbnail with the canvas's frames is the source as it is, 16 columns
        # wide: each band blends its columns too
        *[
            pytest.param(mode, (4, 32, 96, 128), (64, 64), 32, id=f"{mode}-narrow-prior")
            for mode in ("fd", "fd_regional")
        ],
    ],
)
def test_steady_step_allocates_less_than_a_tile_channel(mode, shape, window, prior_frames):
    """Once the first step has made the run's buffers, a step makes no
    allocation as large as one float32 channel of a tile: the ring add
    casts each channel into the run's float64 buffer, a prediction's
    finiteness test is a sum, and a band reads its rows of the prior's
    blend tables as views. The denoiser hands back one array made before
    the run, so the traced peak of a step is the step's own: numpy's
    fixed-size ufunc buffers, the band planes and, in fd_regional, one
    float32 strength plane, well below a channel. The regional steps take
    a two-valued plane (step 1) and a plane of zeros (steps 2 and 3)."""
    c, t = shape[:2]
    rng = np.random.default_rng(9)
    pred = rng.standard_normal((c, t, *window)).astype(np.float32)
    prior = PriorScheduleConfig()
    if mode == "fd":
        prior = PriorScheduleConfig(lambda_base=1.5, mode="constant")
    elif mode == "fd_regional":
        prior = PriorScheduleConfig(
            lambda_base=1.5, mode="regional", tau_active=0.2, tau_background=0.5,
            activity_map=rng.integers(0, 2, shape[2:]).astype(bool),
        )
    cfg = SamplerConfig(
        canvas_shape=shape, steps=4, window_h=window[0], window_w=window[1],
        overlap=0.5, workers=1, prior=prior,
    )
    thumbnail = rng.standard_normal((c, prior_frames, 12, 16)).astype(np.float32)
    sampler = TiledSampler(cfg, lambda req: pred, thumbnail)
    assert (sampler.prior is thumbnail) == (prior_frames == t)
    step, peaks = sampler.step, []

    def traced_step(x, i):
        if i == 0:
            return step(x, i)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = step(x, i)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    sampler.step = traced_step
    tracemalloc.start()
    try:
        sampler.run(initial_noise=make_noise(shape, 0))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3 and max(peaks) < pred[0].nbytes


@pytest.mark.parametrize(
    "mode, workers, prior_frames",
    [pytest.param(m, n, 3, id=f"{m}-{n}") for m in MODES for n in (1, 2, 3)]
    + [pytest.param(m, n, 2, id=f"{m}-{n}-other-frames") for m in MODES for n in (1, 3)],
)
def test_narrow_prior_over_a_flush_band_matches_the_composition(mode, workers, prior_frames):
    """A thumbnail prior narrower and shorter than the canvas is held as it
    is (one of other frames, such as a prior.latent file, is resized to the
    canvas's frames and width, and then blended with column weights of 1
    and 0), and the run's latent equals, bit for bit, the whole-canvas
    composition on expand_prior's canvas of the sampler's prior source,
    here on a plan whose last tile row is flush with the bottom edge, two
    rows below the one above it, so that a band of two rows is blended,
    and whose bands wrap the ring of one tile row."""
    shape = (2, 3, 22, 20)
    rng = np.random.default_rng(31)
    schedule = {
        "md": {},
        "fd": dict(lambda_base=1.5, mode="constant"),
        "fd_regional": dict(
            lambda_base=1.5, mode="regional", tau_active=0.2, tau_background=0.6,
            activity_map=rng.integers(0, 2, shape[2:]).astype(bool),
        ),
    }[mode]
    cfg = SamplerConfig(
        canvas_shape=shape, steps=3, window_h=8, window_w=8, overlap=0.25,
        ramp=2, workers=workers, prior=PriorScheduleConfig(**schedule),
    )
    tops = sorted({r.row for r in cfg.plan().tiles})
    assert tops == [0, 6, 12, 14]  # bands [12, 14) of two rows and [6, 12), which wraps
    target, noise = (rng.standard_normal(shape).astype(np.float32) for _ in range(2))
    thumbnail = rng.standard_normal((2, prior_frames, 5, 7)).astype(np.float32)
    sampler = TiledSampler(cfg, TargetDriver(target), thumbnail)
    if prior_frames == 3:
        assert sampler.prior is thumbnail
    else:
        assert sampler.prior.shape == (2, 3, 5, 20)
    x, trace = sampler.run(initial_noise=noise.copy())

    ref = noise
    for i, record in enumerate(trace.records):
        ref, fg, bg = reference_step(sampler, ref, i)
        assert_close_or_none(record.fg_mse, fg)
        assert_close_or_none(record.bg_mse, bg)
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "mode, prior_rows",
    [
        pytest.param(mode, rows, id=mode + tag)
        for rows, tag in ((20, ""), (7, "-canvas-width"))
        for mode in ("fd", "fd_regional")
    ],
)
def test_canvas_height_prior_with_signed_zeros_matches_the_composition(mode, prior_rows):
    """A prior at canvas size, or at canvas width and fewer rows, goes
    through the band kernel's column and row blends, whose weights at the
    canvas's width and height are 1 and 0: a -0.0 cell may come out of them
    as +0.0, but the numerator sum starts at +0.0, so the latent gets the
    bits of the whole-canvas composition on expand_prior's prior, here
    where latent, target and prior hold +0.0 and -0.0 cells at the same
    places and in their last rows (whose near weight is 0)."""
    shape, prior_shape = (2, 3, 20, 12), (2, 3, prior_rows, 12)
    rng = np.random.default_rng(21)
    target, prior, noise = (
        rng.standard_normal(s).astype(np.float32) for s in (shape, prior_shape, shape)
    )
    signs = rng.integers(0, 2, shape).astype(bool)
    for a in (target, prior, noise):
        zeros = np.zeros(a.shape, bool)
        zeros[:, :, ::3, ::2] = zeros[:, :, -1] = True
        a[zeros] = np.where(signs[:, :, : a.shape[2]], -0.0, 0.0)[zeros]
        signs = ~signs  # prior and latent zeros of both sign pairs
        if a is prior:
            assert np.signbit(a[zeros]).any() and not np.signbit(a[zeros]).all()
    activity = rng.integers(0, 2, shape[2:]).astype(bool)
    schedule = dict(lambda_base=1.5, mode="constant")
    if mode == "fd_regional":
        schedule = dict(
            lambda_base=1.5, mode="regional", tau_active=0.2, tau_background=0.6,
            activity_map=activity,
        )
    cfg = SamplerConfig(
        canvas_shape=shape, steps=3, window_h=8, window_w=8,
        overlap=0.5, ramp=2, workers=2, prior=PriorScheduleConfig(**schedule),
    )
    sampler = TiledSampler(cfg, TargetDriver(target), prior)
    assert sampler.prior is prior  # held as it is, blended per band
    x, trace = sampler.run(initial_noise=noise.copy())

    ref = noise
    for i, record in enumerate(trace.records):
        ref, fg, bg = reference_step(sampler, ref, i)
        assert_close_or_none(record.fg_mse, fg)
        assert_close_or_none(record.bg_mse, bg)
    assert x.tobytes() == ref.tobytes()
    assert np.signbit(x[zeros]).any()


@pytest.mark.parametrize("workers", [1, 2])
def test_regional_strength_of_one_value_matches_the_global_runs(workers):
    """A regional strength plane of one value takes the scalar path, with
    the same bits as the plane: with both gates at one tau, fd_regional's
    latent equals fd's at that tau, and at lambda_base = 0 it equals md's.
    The gate is open at step 0 alone, where the strength is lambda_base,
    exact in float32 (the plane's dtype)."""
    shape = (2, 3, 20, 12)
    rng = np.random.default_rng(12)
    target, prior, noise = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    activity = rng.integers(0, 2, shape[2:]).astype(bool)

    def latent(**schedule):
        cfg = SamplerConfig(
            canvas_shape=shape, steps=3, window_h=8, window_w=8,
            overlap=0.5, workers=workers, prior=PriorScheduleConfig(**schedule),
        )
        x, _ = TiledSampler(cfg, TargetDriver(target), prior).run(noise.copy())
        return x.tobytes()

    regional = dict(mode="regional", activity_map=activity, tau_active=0.2, tau_background=0.2)
    assert latent(lambda_base=1.5, **regional) == latent(
        lambda_base=1.5, mode="gated_cosine", tau=0.2
    )
    assert latent(lambda_base=0.0, **regional) == latent()
    assert latent(lambda_base=1.5, **regional) != latent()


@st.composite
def band_cases(draw):
    """One band channel for the kernel: its frames, rows and width, where
    its rows start in a ring (the band may wrap), a frame-group budget that
    need not divide the frame count, a strength (zero, scalar or plane), an
    activity mask (none, empty, full or mixed), and the height and width of
    the source the prior is blended from (rows or w: weights of 1 and 0)."""
    t, rows, w = draw(st.integers(1, 7)), draw(st.integers(1, 9)), draw(st.integers(1, 6))
    size = draw(st.integers(rows, rows + 6))
    return dict(
        t=t, rows=rows, w=w, size=size,
        h0=draw(st.integers(1, rows)),
        w0=draw(st.integers(1, w)),
        top=draw(st.integers(0, 3 * size)),
        budget=draw(st.integers(1, t * rows * w + 3)),
        strength=draw(st.sampled_from(["zero", "scalar", "plane"])),
        mask=draw(st.sampled_from([None, "empty", "full", "mixed"])),
        sigma=draw(st.floats(0.05, 1.0)),
        fall=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(band_cases())
def test_band_kernel_equals_the_public_composition(case):
    """The kernel, run over a band's ring pieces, gives the latent of
    fuse_md / fuse_fd_flow, then trace_prior_mse, then euler_update, bit for
    bit, and the trace sums their means to rel 1e-12. The kernel is called
    as a step calls it: per piece, on the source rows its row table reads,
    which it blends to the canvas's columns (by identity tables when the
    source is as wide) and the piece's rows; the composition takes
    expand_prior's float32
    prior. The kernel zeroes the ring rows it read and no others."""
    rng = np.random.default_rng(case["seed"])
    t, rows, w, size, top = case["t"], case["rows"], case["w"], case["size"], case["top"]
    sigma = case["sigma"]
    dsigma = -case["fall"] * sigma
    x = rng.standard_normal((t, rows, w)).astype(np.float32)
    h0, w0 = case["h0"], case["w0"]
    source = rng.standard_normal((t, h0, w0)).astype(np.float32)
    prior, blend = expand_prior(source, rows, w), sampler_module._row_tables(h0, rows, w)
    columns = sampler_module._column_tables(w0, w)
    ring = rng.standard_normal((t, size, w))
    den = rng.uniform(0.1, 3.0, (rows, w))
    lam = {
        "zero": 0.0,
        "scalar": 1.5,
        "plane": rng.uniform(0.0, 2.0, (rows, w)).astype(np.float32),
    }[case["strength"]]
    activity = None
    if case["mask"] is not None:
        activity = {
            "empty": np.zeros((rows, w), bool),
            "full": np.ones((rows, w), bool),
            "mixed": rng.integers(0, 2, (rows, w)).astype(bool),
        }[case["mask"]]

    pieces = sampler_module._ring_slices(top, top + rows, size)
    num = np.concatenate([ring[:, ring_rows] for _, ring_rows in pieces], axis=1)
    acc = FusionAccumulator(num=num[None], den=den)
    if case["strength"] == "zero":
        y = fuse_md(acc)
    else:
        y = fuse_fd_flow(acc, x[None], prior[None], lam, sigma)
    fg, bg = trace_prior_mse(x[None], sigma, y, prior[None], activity)
    want = euler_update(x[None], y, dsigma)[0]

    got, before = x.copy(), ring.copy()
    sums = np.zeros(2)
    # sizes that cover every piece: a group reads at most every frame and source row
    scratch = sampler_module._KernelScratch((t * rows * w, rows * w, t * h0 * w0, t * h0 * w))
    for canvas_rows, ring_rows in pieces:
        band = slice(canvas_rows.start - top, canvas_rows.stop - top)
        if case["strength"] == "zero":
            den_b, slam = den[band], None
        else:
            lam_b = np.asarray(lam[band] if np.ndim(lam) else lam, dtype=np.float64)
            den_b, slam = sigma**2 * lam_b + den[band], sigma * lam_b
        masks = None
        if activity is not None:
            masks = (activity[band].astype(np.float64), (~activity[band]).astype(np.float64))
        index, weight = (table[:, band] for table in blend)
        first, stop = index[0, 0], index[1, -1] + 1  # the source rows the piece reads
        sums += sampler_module._band_update(
            got[:, band], source[:, first:stop], (index - first, weight), columns,
            ring[:, ring_rows], den_b, slam, sigma, dsigma, masks, scratch, budget=case["budget"],
        )
    assert got.tobytes() == want.tobytes()
    read = np.zeros(size, bool)
    for _, ring_rows in pieces:
        read[ring_rows] = True
    assert not ring[:, read].any()
    assert ring[:, ~read].tobytes() == before[:, ~read].tobytes()

    n_fg = got.size if activity is None else t * np.count_nonzero(activity)
    for total, cells, ref in ((sums[0], n_fg, fg), (sums[1], got.size - n_fg, bg)):
        if ref is None:
            assert cells == 0 and total == 0.0
        else:
            assert total / cells == pytest.approx(ref, rel=1e-12)


def test_denoiser_cannot_write_the_latent_through_its_tile():
    """An in-process denoiser gets a read-only view of the run's latent:
    a write into it fails the run, and the latent keeps its bytes."""
    cfg = SamplerConfig(
        canvas_shape=(2, 2, 20, 16), steps=2, window_h=8,
        window_w=8, overlap=0.5, workers=2,
    )
    tiles = []

    def denoiser(req):
        tiles.append(req.tile)
        req.tile[...] = 0.0
        return np.zeros_like(req.tile)

    sampler = TiledSampler(cfg, denoiser)
    x = make_noise(cfg.canvas_shape, seed=3)
    kept = x.copy()
    with pytest.raises(DenoiseError, match="read-only"):
        sampler.run(initial_noise=x)  # adopted: the run's latent is x
    assert tiles and all(np.shares_memory(tile, x) for tile in tiles)
    assert x.tobytes() == kept.tobytes()


@st.composite
def gated_cases(draw):
    """A streamed case whose md, fd or fd_regional schedule has gates: a
    step past a gate takes strength 0 there, so a gate below t = 1 leaves
    some steps plain (at every cell, for both regional gates)."""
    case = draw(streamed_cases())
    case["taus"] = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return case


def gated(case, trace):
    """(sampler, initial noise) of a gated case, traced or not."""
    sampler, noise = build(case)
    prior = sampler.cfg.prior
    low, high = case["taus"]
    if case["mode"] == "fd":
        prior = PriorScheduleConfig(lambda_base=1.5, tau=high)
    elif case["mode"] == "fd_regional":
        prior = PriorScheduleConfig(
            lambda_base=1.5, mode="regional", tau_active=low, tau_background=high,
            activity_map=prior.activity_map,
        )
    cfg = sampler.cfg.with_prior(prior)
    return TiledSampler(cfg, sampler.denoiser, sampler.prior, trace=trace), noise


@FAST
@given(gated_cases())
def test_untraced_run_gives_the_traced_bits_and_skips_the_plain_blend(case):
    """An untraced run has the latent bytes of a traced one and returns no
    trace. Its plain steps never run the prior's column pass, which only
    the trace reads there, while a step with a nonzero strength does."""
    traced, noise = gated(case, trace=True)
    untraced, _ = gated(case, trace=False)
    x, trace = traced.run(noise.copy())
    y, none = untraced.run(noise.copy())
    assert none is None and len(trace.records) == 3
    assert y.tobytes() == x.tobytes()

    calls = []
    lerp = sampler_module._lerp

    def counting(*args, **kwargs):
        calls.append(1)
        return lerp(*args, **kwargs)

    x = noise
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler_module, "_lerp", counting)
        for i in range(untraced.schedule.steps):
            calls.clear()
            x, record = untraced.step(x, i)
            assert record is None
            plain = not np.any(untraced.cfg.prior.strength_at(untraced.schedule.times[i]))
            assert bool(calls) != plain


@st.composite
def lane_cases(draw):
    """A gated case of 1 to 5 channels: workers 1 to 3 make 1 to 3 lanes,
    and the channel slices they split the canvas into may be uneven."""
    case = draw(gated_cases())
    case["shape"] = (draw(st.integers(1, 5)), *case["shape"][1:])
    return case


@FAST
@given(lane_cases())
def test_lanes_give_the_one_worker_bits(case):
    """Whatever the worker count, and so the number of channel lanes that
    add and merge, a run gives the latent bytes and the trace TSV of a run
    with one worker, over plans whose bands wrap the ring and whose last
    tile row or column is flush with the canvas edge."""
    sampler, noise = gated(case, trace=True)
    one, _ = gated(dict(case, workers=1), trace=True)
    x, trace = sampler.run(noise.copy())
    y, ref = one.run(noise.copy())
    assert x.tobytes() == y.tobytes()
    assert trace.to_tsv() == ref.to_tsv()


def test_lanes_alone_add_and_merge_their_channel_slices(monkeypatch):
    """The calling thread neither adds nor merges: min(workers, C) lanes
    do, each for a contiguous channel slice of its own, and every run
    gives the one-worker bits."""
    case = dict(shape=(5, 2, 40, 16), window=(8, 8), overlap=0.3, ramp=2, mode="fd", seed=7)
    seen = {"add": [], "merge": []}
    add, kernel = sampler_module.add_weighted_tile, sampler_module._band_update

    def recording_add(num, *args):
        seen["add"].append((threading.current_thread().name, num.shape[0]))
        return add(num, *args)

    def recording_kernel(*args, **kwargs):
        seen["merge"].append(threading.current_thread().name)
        return kernel(*args, **kwargs)

    one, noise = build(dict(case, workers=1))
    expected, _ = one.run(noise.copy())
    monkeypatch.setattr(sampler_module, "add_weighted_tile", recording_add)
    monkeypatch.setattr(sampler_module, "_band_update", recording_kernel)
    for workers, slices in ((2, [2, 3]), (3, [1, 2, 2]), (6, [1, 1, 1, 1, 1])):
        for calls in seen.values():
            calls.clear()
        many, _ = build(dict(case, workers=workers))
        x, _ = many.run(noise.copy())
        assert x.tobytes() == expected.tobytes()
        lanes = [f"tilefuse-lane-{k}_0" for k in range(len(slices))]
        assert dict(seen["add"]) == dict(zip(lanes, slices))
        assert set(seen["merge"]) == set(lanes)
        assert all(seen["merge"].count(lane) % n == 0 for lane, n in zip(lanes, slices))
