"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import sys
import time

import numpy as np
import pytest

from tilefuse import (
    FusionAccumulator,
    GaussianAnalytic,
    PriorScheduleConfig,
    Rect,
    SamplerConfig,
    TargetDriver,
    accumulate,
    fuse_fd_flow,
    fuse_md,
    plan_tiles,
    plan_tiles_pixels,
    prior_alignment,
    run,
    temporal_consistency,
    tenengrad,
    write_flt,
)
from tilefuse.cli import main as cli_main
from tilefuse.errors import MalformedFrameError, ShapeError
from tilefuse.metrics import area_downsample, seam_energy, sobel_gradients
from tilefuse.netpbm import write_pgm
from tilefuse.protocol import WorkerClient

from _oracles import (
    area_average_loop,
    minimize_fd_flow,
    sobel_loop,
)

ECHO_CMD = [sys.executable, "-m", "tilefuse.echo_worker"]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_covered_instance(rng):
    """Canvas <= 4x3x8x8 with 1-5 tiles that jointly cover it.

    Windows of at least two thirds of each canvas dim with small overlap
    give at most two grid positions per axis, so the covering plan has at
    most four tiles; an optional fifth random tile is layered on top.
    """
    c = int(rng.integers(1, 5))
    t = int(rng.integers(1, 4))
    h = int(rng.integers(4, 9))
    w = int(rng.integers(4, 9))
    shape = (c, t, h, w)
    wh = int(rng.integers(-(-2 * h // 3), h + 1))
    ww = int(rng.integers(-(-2 * w // 3), w + 1))
    plan = plan_tiles(h, w, wh, ww, float(rng.uniform(0.0, 0.25)))
    assert len(plan.tiles) <= 4 and plan.min_coverage >= 1
    tiles = []
    for r in plan.tiles:
        pred = rng.standard_normal((c, t, r.height, r.width)).astype(np.float32)
        wgt = rng.uniform(0.1, 1.0, (r.height, r.width)).astype(np.float32)
        tiles.append((pred, r, wgt))
    if len(tiles) < 5 and rng.random() < 0.5:
        th = int(rng.integers(1, h + 1))
        tw = int(rng.integers(1, w + 1))
        r = Rect(int(rng.integers(0, h - th + 1)), int(rng.integers(0, w - tw + 1)), th, tw)
        pred = rng.standard_normal((c, t, th, tw)).astype(np.float32)
        wgt = rng.uniform(0.1, 1.0, (th, tw)).astype(np.float32)
        tiles.append((pred, r, wgt))
    x = rng.standard_normal(shape).astype(np.float32)
    prior = rng.standard_normal(shape).astype(np.float32)
    return shape, tiles, x, prior


def build_acc(shape, tiles):
    acc = FusionAccumulator.zeros(shape)
    for pred, r, w in tiles:
        accumulate(acc, pred, r, w)
    return acc


LAMBDA_SET = (0.0, 0.5, 1.5, 5.0)
SIGMA_SET = (0.2, 0.5, 1.0)


def test_criterion_01_fusion_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    n_instances = 1000
    for k in range(n_instances):
        shape, tiles, x, prior = random_covered_instance(rng)
        acc = build_acc(shape, tiles)
        if k % 2 == 0:
            lam = float(rng.choice(LAMBDA_SET))
            lam_oracle = lam
        else:
            lam = rng.choice(LAMBDA_SET, size=shape[2:])
            lam_oracle = lam[None, None]
        sigma = float(rng.choice(SIGMA_SET))
        x64 = x.astype(np.float64)
        p64 = prior.astype(np.float64)

        got = fuse_fd_flow(acc, x, prior, lam, sigma).astype(np.float64)
        want = minimize_fd_flow(tiles, x64, p64, lam_oracle, sigma, shape)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
    elapsed = time.perf_counter() - started
    report(
        1,
        "fusion-oracle equivalence",
        worst <= 1e-5 and elapsed <= 30.0,
        f"(n={n_instances}, worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_reduction_to_plain_fusion(tmp_path):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        shape, tiles, x, prior = random_covered_instance(rng)
        acc = build_acc(shape, tiles)
        md = fuse_md(acc).astype(np.float64)
        for zero in (0.0, np.zeros(shape[2:])):
            flow = fuse_fd_flow(acc, x, prior, zero, 0.5).astype(np.float64)
            worst = max(worst, float(np.max(np.abs(flow - md))))

    shape = (1, 2, 16, 16)
    target = rng.standard_normal(shape).astype(np.float32)
    common = dict(canvas_shape=shape, steps=4, window_h=8, window_w=8, seed=77)
    x_md, _ = run(SamplerConfig(**common), TargetDriver(target))
    x_fd, _ = run(
        SamplerConfig(
            prior=PriorScheduleConfig(lambda_base=0.0, mode="gated_cosine"),
            **common,
        ),
        TargetDriver(target),
        target,
    )
    bit_identical = x_md.tobytes() == x_fd.tobytes()
    report(
        2,
        "zero-strength reduction",
        worst <= 1e-6 and bit_identical,
        f"(max |delta| {worst:.2e}, full runs bit-identical: {bit_identical})",
    )


def test_criterion_03_reference_tile_geometry():
    plan = plan_tiles_pixels(2176, 3840, 480, 832, 0.3, compression=8)
    ok = (
        (plan.window_h, plan.window_w) == (60, 104)
        and (plan.stride_h, plan.stride_w) == (42, 72)
        and (plan.canvas_h, plan.canvas_w) == (272, 480)
        and plan.min_coverage >= 1
    )
    report(
        3,
        "tile geometry",
        ok,
        f"(window {plan.window_h}x{plan.window_w}, stride "
        f"{plan.stride_h}x{plan.stride_w}, min coverage {plan.min_coverage})",
    )


def test_criterion_04_schedule_gating():
    times = [i / 5 for i in range(6)]
    gated = PriorScheduleConfig(lambda_base=1.5, tau=0.1)
    global_vals = [gated.strength_at(t) for t in times]
    global_ok = global_vals[0] == 1.5 and all(v == 0.0 for v in global_vals[1:])

    activity = np.array([[1, 0]])
    cfg = PriorScheduleConfig(
        lambda_base=1.5, mode="regional", tau_active=0.1, tau_background=0.35,
        activity_map=activity,
    )
    fg_active = [cfg.strength_at(t)[0, 0] > 0 for t in times]
    bg_active = [cfg.strength_at(t)[0, 1] > 0 for t in times]
    regional_ok = (
        fg_active == [True] + [False] * 5
        and bg_active == [True, True] + [False] * 4
    )
    report(
        4,
        "schedule gating",
        global_ok and regional_ok,
        f"(step-0 value {global_vals[0]}, fg steps {fg_active.count(True)}, "
        f"bg steps {bg_active.count(True)})",
    )


def test_criterion_05_gaussian_end_to_end():
    started = time.perf_counter()
    mu, s = 0.7, 0.3
    cfg = SamplerConfig(
        canvas_shape=(1, 1, 120, 208), steps=50,
        window_h=60, window_w=104, overlap=0.3, seed=4242,
    )
    x, _ = run(cfg, GaussianAnalytic(mu, s))
    elapsed = time.perf_counter() - started
    mean = float(x.mean())
    std = float(x.std())
    cells = x.size
    ok = (
        cells >= 4096
        and abs(mean - mu) <= 0.015
        and abs(std - s) / s <= 0.05
        and elapsed <= 60.0
    )
    report(
        5,
        "gaussian end-to-end",
        ok,
        f"(cells {cells}, mean {mean:.4f}, std {std:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_06_prior_pull_limit_and_pareto():
    rng = np.random.default_rng(1006)
    shape = (1, 1, 24, 32)
    target = rng.uniform(0.0, 1.0, shape).astype(np.float32)
    prior = rng.uniform(0.0, 1.0, shape).astype(np.float32)
    common = dict(canvas_shape=shape, steps=6, window_h=12, window_w=16, seed=6)

    cfg = SamplerConfig(
        prior=PriorScheduleConfig(lambda_base=1e6, mode="constant", tau=1.0),
        **common,
    )
    x, _ = run(cfg, TargetDriver(target), prior)
    pull_err = float(np.max(np.abs(x.astype(np.float64) - prior)))

    dists = []
    for lam in LAMBDA_SET:
        cfg = SamplerConfig(
            prior=PriorScheduleConfig(lambda_base=lam, mode="constant", tau=1.0),
            **common,
        )
        x, _ = run(cfg, TargetDriver(target), prior)
        dists.append(float(np.linalg.norm(x.astype(np.float64) - prior)))
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    report(
        6,
        "prior-pull limit and pareto",
        pull_err <= 1e-3 and monotone,
        f"(limit err {pull_err:.2e}, distances "
        + " > ".join(f"{d:.3f}" for d in dists) + ")",
    )


def test_criterion_07_regional_ordering():
    shape = (1, 1, 32, 32)
    checker = (np.indices(shape[2:]).sum(axis=0) % 2).astype(bool)
    prior = np.full(shape, 2.0, dtype=np.float32)
    cfg = SamplerConfig(
        canvas_shape=shape, steps=6,
        window_h=16, window_w=16, seed=7,
        prior=PriorScheduleConfig(
            lambda_base=1.5, mode="regional",
            tau_active=0.1, tau_background=0.35, activity_map=checker,
        ),
    )
    x, trace = run(cfg, GaussianAnalytic(0.0, 0.3), prior)
    sq = (x.astype(np.float64) - prior.astype(np.float64)) ** 2
    mask = np.broadcast_to(checker, shape)
    fg_mse = float(sq[mask].mean())
    bg_mse = float(sq[~mask].mean())

    # the target driver shows the same ordering in the trace at the step
    # where only the background gate is open
    rng = np.random.default_rng(1007)
    target = rng.uniform(0.0, 1.0, shape).astype(np.float32)
    _, t_trace = run(cfg, TargetDriver(target), prior)
    rec = t_trace.records[1]
    report(
        7,
        "regional ordering",
        bg_mse <= fg_mse and rec.bg_mse <= rec.fg_mse,
        f"(final bg {bg_mse:.4f} <= fg {fg_mse:.4f}; divergent-step trace bg "
        f"{rec.bg_mse:.4f} <= fg {rec.fg_mse:.4f})",
    )


def test_criterion_08_metric_values_and_oracles():
    rng = np.random.default_rng(1008)
    const = np.full((64, 64), 41.0)
    exact_zero = tenengrad(const) == 0.0 and temporal_consistency([const, const]) == 0.0

    c = 3.25
    offset_ok = temporal_consistency([const, const + c]) == pytest.approx(
        4 * c * c, rel=1e-12
    )

    frame = rng.uniform(0, 255, (64, 64))
    gx, gy = sobel_gradients(frame)
    rx, ry = sobel_loop(frame)
    sobel_ok = np.allclose(gx, rx, atol=1e-6) and np.allclose(gy, ry, atol=1e-6)
    ten_ok = abs(tenengrad(frame) - float(np.mean(rx**2 + ry**2))) <= 1e-6

    small = area_downsample(frame, 16, 16)
    area_ok = np.allclose(small, area_average_loop(frame, 16, 16), atol=1e-6)

    vecs = {k: rng.standard_normal(8) for k in range(4)}
    frames_a = [np.full((4, 4), float(k)) for k in range(2)]
    frames_b = [np.full((4, 4), float(k + 2)) for k in range(2)]
    embed = lambda f: vecs[int(f[0, 0])]
    got = prior_alignment(frames_a, frames_b, embed)
    want = np.mean(
        [
            np.dot(vecs[k + 2], vecs[k]) / (np.linalg.norm(vecs[k]) * np.linalg.norm(vecs[k + 2]))
            for k in range(2)
        ]
    )
    cos_ok = abs(got - want) <= 1e-6

    plan = plan_tiles(8, 8, 4, 4, 0.0)
    ramp = np.add.outer(np.arange(64.0), np.arange(64.0))
    seam_ok = abs(seam_energy(ramp, plan, factor=8)) <= 1e-9

    report(
        8,
        "metric kernels",
        exact_zero and offset_ok and sobel_ok and ten_ok and area_ok and cos_ok and seam_ok,
        f"(const-zero {exact_zero}, 4c^2 {bool(offset_ok)}, sobel {sobel_ok}, "
        f"area {area_ok}, cosine {cos_ok}, seam {seam_ok})",
    )


def test_criterion_09_protocol_round_trip(tmp_path):
    rng = np.random.default_rng(1009)
    with WorkerClient(ECHO_CMD, timeout=60) as client:
        exact = 0
        for k in range(100):
            shape = (
                int(rng.integers(1, 5)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 9)),
                int(rng.integers(1, 9)),
            )
            tile = rng.standard_normal(shape).astype(np.float32)
            pred = client.denoise(k, 0.1, 0.9, Rect(0, 0, shape[2], shape[3]), "cond", tile)
            exact += pred.tobytes() == tile.tobytes()

    bad_magic = tmp_path / "bad_magic.py"
    bad_magic.write_text(
        "import sys\n"
        "from tilefuse.protocol import pack_frame, HEADER_LEN\n"
        "sys.stdin.buffer.read(HEADER_LEN)\n"
        "sys.stdout.buffer.write(pack_frame(0, b''))\n"
        "sys.stdout.buffer.flush()\n"
        "sys.stdin.buffer.read(HEADER_LEN)\n"
        "sys.stdout.buffer.write(b'X' * 40)\n"
        "sys.stdout.buffer.flush()\n"
        "sys.stdin.buffer.read()\n"
    )
    malformed_ok = False
    with WorkerClient([sys.executable, str(bad_magic)], timeout=30) as client:
        try:
            client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", np.zeros((1, 1, 2, 2), np.float32))
        except MalformedFrameError:
            malformed_ok = True

    wrong_shape = tmp_path / "wrong_shape.py"
    wrong_shape.write_text(
        "import numpy as np\n"
        "from tilefuse.protocol import serve\n"
        "serve(denoise=lambda s,t,g,r,c,x: np.zeros((1,1,1,1), np.float32))\n"
    )
    shape_ok = False
    with WorkerClient([sys.executable, str(wrong_shape)], timeout=30) as client:
        try:
            client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", np.zeros((1, 1, 2, 2), np.float32))
        except ShapeError:
            shape_ok = True

    report(
        9,
        "protocol round trip",
        exact == 100 and malformed_ok and shape_ok,
        f"(bit-exact {exact}/100, malformed->MalformedFrameError {malformed_ok}, "
        f"mismatch->ShapeError {shape_ok})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    target = rng.uniform(0, 1, (1, 2, 16, 16)).astype(np.float32)
    target_path = tmp_path / "target.flt"
    write_flt(target_path, target)
    board = ((np.indices((16, 16)).sum(axis=0) % 2) * 255).astype(np.uint8)
    map_path = tmp_path / "act.pgm"
    write_pgm(map_path, board)
    config = tmp_path / "run.ini"
    config.write_text(
        f"""
[run]
seed = 31337
mode = fd_regional
steps = 6
output = {tmp_path}/first.flt

[canvas]
channels = 1
frames = 2
height = 16
width = 16

[tiles]
window_height = 8
window_width = 8
overlap = 0.3

[prior]
lambda_base = 1.5
tau_active = 0.1
tau_background = 0.35
activity_map = {map_path}

[denoiser]
kind = target
target = {target_path}
"""
    )
    assert cli_main(["sample", "--config", str(config)]) == 0
    first = (tmp_path / "first.flt").read_bytes()
    manifest = tmp_path / "first.flt.manifest.json"
    assert cli_main(
        ["sample", "--from-manifest", str(manifest), "--output", str(tmp_path / "second.flt")]
    ) == 0
    second = (tmp_path / "second.flt").read_bytes()
    report(
        10,
        "cli determinism",
        first == second and len(first) > 24,
        f"({len(first)} bytes, byte-identical {first == second})",
    )
