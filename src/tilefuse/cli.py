"""Command-line entry point.

Subcommands: plan (print a tile plan), sample (prior pass, upsample, tiled
pass), metrics (score frame sequences), sweep (sample over a strength/gate
grid and tabulate the trade-off). Exit codes: 0 ok, 2 usage, 3 config,
4 I/O, 5 compute, 130 interrupted (SIGINT), 143 terminated (SIGTERM).

main gives a SIGINT or SIGTERM that has its default handler to _end_now
while it runs on the main thread: the process ends at once, unwinding
nothing, so no lock is left held and no hung worker is waited for.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import itertools
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__, protocol, tensor
from .config import (
    FLAGS,
    apply_overrides,
    config_from_manifest,
    default_config,
    load_config_file,
    resolve_settings,
    write_manifest,
)
from .denoisers import ExternalDenoiser, GaussianAnalytic, TargetDriver
from .errors import ArgumentError, ConfigError, FileFormatError, TileFuseError
from .metrics import (
    prior_alignment,
    seam_energy,
    temporal_consistency,
    video_tenengrad,
)
from .netpbm import read_frame
from .planner import plan_tiles, plan_tiles_pixels
from .protocol import WorkerClient
from .sampler import TiledSampler, build_prior, expand_prior, fill_noise, make_noise
from .tensor import atomic_write, read_flt, trilinear_resize, write_flt

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_COMPUTE = 5

M_ARENA_MAX = -8  # glibc's mallopt parameter for the malloc arena count


def _one_malloc_arena() -> None:
    """Pin this process to glibc's main malloc arena, before any thread
    starts. Tile-pool threads allocate predictions and FDP1 reply buffers
    that other threads free; with an arena per thread, freed
    tile-sized blocks stay held in the pool threads' arenas, so peak RSS
    follows the allocator instead of the program's arrays. Where the C
    library has no mallopt, nothing happens."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_ARENA_MAX, 1)


def cmd_plan(args) -> int:
    (h, w), (wh, ww) = args.canvas, args.window
    if args.latent:
        plan = plan_tiles(h, w, wh, ww, args.overlap)
    else:
        plan = plan_tiles_pixels(h, w, wh, ww, args.overlap, args.factor)
    cov = plan.coverage_counts()
    print(
        f"canvas {plan.canvas_h}x{plan.canvas_w} latent, window "
        f"{plan.window_h}x{plan.window_w}, stride {plan.stride_h}x{plan.stride_w}, "
        f"{len(plan.tiles)} tiles"
    )
    print(
        f"coverage min {cov.min()} max {cov.max()} "
        f"mean {cov.mean():.3f}"
    )
    if args.machine:
        for r in plan.tiles:
            print(f"{r.row} {r.col} {r.height} {r.width}")
    else:
        print(f"{'#':>4} {'row':>6} {'col':>6} {'height':>7} {'width':>6}")
        for k, r in enumerate(plan.tiles):
            print(f"{k:>4} {r.row:>6} {r.col:>6} {r.height:>7} {r.width:>6}")
    return EXIT_OK


def _build_denoiser(settings, canvas_shape):
    d = settings.denoiser
    if d.kind == "gaussian":
        return GaussianAnalytic(d.mean, d.std)
    if d.kind == "target":
        target = read_flt(d.target)
        c, t, h, w = canvas_shape
        if target.shape[0] != c:
            raise ConfigError(
                f"target has {target.shape[0]} channels, canvas needs {c}"
            )
        if target.shape != tuple(canvas_shape):
            target = trilinear_resize(target, t, h, w)
        return TargetDriver(target)
    return ExternalDenoiser(
        d.command,
        size=settings.run.workers,
        timeout=d.timeout,
    )


def run_pipeline(settings, prior=None, trace=True):
    """Prior pass, upsample, tiled pass. Returns (x_final, trace,
    prior_rows, timings). trace is the tiled pass's RunTrace, or None with
    trace False, when the tiled pass skips the trace's passes; the prior
    pass, whose trace nothing reads, always runs untraced. prior_rows is
    build_prior's source, which the tiled pass used (expand_prior gives its
    canvas cells): the thumbnail itself when it is no larger than the
    canvas, else a resized copy, and then the thumbnail is dropped once
    that is made. A prior from an earlier run of the same settings, bar
    prior strength and gates, skips the prior pass.

    The tiled pass's noise depends on nothing the prior pass makes, so one
    background thread draws it (stream 1 of run.seed, make_noise's bits)
    from the start, beside the prior read, worker start-up, the prior pass
    and the upsample, into a canvas allocated on this thread before the
    draw starts. The tiled run adopts it. The threads share one malloc
    arena when main has pinned the process to one (_one_malloc_arena)."""
    timings = {}
    canvas_shape = settings.canvas_shape()
    with contextlib.ExitStack() as stack:  # closes the workers, then joins the draw
        draw = stack.enter_context(ThreadPoolExecutor(1, thread_name_prefix="tilefuse-noise"))
        tiled_noise = [np.empty(canvas_shape, dtype=np.float32)]
        drawn = draw.submit(fill_noise, tiled_noise[0], settings.run.seed, 1)
        t0 = time.perf_counter()
        if prior is None and settings.prior_stage is None:  # read before any worker starts
            prior = read_flt(settings.prior.latent)
            if prior.shape[0] != settings.canvas.channels:
                raise ConfigError(
                    f"prior latent has {prior.shape[0]} channels, canvas "
                    f"needs {settings.canvas.channels}"
                )
        # An external denoiser is one worker pool serving both stages; built-in
        # ones, which hold no process, are built per stage for its canvas shape.
        shared = None
        if settings.denoiser.kind == "external":
            shared = _build_denoiser(settings, canvas_shape)
            stack.callback(shared.close)
        if prior is None:  # the thumbnail pass
            cfg = settings.prior_stage
            den = shared or _build_denoiser(settings, cfg.canvas_shape)
            sampler = TiledSampler(cfg, den, trace=False)
            prior, _ = sampler.run(make_noise(cfg.canvas_shape, settings.run.seed, stream=0))
        timings["prior"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        prior_rows = build_prior(prior, canvas_shape)
        del prior  # the tiled pass reads the source: a resized thumbnail is freed
        timings["upsample"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        den = shared or _build_denoiser(settings, canvas_shape)
        sampler = TiledSampler(settings.tiled, den, prior_rows, trace=trace)
        drawn.result()  # a failed draw is raised here, on this thread
        # run adopts the canvas and overwrites it in place, so it is handed
        # the only reference: no alias here sees the noise turn into x_final
        x_final, trace = sampler.run(tiled_noise.pop())
        timings["tiled"] = time.perf_counter() - t0
    return x_final, trace, prior_rows, timings


def _load_settings(args, overrides=()):
    """Settings from the manifest, the INI file or the defaults, with the
    --set overrides and then the given ones applied."""
    if args.from_manifest:
        cfg = config_from_manifest(args.from_manifest)
    elif args.config:
        cfg = load_config_file(args.config)
    else:
        cfg = default_config()
    apply_overrides(cfg, [*args.set, *overrides])
    return resolve_settings(cfg)


def cmd_sample(args) -> int:
    settings = _load_settings(args, [f"run.output={args.output}"] if args.output else ())
    output = settings.run.output
    if not output:
        raise ConfigError("run.output (or --output) is required for sample")
    trace_path = settings.run.trace or output + ".trace.tsv"
    manifest_path = settings.run.manifest or output + ".manifest.json"

    x_final, trace, _, timings = run_pipeline(settings)

    write_flt(output, x_final)
    _atomic_write_text(trace_path, trace.to_tsv())
    write_manifest(
        manifest_path,
        settings,
        outputs={
            "latent": output,
            "trace": trace_path,
        },
        timings=timings,
        version=__version__,
    )
    print(f"wrote {output}")
    return EXIT_OK


def _atomic_write_text(path, text) -> None:
    atomic_write(path, text.encode("utf-8"))


def _write_table(table, out) -> None:
    """A TSV table to the out file, or to stdout if there is none."""
    if out:
        _atomic_write_text(out, table)
    else:
        sys.stdout.write(table)


FRAME_SUFFIXES = (".pgm", ".ppm", ".flt")


def _load_frames(directory):
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith(FRAME_SUFFIXES)
    )
    if not names:
        raise FileFormatError(f"{directory}: no .pgm/.ppm/.flt frames found")
    return [read_frame(os.path.join(directory, n)) for n in names]


def _frame_to_tensor(frame):
    frame = np.asarray(frame)
    if frame.ndim == 2:
        return frame.astype(np.float32)[None, None]
    return np.moveaxis(frame.astype(np.float32), -1, 0)[:, None]


def _flag(args, name, parse):
    """A flag's value by a config parser; a bad one is a usage error."""
    raw = getattr(args, name)
    try:
        return parse(raw)
    except ValueError as exc:
        raise ArgumentError(f"--{name.replace('_', '-')} must be {exc}, got {raw!r}") from None


def cmd_metrics(args) -> int:
    if args.prior_frames and not args.embedder:
        raise ArgumentError("--prior-frames needs --embedder")
    frames = _load_frames(args.frames)
    cols = ["frames", "tenengrad", "temporal_consistency"]
    vals = [
        str(len(frames)),
        f"{video_tenengrad(frames):.8g}",
        f"{temporal_consistency(frames):.8g}" if len(frames) > 1 else "-",
    ]
    if args.prior_frames:
        prior_frames = _load_frames(args.prior_frames)
        with WorkerClient(args.embedder, timeout=args.timeout) as embedder:
            score = prior_alignment(
                frames,
                prior_frames,
                lambda f: embedder.embed(_frame_to_tensor(f)),
            )
        cols.append("prior_alignment")
        vals.append(f"{score:.8g}")
    if args.seam_window:
        first = np.asarray(frames[0])
        plan = plan_tiles(
            first.shape[0] // args.seam_factor,
            first.shape[1] // args.seam_factor,
            *args.seam_window,
            args.seam_overlap,
        )
        excess = float(np.mean([seam_energy(f, plan, args.seam_factor) for f in frames]))
        cols.append("seam_excess")
        vals.append(f"{excess:.8g}")

    _write_table("\t".join(cols) + "\n" + "\t".join(vals) + "\n", args.out)
    return EXIT_OK


def _latent_frames(latent, height, width):
    """Channel-mean luminance frames, `height` by `width`, from a latent or
    a prior source, expanded one frame at a time, for latent-domain metric
    sweeps."""
    return [
        expand_prior(latent[:, t], height, width).mean(axis=0).astype(np.float64)
        for t in range(latent.shape[1])
    ]


def _distance(x, prior) -> float:
    """Euclidean distance between a latent and the prior of a source,
    summed in float64 and expanded one channel at a time, so no
    whole-canvas copy is made."""
    height, width = x.shape[2:]
    total = sum(
        np.square(ch.astype(np.float64) - expand_prior(src, height, width)).sum()
        for ch, src in zip(x, prior)
    )
    return math.sqrt(total)


def _grid_point(settings, lam, tau):
    """settings with the tiled stage's prior strength and gate set to one
    sweep point. An md run has no prior term, so its schedule stays as
    resolve_settings built it. Every point shares the settings' plan,
    weight map and activity map."""
    point = copy.copy(settings)
    if settings.run.mode != "md":
        point.tiled = settings.tiled.with_prior(
            replace(settings.tiled.prior, lambda_base=lam, tau=tau)
        )
    return point


def cmd_sweep(args) -> int:
    """One run per (lambda, tau) point; the prior pass, which depends on
    neither, runs once. The settings, with their INI file and activity map,
    are read once, and every point is derived from them before any runs.
    Two values of an axis whose points take the same strength_at at every
    step, at each value of the other axis, would rerun the same passes.
    A point's table row reads its latent alone, so every point runs
    untraced; the table has the same bytes as from traced runs."""
    settings = _load_settings(args)
    lambdas, taus = args.lambda_grid, args.tau_grid
    grid = [[_grid_point(settings, lam, tau) for tau in taus] for lam in lambdas]
    times = settings.tiled.schedule().times
    for flag, values, lines in (("--lambda-grid", lambdas, grid), ("--tau-grid", taus, [*zip(*grid)])):
        for (i, a), (j, b) in itertools.combinations(enumerate(lines), 2):
            # lazily, so no strength plane outlives its comparison
            if all(np.array_equal(p.tiled.prior.strength_at(t), q.tiled.prior.strength_at(t))
                   for p, q in zip(a, b) for t in times):
                raise ConfigError(
                    f"{flag} values {values[i]:g} and {values[j]:g} give every point "
                    "the same prior strength at every step"
                )
    header = "lambda_base\ttau\tprior_l2\tsharpness\ttemporal_consistency"
    embedder = WorkerClient(args.embedder, timeout=args.timeout) if args.embedder else None
    if embedder is not None:
        header += "\tprior_alignment"
    rows = [header]
    prior = None
    with embedder or contextlib.nullcontext():
        for (lam, tau), settings in zip(itertools.product(lambdas, taus), itertools.chain(*grid)):
            x_final, _, prior, _ = run_pipeline(settings, prior, trace=False)
            dist = _distance(x_final, prior)
            frames = _latent_frames(x_final, *x_final.shape[2:])
            sharp = video_tenengrad(frames)
            temp = temporal_consistency(frames) if len(frames) > 1 else float("nan")
            row = f"{lam:g}\t{tau:g}\t{dist:.8g}\t{sharp:.8g}\t{temp:.8g}"
            if embedder is not None:
                align = prior_alignment(
                    frames,
                    _latent_frames(prior, *x_final.shape[2:]),
                    lambda f: embedder.embed(_frame_to_tensor(f)),
                )
                row += f"\t{align:.8g}"
            rows.append(row)
            del x_final, frames  # free this point's canvas before the next run
    _write_table("\n".join(rows) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError for a bad command line, so that main reports it
    as one usage error line; subparsers inherit the class."""

    def error(self, message):
        raise ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tilefuse",
        description="Prior-regularized tiled diffusion sampling on latent canvases.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)  # sample and sweep
    source = config.add_mutually_exclusive_group()
    source.add_argument("--config", help="INI configuration file")
    source.add_argument("--from-manifest", help="reproduce a run from its manifest")
    config.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
    scoring = argparse.ArgumentParser(add_help=False)  # metrics and sweep
    scoring.add_argument("--embedder", help="FDP1 embedding worker command line")
    scoring.add_argument("--timeout", default="300")
    scoring.add_argument("--out", help="write the TSV here instead of stdout")

    p = sub.add_parser("plan", help="print the tile plan for a canvas")
    p.add_argument("--canvas", required=True, help="HxW (pixels, or latent with --latent)")
    p.add_argument("--window", required=True, help="HxW in the same units")
    p.add_argument("--overlap", default="0.3")
    p.add_argument("--factor", default="8", help="pixels per latent cell")
    p.add_argument("--latent", action="store_true", help="dims are latent cells")
    p.add_argument("--machine", action="store_true", help="one tile per line: row col h w")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sample", parents=[config], help="run the two-stage sampling pipeline")
    p.add_argument("--output", help="output FLT1 path (overrides run.output)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", parents=[scoring], help="score a frame sequence")
    p.add_argument("--frames", required=True, help="directory of .pgm/.ppm/.flt frames")
    p.add_argument("--prior-frames", help="directory of prior frames for alignment")
    p.add_argument("--seam-window", help="latent HxW window for seam diagnostics")
    p.add_argument("--seam-overlap", default="0.3")
    p.add_argument("--seam-factor", default="8")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", parents=[config, scoring], help="sample over a strength/gate grid")
    p.add_argument("--lambda-grid", default="0,0.5,1.5,5")
    p.add_argument("--tau-grid", default="1.0")
    p.set_defaults(func=cmd_sweep)
    return parser


# each signal that ends a run at once, with the handler of its default action
_ENDING_SIGNALS = {signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL}


def _end_now(signum, frame) -> None:
    """Kill and reap every worker child, remove every temporary output file,
    print one line and exit 128 + signum, as a shell reports it. os.waitpid
    takes no lock: the signal may have cut into a Popen.wait holding one."""
    for proc in tuple(protocol.children):  # one C call: no thread changes it meanwhile
        with contextlib.suppress(OSError):  # reaped already, or by another thread
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    for tmp in tuple(tensor.temporaries):
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    os.write(2, b"interrupted\n")
    os._exit(128 + signum)


def main(argv=None) -> int:
    _one_malloc_arena()
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum, default in _ENDING_SIGNALS.items():
            if signal.getsignal(signum) == default:
                previous[signum] = signal.signal(signum, _end_now)
    try:
        args = build_parser().parse_args(argv)
        for name, parse in FLAGS.items():
            if getattr(args, name, None) is not None:
                setattr(args, name, _flag(args, name, parse))
        return args.func(args)
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FileFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TileFuseError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        print(f"compute error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    raise SystemExit(main())
