"""Command-line entry point.

Subcommands: plan (print a tile plan), sample (prior pass, upsample, tiled
pass), metrics (score frame sequences), sweep (sample over a strength/gate
grid and tabulate the trade-off). Exit codes: 0 ok, 2 usage, 3 config,
4 I/O, 5 compute.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shlex
import sys
import time

import numpy as np

from . import __version__
from .config import (
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
from .netpbm import read_pnm
from .planner import plan_tiles, plan_tiles_pixels
from .protocol import WorkerClient
from .sampler import TiledSampler, build_prior, make_noise
from .tensor import read_flt, trilinear_resize, write_flt

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_COMPUTE = 5


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise ArgumentError(f"expected HxW, got {text!r}") from exc


def cmd_plan(args) -> int:
    h, w = _parse_dims(args.canvas)
    wh, ww = _parse_dims(args.window)
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


def run_pipeline(settings, prior=None):
    """Prior pass, upsample, tiled pass. Returns (x_final, trace,
    prior_canvas, timings). A prior from an earlier run of the same
    settings, bar prior strength and gates, skips the prior pass; the
    returned prior_canvas is the prior the tiled pass used."""
    timings = {}
    canvas_shape = settings.canvas_shape()

    t0 = time.perf_counter()
    if prior is None and settings.prior_stage is None:  # read before any worker starts
        prior = read_flt(settings.prior.latent)
        if prior.shape[0] != settings.canvas.channels:
            raise ConfigError(
                f"prior latent has {prior.shape[0]} channels, canvas "
                f"needs {settings.canvas.channels}"
            )
    # An external denoiser is one worker pool serving both stages; built-in
    # ones are built per stage, as they may depend on the canvas shape.
    shared = None
    if settings.denoiser.kind == "external":
        shared = _build_denoiser(settings, canvas_shape)
    try:
        if prior is None:  # the thumbnail pass
            cfg = settings.prior_stage
            with _stage_denoiser(settings, cfg.canvas_shape, shared) as den:
                sampler = TiledSampler(cfg, den)
                prior, _ = sampler.run(make_noise(cfg.canvas_shape, settings.run.seed, stream=0))
        timings["prior"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        prior_canvas = build_prior(prior, canvas_shape, settings.run.workers)
        timings["upsample"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with _stage_denoiser(settings, canvas_shape, shared) as den:
            sampler = TiledSampler(settings.tiled, den, prior_canvas)
            # the noise is a temporary: run takes its private copy, and the
            # original is freed before the first step
            x_final, trace = sampler.run(make_noise(canvas_shape, settings.run.seed, stream=1))
        timings["tiled"] = time.perf_counter() - t0
    finally:
        _close(shared)
    return x_final, trace, prior_canvas, timings


@contextlib.contextmanager
def _stage_denoiser(settings, canvas_shape, shared):
    """The shared worker pool if there is one, else a denoiser built for
    this stage alone and closed when the stage ends."""
    denoiser = shared if shared is not None else _build_denoiser(settings, canvas_shape)
    try:
        yield denoiser
    finally:
        if denoiser is not shared:
            _close(denoiser)


def _close(denoiser) -> None:
    """Stop a denoiser's worker processes, if it has any."""
    close = getattr(denoiser, "close", None)
    if close is not None:
        close()


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
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_table(table, out) -> None:
    """A TSV table to the out file, or to stdout if there is none."""
    if out:
        _atomic_write_text(out, table)
    else:
        sys.stdout.write(table)


FRAME_SUFFIXES = (".pgm", ".ppm", ".flt")


def _load_frame(path):
    if path.endswith(".flt"):
        tensor = read_flt(path)
        c, t, h, w = tensor.shape
        if t != 1 or c not in (1, 3):
            raise FileFormatError(
                f"{path}: frame tensors must be (1|3, 1, H, W), got {tensor.shape}"
            )
        if c == 1:
            return tensor[0, 0]
        return np.moveaxis(tensor[:, 0], 0, -1)
    img, _ = read_pnm(path)
    return img


def _load_frames(directory):
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith(FRAME_SUFFIXES)
    )
    if not names:
        raise FileFormatError(f"{directory}: no .pgm/.ppm/.flt frames found")
    return [_load_frame(os.path.join(directory, n)) for n in names]


def _frame_to_tensor(frame):
    frame = np.asarray(frame)
    if frame.ndim == 2:
        return frame.astype(np.float32)[None, None]
    return np.moveaxis(frame.astype(np.float32), -1, 0)[:, None]


def cmd_metrics(args) -> int:
    frames = _load_frames(args.frames)
    cols = ["frames", "tenengrad", "temporal_consistency"]
    vals = [
        str(len(frames)),
        f"{video_tenengrad(frames):.8g}",
        f"{temporal_consistency(frames):.8g}" if len(frames) > 1 else "-",
    ]
    if args.prior_frames:
        prior_frames = _load_frames(args.prior_frames)
        if not args.embedder:
            raise ConfigError("prior alignment needs --embedder")
        with WorkerClient(shlex.split(args.embedder), timeout=args.timeout) as embedder:
            score = prior_alignment(
                frames,
                prior_frames,
                lambda f: embedder.embed(_frame_to_tensor(f)),
            )
        cols.append("prior_alignment")
        vals.append(f"{score:.8g}")
    if args.seam_window:
        wh, ww = _parse_dims(args.seam_window)
        first = np.asarray(frames[0])
        plan = plan_tiles(
            first.shape[0] // args.seam_factor,
            first.shape[1] // args.seam_factor,
            wh,
            ww,
            args.seam_overlap,
        )
        excess = float(np.mean([seam_energy(f, plan, args.seam_factor) for f in frames]))
        cols.append("seam_excess")
        vals.append(f"{excess:.8g}")

    _write_table("\t".join(cols) + "\n" + "\t".join(vals) + "\n", args.out)
    return EXIT_OK


def _latent_frames(latent):
    """Channel-mean luminance frames from a latent tensor, for latent-domain
    metric sweeps."""
    return [latent[:, t].mean(axis=0).astype(np.float64) for t in range(latent.shape[1])]


def _grid(args, name):
    text = getattr(args, f"{name}_grid")
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"--{name}-grid needs comma-separated numbers, got {text!r}") from exc


def cmd_sweep(args) -> int:
    """One run per (lambda, tau) point; the prior pass, which depends on
    neither, runs once. Every point is resolved before any runs."""
    points = [
        (lam, tau, _load_settings(args, [f"prior.lambda_base={lam}", f"prior.tau={tau}"]))
        for lam, tau in itertools.product(_grid(args, "lambda"), _grid(args, "tau"))
    ]
    header = "lambda_base\ttau\tprior_l2\tsharpness\ttemporal_consistency"
    embedder = None
    if args.embedder:
        embedder = WorkerClient(shlex.split(args.embedder), timeout=args.timeout)
        header += "\tprior_alignment"
    rows = [header]
    prior = None
    with embedder or contextlib.nullcontext():
        for lam, tau, settings in points:
            x_final, _, prior, _ = run_pipeline(settings, prior)
            dist = float(
                np.linalg.norm(x_final.astype(np.float64) - prior.astype(np.float64))
            )
            frames = _latent_frames(x_final)
            sharp = video_tenengrad(frames)
            temp = temporal_consistency(frames) if len(frames) > 1 else float("nan")
            row = f"{lam:g}\t{tau:g}\t{dist:.8g}\t{sharp:.8g}\t{temp:.8g}"
            if embedder is not None:
                align = prior_alignment(
                    frames,
                    _latent_frames(prior),
                    lambda f: embedder.embed(_frame_to_tensor(f)),
                )
                row += f"\t{align:.8g}"
            rows.append(row)
    _write_table("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilefuse",
        description="Prior-regularized tiled diffusion sampling on latent canvases.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print the tile plan for a canvas")
    p.add_argument("--canvas", required=True, help="HxW (pixels, or latent with --latent)")
    p.add_argument("--window", required=True, help="HxW in the same units")
    p.add_argument("--overlap", type=float, default=0.3)
    p.add_argument("--factor", type=int, default=8, help="pixels per latent cell")
    p.add_argument("--latent", action="store_true", help="dims are latent cells")
    p.add_argument("--machine", action="store_true", help="one tile per line: row col h w")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sample", help="run the two-stage sampling pipeline")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--from-manifest", help="reproduce a run from its manifest")
    p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
    p.add_argument("--output", help="output FLT1 path (overrides run.output)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", help="score a frame sequence")
    p.add_argument("--frames", required=True, help="directory of .pgm/.ppm/.flt frames")
    p.add_argument("--prior-frames", help="directory of prior frames for alignment")
    p.add_argument("--embedder", help="FDP1 embedding worker command line")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--seam-window", help="latent HxW window for seam diagnostics")
    p.add_argument("--seam-overlap", type=float, default=0.3)
    p.add_argument("--seam-factor", type=int, default=8)
    p.add_argument("--out", help="write the TSV here instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="sample over a strength/gate grid")
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--from-manifest")
    p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL")
    p.add_argument("--lambda-grid", default="0,0.5,1.5,5", dest="lambda_grid")
    p.add_argument("--tau-grid", default="1.0", dest="tau_grid")
    p.add_argument("--embedder", help="FDP1 embedding worker for the alignment column")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--out", help="write the TSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    raise SystemExit(main())
