"""Run one tilefuse CLI command in this process, instrumented from outside.

    python3 perfbench/child.py MODE RECORD CANVAS -- CLI ARGS...

CANVAS is the full canvas as CxTxHxW; steps on any other shape belong to
the prior stage. RECORD receives a JSON object when the command ends.
MODE is one of:

    steps   one (full, start, end) entry per TiledSampler.step call
    probe   exit cleanly at the start of the first full-canvas step
    trace   spans around the public functions of every layer
    alloc   tracemalloc peak over each full-canvas step's fusion phase

Functions are replaced at the names where tilefuse.cli, tilefuse.sampler and
tilefuse.protocol look them up, so nothing under src/ is edited. Times come
from time.monotonic, which the parent process shares.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc

from tilefuse import cli, denoisers, fusion, protocol, sampler

clock = time.monotonic


def _write(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def install_steps(record, canvas, path, probe=False):
    steps = record.setdefault("steps", [])
    original = sampler.TiledSampler.step

    def step(self, x, i):
        start = clock()
        full = tuple(self.cfg.canvas_shape) == canvas
        if probe and full:
            record["first_full_step"] = start
            close = getattr(self.denoiser, "close", None)
            if close is not None:
                close()
            _write(path, record)
            sys.stdout.flush()
            os._exit(0)
        out = original(self, x, i)
        steps.append([full, start, clock()])
        return out

    sampler.TiledSampler.step = step


class Tracer:
    """In-memory spans: [id, name, start, end, parent, step, main, error, meta].

    A span opened on a tile-pool thread has no parent on its own thread;
    it takes the enclosing step span as parent, and every span records the
    step that was running when it opened. All spans of one record share the
    record's run_id.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.step = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, meta=None, is_step=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.step
            step = sid if is_step else self.step
            main = threading.current_thread() is threading.main_thread()
            stack.append(sid)
            if is_step:
                outer, self.step = self.step, sid
            start = clock()
            error, info = True, None
            try:
                out = fn(*args, **kwargs)
                error = False
                if meta is not None:
                    info = meta(args, out)
                return out
            finally:
                end = clock()
                if is_step:
                    self.step = outer
                stack.pop()
                self.spans.append([sid, name, start, end, parent, step, main, error, info])

        return wrapper

    def patch(self, owner, attr, name, meta=None, is_step=False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), meta, is_step))


def install_trace(record, canvas, path):
    tr = Tracer()
    record["spans"] = tr.spans

    def full(args, _):
        return tuple(args[0].cfg.canvas_shape) == canvas

    for attr in ("load_config_file", "apply_overrides", "resolve_settings"):
        tr.patch(cli, attr, "config." + attr)
    tr.patch(cli, "run_pipeline", "cli.pipeline")
    tr.patch(cli, "build_prior", "cli.upsample")
    tr.patch(cli, "make_noise", "sampler.noise")
    tr.patch(cli, "write_flt", "tensor.write_flt")
    tr.patch(cli, "_atomic_write_text", "cli.write_text")
    tr.patch(cli, "write_manifest", "cli.write_manifest")
    tr.patch(cli, "video_tenengrad", "metrics.tenengrad")
    tr.patch(cli, "temporal_consistency", "metrics.temporal")

    tr.patch(sampler, "crop", "tensor.crop")
    tr.patch(sampler, "trilinear_resize", "tensor.resize")
    tr.patch(sampler, "accumulate", "fusion.accumulate",
             lambda a, _: [a[1].size, a[2].height * a[2].width])
    tr.patch(sampler, "fuse_md", "fusion.fuse_plain",
             lambda a, _: [a[0].num.size, a[0].den.size])
    tr.patch(sampler, "fuse_fd_flow", "fusion.fuse_prior",
             lambda a, _: [a[0].num.size, a[0].den.size])
    tr.patch(sampler, "trace_prior_mse", "sampler.trace")
    tr.patch(sampler, "euler_update", "sampler.euler", lambda a, _: a[0].size)
    tr.patch(sampler.TiledSampler, "__init__", "sampler.init")
    tr.patch(sampler.TiledSampler, "run", "sampler.run", full)
    tr.patch(sampler.TiledSampler, "step", "sampler.step", full, is_step=True)
    tr.patch(sampler.TiledSampler, "_predict_tile", "sampler.predict_tile")

    for cls in (denoisers.GaussianAnalytic, denoisers.TargetDriver, denoisers.ExternalDenoiser):
        tr.patch(cls, "__call__", "denoiser.call")

    tr.patch(protocol, "pack_frame", "fdp1.pack_frame", lambda _, out: len(out))
    tr.patch(protocol, "pack_denoise_request", "fdp1.pack")
    tr.patch(protocol, "unpack_denoise_response", "fdp1.unpack")
    tr.patch(protocol.WorkerClient, "__init__", "fdp1.handshake")
    tr.patch(protocol.WorkerClient, "denoise", "fdp1.client")
    tr.patch(protocol.WorkerClient, "_recv", "fdp1.recv",
             lambda _, out: protocol.HEADER_LEN + len(out[1]))
    tr.patch(protocol.WorkerPool, "denoise", "fdp1.pool")


def install_alloc(record, canvas, path):
    """Trace allocations from the accumulator's creation to the fused
    velocity, on full-canvas steps only, so no other code pays for it."""
    install_steps(record, canvas, path)
    peaks = record["fusion_peaks"] = []
    zeros = fusion.FusionAccumulator.zeros.__func__

    def traced_zeros(cls, canvas_shape):
        if tuple(canvas_shape) == canvas:
            tracemalloc.start()
        return zeros(cls, canvas_shape)

    def stop_after(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return out

        return wrapper

    fusion.FusionAccumulator.zeros = classmethod(traced_zeros)
    sampler.fuse_md = stop_after(sampler.fuse_md)
    sampler.fuse_fd_flow = stop_after(sampler.fuse_fd_flow)


INSTALL = {
    "steps": install_steps,
    "probe": functools.partial(install_steps, probe=True),
    "trace": install_trace,
    "alloc": install_alloc,
}


def main(argv):
    mode, path, canvas_text, sep, *cli_args = argv
    if sep != "--" or mode not in INSTALL:
        raise SystemExit(f"usage: {__doc__.splitlines()[2].strip()}")
    canvas = tuple(int(v) for v in canvas_text.split("x"))
    record = {"mode": mode, "run_id": os.environ.get("PERFBENCH_CMD", str(os.getpid()))}
    INSTALL[mode](record, canvas, path)
    try:
        return cli.main(cli_args)
    finally:
        _write(path, record)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
