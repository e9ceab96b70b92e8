"""Per-layer metrics and consistency checks from the spans of a traced run.

A span is [id, name, start, end, parent, step, main, error, meta] as
child.py records it. Self time is a span's duration minus the part of it
that its child spans cover. Bytes labelled computed come from array shapes
(read each operand once, write each result once), not from counters.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ID, NAME, START, END, PARENT, STEP, MAIN, ERROR, META = range(9)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: s[END] - s[START] - covered(children[s[ID]]) for s in spans}


def check(spans, selfs):
    """Problems with the trace: children outside parents, pool-thread spans
    without their step, or self times that do not add up to a step."""
    by_id = {s[ID]: s for s in spans}
    problems = []
    for s in spans:
        parent = by_id.get(s[PARENT])
        if s[PARENT] is not None and parent is None:
            problems.append(f"span {s[ID]} {s[NAME]}: parent {s[PARENT]} missing")
        elif parent is not None and not parent[START] <= s[START] <= s[END] <= parent[END]:
            problems.append(f"span {s[ID]} {s[NAME]}: outside its parent {parent[NAME]}")
        if not s[MAIN]:
            step = by_id.get(s[STEP])
            if step is None or step[NAME] != "sampler.step":
                problems.append(f"pool-thread span {s[ID]} {s[NAME]} carries no step id")
            elif not step[START] <= s[START] <= s[END] <= step[END]:
                problems.append(f"pool-thread span {s[ID]} {s[NAME]} outside step {s[STEP]}")
    for step in (s for s in spans if s[NAME] == "sampler.step"):
        inside = [s for s in spans if s[STEP] == step[ID]]
        serial = sum(selfs[s[ID]] for s in inside if s[MAIN])
        pool = covered((s[START], s[END]) for s in inside if not s[MAIN] and s[PARENT] == step[ID])
        span = step[END] - step[START]
        if abs(serial + pool - span) > 1e-6 + 1e-9 * span:
            problems.append(
                f"step {step[ID]}: self times {serial:.6f} s plus pool wall {pool:.6f} s "
                f"do not make the step's {span:.6f} s"
            )
    return problems


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, selfs, fusion_peaks):
    """Every per-layer metric; layers that did not run read 0."""
    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    def busy(*names):
        return sum(selfs[s[ID]] for n in names for s in named[n])

    def durations(name):
        return [s[END] - s[START] for s in named[name]]

    def count(name):
        return len(named[name])

    full_steps = {s[ID] for s in named["sampler.step"] if s[META]}
    n_steps = max(1, len(full_steps))

    def in_full(name):
        return [s for s in named[name] if s[STEP] in full_steps]

    predict_wall = 0.0
    for sid in full_steps:
        predict_wall += covered((s[START], s[END]) for s in in_full("sampler.predict_tile") if s[STEP] == sid)
    denoise_time = sum(s[END] - s[START] for s in in_full("denoiser.call"))

    acc_bytes = sum(20 * n + 20 * hw for n, hw in (s[META] for s in in_full("fusion.accumulate")))
    fuse_bytes = sum(12 * n + 8 * hw for n, hw in (s[META] for s in in_full("fusion.fuse_plain")))
    fuse_bytes += sum(20 * n + 8 * hw for n, hw in (s[META] for s in in_full("fusion.fuse_prior")))
    euler_bytes = sum(12 * s[META] for s in in_full("sampler.euler"))

    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)

    def child_time(span, *names):
        return sum(c[END] - c[START] for c in children[span[ID]] if c[NAME] in names)

    clients = named["fdp1.client"]
    roundtrips = durations("fdp1.client")
    wire = sum(
        c[END] - c[START] - child_time(c, "fdp1.pack", "fdp1.pack_frame", "fdp1.unpack")
        for c in clients
    )
    pool_wait = sum(p[END] - p[START] - child_time(p, "fdp1.client") for p in named["fdp1.pool"])
    sent = sum(s[META] or 0 for s in named["fdp1.pack_frame"])
    recv = sum(s[META] or 0 for s in named["fdp1.recv"])

    prior_s = upsample_s = tiled_s = 0.0
    for pipe in named["cli.pipeline"]:
        ups = [c for c in children[pipe[ID]] if c[NAME] == "cli.upsample"]
        if ups:
            prior_s += ups[0][START] - pipe[START]
            upsample_s += ups[0][END] - ups[0][START]
            tiled_s += pipe[END] - ups[0][END]

    calls = durations("denoiser.call")
    return {
        "fusion.accumulate_s": busy("fusion.accumulate"),
        "fusion.accumulate_calls": count("fusion.accumulate"),
        "fusion.fuse_prior_s": busy("fusion.fuse_prior"),
        "fusion.fuse_plain_s": busy("fusion.fuse_plain"),
        "fusion.alloc_peak_mb": max(fusion_peaks, default=0) / 2**20,
        "fusion.bytes_computed": (acc_bytes + fuse_bytes) / n_steps,
        "computed.accumulate_bytes_per_step": acc_bytes / n_steps,
        "computed.fuse_bytes_per_step": fuse_bytes / n_steps,
        "computed.euler_bytes_per_step": euler_bytes / n_steps,
        "sampler.trace_s": busy("sampler.trace"),
        "sampler.euler_s": busy("sampler.euler"),
        "sampler.step_self_s": busy("sampler.step"),
        "sampler.predict_wall_s": predict_wall,
        "sampler.tile_concurrency": denoise_time / predict_wall if predict_wall else 0.0,
        "sampler.noise_s": busy("sampler.noise"),
        "sampler.init_s": busy("sampler.init"),
        "tensor.crop_s": busy("tensor.crop"),
        "tensor.crop_calls": count("tensor.crop"),
        "tensor.resize_s": busy("tensor.resize"),
        "tensor.write_flt_s": busy("tensor.write_flt"),
        "count.tiles_per_step": len(in_full("tensor.crop")) / n_steps,
        "count.denoiser_calls_per_step": len(in_full("denoiser.call")) / n_steps,
        "denoiser.calls": len(calls),
        "denoiser.call_p50_s": _p50(calls),
        "denoiser.call_max_s": max(calls, default=0.0),
        "denoiser.busy_s": busy("denoiser.call"),
        "fdp1.handshake_s": sum(durations("fdp1.handshake")),
        "fdp1.roundtrip_p50_s": _p50(roundtrips),
        "fdp1.roundtrip_max_s": max(roundtrips, default=0.0),
        "fdp1.pack_s": busy("fdp1.pack", "fdp1.pack_frame"),
        "fdp1.unpack_s": busy("fdp1.unpack"),
        "fdp1.wire_s": wire,
        "fdp1.pool_wait_s": pool_wait,
        "fdp1.frames": count("fdp1.pack_frame") + count("fdp1.recv"),
        "fdp1.bytes_sent": sent,
        "fdp1.bytes_recv": recv,
        "fdp1.mb_per_s": (sent + recv) / 1e6 / sum(roundtrips) if roundtrips else 0.0,
        "fdp1.failures": sum(s[ERROR] for n in ("fdp1.client", "fdp1.handshake") for s in named[n]),
        "stage.prior_s": prior_s,
        "stage.prior_runs": sum(1 for s in named["sampler.run"] if not s[META]),
        "stage.upsample_s": upsample_s,
        "stage.tiled_s": tiled_s,
        "config.resolve_s": busy("config.load_config_file", "config.apply_overrides", "config.resolve_settings"),
        "cli.write_s": busy("tensor.write_flt", "cli.write_text", "cli.write_manifest"),
        "metrics.tenengrad_s": busy("metrics.tenengrad"),
        "metrics.temporal_s": busy("metrics.temporal"),
    }
