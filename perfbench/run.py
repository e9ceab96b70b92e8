"""tilefuse benchmark: the CLI end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each command is `tilefuse sample` or
`tilefuse sweep` in a fresh child process (perfbench/child.py), closed loop,
one command at a time, on inputs generated here from --seed: the INI config
and, for the regional workload, the PGM activity map.

--trace 0 runs one warm-up command (reported apart), then measured commands
until --seconds have passed (at least two), then set-up probes that stop at
the first full-canvas step, and prints the end-to-end metrics. --trace 1 runs the
command untimed-traced, traced and under tracemalloc, and prints the
per-layer metrics. Every command's output is checked against oracle.py,
which computes the same figures another way, and against the sha256 of
every other run of the workload on the same source tree. The last line of
stdout is one JSON object; the full result goes to .perfbench_work/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
WORKER_MODULE = "tilefuse.echo_worker"

REL_TOL = 1e-4  # outputs may change bits (ROADMAP allows it), not figures
COMMAND_TIMEOUT = 150.0
DEADLINE = 165.0  # start no optional command that could end after this
EXIT_BY = 178.0  # a command still running then is killed: runs end within 180 s
PROBES = 3
MIN_MEASURED = 2  # one reference command alone leaves step_p90_s ~ the max of 6
STEPS = 6
LAMBDA_GRID = (0.0, 0.5, 1.5, 5.0)
# Warm-ups run on the ROADMAP desk canvas: it takes the same code path and
# files, and a full-size warm-up would eat a third of the run budget.
DESK = (1, 1, 120, 208)

WORKLOADS = {
    # Reference canvas, the ROADMAP memory target; whole-canvas passes
    # dominate each step. In-process denoiser; FDP1 bypassed.
    "ref_fd_inproc": dict(
        command="sample", canvas=(16, 21, 272, 480), overlap=0.3,
        mode="fd", denoiser="gaussian",
        warmup=dict(canvas=DESK),
    ),
    # Quarter canvas over the FDP1 wire: the echo worker computes nothing,
    # so packing, pipe transfer and unpacking are the largest layer. The
    # warm-up doubles as the workers=1 determinism rerun.
    "half_fdp1_echo": dict(
        command="sample", canvas=(16, 21, 136, 240), overlap=0.5,
        mode="fd", denoiser="echo",
        warmup=dict(workers=1),
    ),
    # Regional strength is a plane, so every step takes the prior closed
    # form; 9x smaller tiles weigh per-tile costs; the prior stage, config
    # resolution and the metrics module run once per grid point.
    "sweep_regional": dict(
        command="sweep", canvas=(4, 9, 272, 480), overlap=0.3,
        mode="fd_regional", denoiser="gaussian",
        warmup=dict(canvas=DESK),
    ),
}


# ---------------------------------------------------------------- inputs

def activity_map(seed, h, w):
    """Random axis-aligned ellipses until about a quarter of cells are on."""
    rng = np.random.default_rng([seed, 7])
    rows, cols = np.mgrid[0:h, 0:w]
    mask = np.zeros((h, w), dtype=bool)
    while mask.mean() < 0.25:
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(0.05, 0.2) * h, rng.uniform(0.05, 0.2) * w
        mask |= ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
    return mask


def write_pgm(path, mask):
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write((mask * 255).astype(np.uint8).tobytes())


def make_spec(name, seed, workdir, **override):
    wl = WORKLOADS[name]
    spec = dict(
        workload=name, command=wl["command"], canvas=wl["canvas"],
        window=(60, 104), overlap=wl["overlap"], mode=wl["mode"],
        denoiser=wl["denoiser"], seed=seed, steps=STEPS, workers=2,
        tau=0.4, tau_active=0.2, tau_background=0.6, lambda_base=1.5,
    )
    spec.update(override)
    c, t, h, w = spec["canvas"]
    tag = f"{c}x{t}x{h}x{w}-w{spec['workers']}"
    lines = [
        "[run]", f"seed = {seed}", f"mode = {spec['mode']}", f"steps = {STEPS}",
        f"workers = {spec['workers']}",
        "[canvas]", f"channels = {c}", f"frames = {t}", f"height = {h}", f"width = {w}",
        "[tiles]", f"window_height = {spec['window'][0]}", f"window_width = {spec['window'][1]}",
        f"overlap = {spec['overlap']}",
        "[prior]", f"lambda_base = {spec['lambda_base']}", "schedule = gated_cosine",
        f"tau = {spec['tau']}", f"tau_active = {spec['tau_active']}",
        f"tau_background = {spec['tau_background']}",
    ]
    if spec["mode"] == "fd_regional":
        spec["activity"] = activity_map(seed, h, w)
        pgm = workdir / f"activity-{tag}.pgm"
        write_pgm(pgm, spec["activity"])
        lines.append(f"activity_map = {pgm}")
    if spec["denoiser"] == "echo":
        lines += ["[denoiser]", "kind = external", f"command = {shlex.quote(sys.executable)} -m {WORKER_MODULE}"]
    else:
        lines += ["[denoiser]", "kind = gaussian", "mean = 0.0", "std = 1.0"]
    spec["ini"] = workdir / f"run-{tag}.ini"
    spec["ini"].write_text("\n".join(lines) + "\n")
    spec["key"] = tag
    return spec


# ---------------------------------------------------------------- commands

def _procs_with(token):
    """Live processes whose environment carries token, read from /proc."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if token not in fh.read():
                    continue
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                found.append((int(pid), fh.read().replace(b"\0", b" ").decode(errors="replace")))
        except OSError:
            continue
    return found


def reap_leftovers(token):
    """Processes of a command that outlive it: a worker closed properly has
    been reaped before the command exits. Reported, killed, waited for."""
    left = _procs_with(token)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while _procs_with(token):
        time.sleep(0.05)
    return [cmd for _, cmd in left]


def run_command(spec, mode, workdir, index, started):
    """Launch one CLI command under child.py and check how it ended."""
    out = workdir / f"out-{index}"
    record_path = workdir / f"record-{index}.json"
    cli = ["sample", "--config", str(spec["ini"]), "--output", f"{out}.flt"]
    if spec["command"] == "sweep":
        grid = ",".join(f"{v:g}" for v in LAMBDA_GRID)
        cli = ["sweep", "--config", str(spec["ini"]), "--lambda-grid", grid,
               "--tau-grid", "1.0", "--out", f"{out}.tsv"]
    canvas = "x".join(map(str, spec["canvas"]))
    tag = f"{os.getpid()}-{index}."  # the dot keeps -1. from matching -10.
    env = {k: v for k, v in os.environ.items() if k != "TILEFUSE_MAX_WORKERS"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_CMD"] = tag
    timeout = max(5.0, min(COMMAND_TIMEOUT, EXIT_BY - (time.monotonic() - started)))
    res = dict(index=index, mode=mode, spec=spec["key"], errors=[])
    with open(workdir / f"stdout-{index}", "wb") as so, open(workdir / f"stderr-{index}", "wb") as se:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(record_path), canvas, "--", *cli],
            cwd=workdir, env=env, stdout=so, stderr=se,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    res["run_s"] = end - launch
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    stderr = (workdir / f"stderr-{index}").read_text(errors="replace")
    if proc.returncode != 0:
        res["errors"].append(f"exit code {proc.returncode}: {stderr.strip()[-400:]}")
    if "Traceback" in stderr:
        res["errors"].append("traceback on stderr")
    leftovers = reap_leftovers(f"PERFBENCH_CMD={tag}".encode())
    if leftovers:
        res["errors"].append(f"{len(leftovers)} worker processes outlived the command: {leftovers[0]}")
    record = {}
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        res["errors"].append("no instrumentation record")
    if mode == "probe":
        if "first_full_step" in record:
            res["setup_s"] = record["first_full_step"] - launch
        else:
            res["errors"].append("probe never reached a full-canvas step")
        return res
    full = [s for s in record.get("steps", []) if s[0]]
    if mode == "trace":
        full = [[True, s[layers.START], s[layers.END]] for s in record.get("spans", [])
                if s[layers.NAME] == "sampler.step" and s[layers.META]]
        res["spans"] = record.get("spans", [])
    passes = len(LAMBDA_GRID) if spec["command"] == "sweep" else 1
    if len(full) != STEPS * passes:
        res["errors"].append(f"{len(full)} full-canvas steps, expected {STEPS * passes}")
    if full:
        res["setup_s"] = full[0][1] - launch
    res["step_s"] = [e - s for _, s, e in full]
    res["fusion_peaks"] = record.get("fusion_peaks", [])
    if not res["errors"]:
        res["output"] = summarize_output(spec, out)
    for path in workdir.glob(f"out-{index}.*"):
        path.unlink()
    return res


def summarize_output(spec, out):
    """sha256 of the primary output plus the figures the oracle predicts."""
    if spec["command"] == "sweep":
        path = Path(f"{out}.tsv")
        text = path.read_text()
        return dict(sha256=hashlib.sha256(text.encode()).hexdigest(), table=text)
    path = Path(f"{out}.flt")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 24), b""):
            digest.update(block)
    c, t, h, w = np.fromfile(path, dtype="<u4", count=4, offset=8)
    latent = np.fromfile(path, dtype="<f4", offset=24).reshape(c, t * h * w)
    means = [float(row.mean(dtype=np.float64)) for row in latent]
    stds = [float(row.std(dtype=np.float64)) for row in latent]
    return dict(
        sha256=digest.hexdigest(), shape=[int(c), int(t), int(h), int(w)],
        mean=means, std=stds, trace=Path(f"{out}.flt.trace.tsv").read_text(),
    )


# ---------------------------------------------------------------- checks

def _close(a, b, rel=REL_TOL, floor=0.0):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(b), floor)


def _cells(line):
    return [None if v == "-" else float(v) for v in line.split("\t")]


def check_output(spec, summary, reference):
    """Compare one command's figures with the oracle's; returns problems."""
    problems = []
    if spec["command"] == "sweep":
        lines = summary["table"].strip().split("\n")[1:]
        if len(lines) != len(reference):
            return [f"sweep table has {len(lines)} rows, expected {len(reference)}"]
        for line, want in zip(lines, reference):
            got = _cells(line)
            for name, g, w in zip(("lambda", "tau", "prior_l2", "sharpness", "temporal"), got, want):
                if not _close(g, w):
                    problems.append(f"sweep {name} {g:.8g} != reference {w:.8g} (lambda {want[0]:g})")
        return problems
    means, stds, rows = reference
    if summary["shape"] != list(spec["canvas"]):
        return [f"output shape {summary['shape']} != canvas {list(spec['canvas'])}"]
    for ch, (m, s, rm, rs) in enumerate(zip(summary["mean"], summary["std"], means, stds)):
        if not (_close(s, rs) and abs(m - rm) <= REL_TOL * rs):
            problems.append(f"channel {ch}: mean/std {m:.6g}/{s:.6g} != reference {rm:.6g}/{rs:.6g}")
    lines = summary["trace"].strip().split("\n")[1:]
    if len(lines) != len(rows):
        return problems + [f"trace has {len(lines)} rows, expected {len(rows)}"]
    for line, want in zip(lines, rows):
        got = _cells(line)
        for k, (g, w) in enumerate(zip(got, want)):
            rel, floor = (REL_TOL, 0.0) if k >= 5 else (1e-6, 1.0)
            if (g is None) != (w is None) or (g is not None and not _close(g, w, rel, floor)):
                problems.append(f"trace step {want[0]} column {k}: {g} != reference {w}")
    return problems


def reference_for(spec):
    canvas = oracle.Canvas(spec)
    if spec["command"] == "sweep":
        rows = []
        for lam in LAMBDA_GRID:
            u, v, _ = canvas.run(lam)
            rows.append((lam, 1.0, *canvas.sweep_row(u, v)))
        return rows
    u, v, rows = canvas.run(spec["lambda_base"])
    return (*canvas.channel_stats(u, v), rows)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(name, seed, commands):
    """One digest per input set within a run, and the same digest as any
    earlier run on this source tree (kept in .perfbench_work)."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    tree = source_digest()
    seen = {}
    for cmd in commands:
        out = cmd.get("output")
        if not out:
            continue
        key = f"{name}:{seed}:{cmd['spec'].split('-w')[0]}:{tree}"
        want = seen.setdefault(key, known.get(key, out["sha256"]))
        if out["sha256"] != want:
            cmd["errors"].append(f"output sha256 differs from other runs of {key}")
        known.setdefault(key, want)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


# ---------------------------------------------------------------- facts

def machine_facts(spec):
    def cache_sizes():
        sizes = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            try:
                level = (idx / "level").read_text().strip()
                kind = (idx / "type").read_text().strip()
                size = (idx / "size").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction":
                sizes[f"L{level}"] = size
        return sizes

    mem_total = "unknown"
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    c, t, h, w = spec["canvas"]
    cells = c * t * h * w
    return dict(
        nproc=os.cpu_count(), mem_total=mem_total, python=platform.python_version(),
        numpy=np.__version__, caches=cache_sizes(), seed=spec["seed"],
        canvas=list(spec["canvas"]), canvas_mib=cells * 4 / 2**20,
        accumulator_mib=cells * 8 / 2**20,
    )


# ---------------------------------------------------------------- metrics

def end_to_end(measured, probes):
    steps = [d for cmd in measured for d in cmd.get("step_s", [])]
    setups = [cmd["setup_s"] for cmd in measured + probes if "setup_s" in cmd]
    return {
        "run_s": (statistics.median(cmd["run_s"] for cmd in measured), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "step_s": (statistics.median(steps) if steps else 0.0, "s"),
        "step_p90_s": (statistics.quantiles(steps, n=10, method="inclusive")[8] if len(steps) > 1 else 0.0, "s"),
        "peak_rss_mb": (statistics.median(cmd["peak_rss_mb"] for cmd in measured), "MiB"),
    }


UNITS = {"_per_s": "MB/s", "_s": "s", "_calls": "count", "_runs": "count", "_mb": "MiB"}


def unit_of(name):
    if name.startswith(("computed.", "fdp1.bytes", "fusion.bytes")):
        return "bytes"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("ratio", "canvas", "concurrency")) else "count"


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tilefuse" / "cli.py").is_file():
        print(f"perfbench: no tilefuse sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("perfbench: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = make_spec(args.workload, args.seed, workdir)
    warm_spec = make_spec(args.workload, args.seed, workdir, **WORKLOADS[args.workload]["warmup"])
    facts = machine_facts(spec)
    commands = []

    def launch(s, mode):
        cmd = run_command(s, mode, workdir, len(commands), started)
        commands.append(cmd)
        return cmd

    def time_left(estimate):
        return time.monotonic() - started + estimate < DEADLINE

    warm = None
    probes = []
    if args.trace == 0:
        warm = launch(warm_spec, "steps")
        window = time.monotonic()
        measured = [launch(spec, "steps")]
        while (len(measured) < MIN_MEASURED or time.monotonic() - window < args.seconds) and time_left(
            measured[-1]["run_s"]
        ):
            measured.append(launch(spec, "steps"))
        for _ in range(PROBES):
            if time_left(measured[-1].get("setup_s", measured[-1]["run_s"]) * 1.5):
                probes.append(launch(spec, "probe"))
    else:
        if warm_spec["workers"] != spec["workers"]:
            warm = launch(warm_spec, "steps")  # the determinism rerun runs in every invocation
        measured = [launch(spec, "steps")]
        traced = launch(spec, "trace")
        alloc = launch(spec, "alloc")

    references = {}
    for cmd in commands:
        if "output" in cmd:
            s = spec if cmd["spec"] == spec["key"] else warm_spec
            if s["key"] not in references:
                references[s["key"]] = reference_for(s)
            found = check_output(s, cmd["output"], references[s["key"]])
            cmd["errors"] += found
    check_digests(args.workload, args.seed, commands)

    per_layer = {}
    if args.trace == 1:
        selfs = layers.self_times(traced.get("spans", []))
        found = layers.check(traced.get("spans", []), selfs)
        traced["errors"] += found[:20]
        per_layer = layers.layer_metrics(traced.get("spans", []), selfs, alloc["fusion_peaks"])
        c, t, h, w = spec["canvas"]
        per_layer["mem.rss_over_canvas"] = measured[0]["peak_rss_mb"] * 2**20 / (c * t * h * w * 4)
        per_layer["trace.overhead_ratio"] = traced["run_s"] / measured[0]["run_s"] - 1.0

    failed = sum(1 for cmd in commands if cmd["errors"])
    problems = [
        f"command {cmd['index']} ({cmd['mode']}, {cmd['spec']}): {err}"
        for cmd in commands for err in cmd["errors"]
    ]
    e2e = end_to_end(measured, probes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps({k: facts[k] for k in ("nproc", "mem_total", "python", "numpy", "caches")}))
    print(
        f"canvas {'x'.join(map(str, spec['canvas']))}: {facts['canvas_mib']:.1f} MiB float32, "
        f"accumulator {facts['accumulator_mib']:.1f} MiB float64, last-level cache "
        f"{facts['caches'].get('L3', facts['caches'].get('L2', '?'))}"
    )
    if warm is not None:
        print(f"warm-up (discarded, {warm['spec']}): run_s {warm['run_s']:.3f} s")
    print(f"{len(measured)} measured commands, {len(probes)} set-up probes, {len(commands)} commands in all")
    if args.trace == 0:
        for name, (value, unit) in e2e.items():
            print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  {'fail_ratio':<12} {failed / len(commands):12.4f} ratio ({failed}/{len(commands)})")
    for name, value in per_layer.items():
        print(f"  {name:<36} {value:16.6g} {unit_of(name)}")
    for line in problems:
        print(f"FAILED {line}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    detail = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        facts=facts, warmup=warm and {k: warm[k] for k in ("spec", "run_s", "peak_rss_mb")},
        commands=[{k: v for k, v in cmd.items() if k not in ("spans", "output")} for cmd in commands],
        end_to_end={k: v for k, (v, _) in e2e.items()}, per_layer=per_layer,
        fail_ratio=failed / len(commands), problems=problems,
    )
    (results / f"{workdir.name}.json").write_text(json.dumps(detail, indent=1, default=str))
    shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 1:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({
        "correct": not problems, "attempted": len(commands), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
