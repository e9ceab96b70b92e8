"""The benchmark's hooks still fit the library.

perfbench/child.py times layers by replacing functions at the names where
tilefuse.cli, tilefuse.sampler, tilefuse.protocol and tilefuse.fusion look
them up (cli.make_noise, sampler.crop, protocol.pack_frame,
FusionAccumulator.zeros, ...). Renaming or deleting one of them, or moving
work where a traced span may not be, breaks the traced benchmark run and no
other test. These tests install every hook in a fresh interpreter and run,
through child.py, a small traced `sample` in process, the same `sample`
through FDP1 echo workers (the client's send and receive path) and a small
traced regional `sweep`; the spans of each must pass perfbench/layers.py's
checks.
"""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from tilefuse.netpbm import write_pgm

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))

INSTALL_EVERY_HOOK = """
import sys
import child
for install in (child.install_steps, child.install_trace, child.install_alloc):
    install({}, (2, 3, 24, 32), sys.argv[1])
print("installed")
"""

CONFIG = """
[run]
seed = 5
mode = fd
steps = 2
workers = 2

[canvas]
channels = 2
frames = 3
height = 24
width = 32

[tiles]
window_height = 12
window_width = 16
"""


def python(args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )


def test_every_hook_installs(tmp_path):
    done = python(["-c", INSTALL_EVERY_HOOK, str(tmp_path / "record.json")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "installed\n"


def traced(tmp_path, cli_args):
    """The spans of one CLI command on the 2x3x24x32 canvas, traced
    through child.py, and perfbench/layers.py loaded as a module."""
    (tmp_path / "run.ini").write_text(CONFIG)
    record = tmp_path / "record.json"
    done = python(
        [str(PERFBENCH / "child.py"), "trace", str(record), "2x3x24x32", "--",
         *cli_args, "--config", "run.ini"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return json.loads(record.read_text())["spans"], layers


def test_a_traced_sample_passes_the_span_checks(tmp_path):
    spans, layers = traced(tmp_path, ["sample", "--output", "out.flt"])
    assert layers.check(spans, layers.self_times(spans)) == []
    names = {s[layers.NAME] for s in spans}
    assert {"cli.pipeline", "sampler.noise", "sampler.step", "denoiser.call"} <= names
    full_steps = [s for s in spans if s[layers.NAME] == "sampler.step" and s[layers.META]]
    assert len(full_steps) == 2


def test_a_traced_fdp1_sample_passes_the_span_checks(tmp_path):
    """The same sample through a pool of two echo workers, so the client's
    send and receive path runs under the hooks that wrap it."""
    worker = f"{shlex.quote(sys.executable)} -m tilefuse.echo_worker"
    spans, layers = traced(tmp_path, [
        "sample", "--output", "out.flt",
        "--set", "denoiser.kind=external", "--set", f"denoiser.command={worker}",
    ])
    assert layers.check(spans, layers.self_times(spans)) == []
    names = {s[layers.NAME] for s in spans}
    assert {"fdp1.handshake", "fdp1.pool", "fdp1.client", "fdp1.recv", "denoiser.call"} <= names
    assert not [s for s in spans if s[layers.NAME].startswith("fdp1.") and s[layers.ERROR]]
    full_steps = [s for s in spans if s[layers.NAME] == "sampler.step" and s[layers.META]]
    assert len(full_steps) == 2


def test_a_traced_regional_sweep_passes_the_span_checks(tmp_path):
    """sweep reruns the tiled pass per grid point, with a regional
    strength plane read from a PGM activity map."""
    activity = np.zeros((24, 32), dtype=np.uint8)
    activity[6:18, 8:20] = 255
    write_pgm(tmp_path / "activity.pgm", activity)
    spans, layers = traced(tmp_path, [
        "sweep", "--lambda-grid", "0,1.5", "--tau-grid", "1.0", "--out", "sweep.tsv",
        "--set", "run.mode=fd_regional",
        "--set", "prior.activity_map=activity.pgm",
    ])
    assert layers.check(spans, layers.self_times(spans)) == []
    assert len((tmp_path / "sweep.tsv").read_text().splitlines()) == 3
    full_steps = [s for s in spans if s[layers.NAME] == "sampler.step" and s[layers.META]]
    assert len(full_steps) == 2 * 2  # two steps per grid point
