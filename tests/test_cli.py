import contextlib
import copy
import dataclasses
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import tilefuse
from tilefuse import GaussianAnalytic, cli, config, planner, protocol, read_flt, sampler, write_flt
from tilefuse.cli import main
from tilefuse.config import apply_overrides, default_config, load_config_file, resolve_settings
from tilefuse.errors import DenoiseError
from tilefuse.sampler import TiledSampler, fill_noise, make_noise
from tilefuse.netpbm import write_pgm

from conftest import random_latent

ECHO_EMBEDDER = f"{sys.executable} -m tilefuse.echo_worker"


def write_config(path, body):
    path.write_text(body)
    return str(path)


def base_target_config(tmp_path, target_path, extra=""):
    return write_config(
        tmp_path / "run.ini",
        f"""
[run]
seed = 11
mode = md
steps = 4
output = {tmp_path}/out.flt

[canvas]
channels = 1
frames = 1
height = 16
width = 16

[tiles]
window_height = 8
window_width = 8
overlap = 0.25

[denoiser]
kind = target
target = {target_path}
{extra}
""",
    )


@pytest.fixture
def target_file(rng, tmp_path):
    target = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
    path = tmp_path / "target.flt"
    write_flt(path, target)
    return path, target


class TestPlanCommand:
    def test_reference_pixel_plan(self, capsys):
        assert main(["plan", "--canvas", "2176x3840", "--window", "480x832",
                     "--overlap", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "window 60x104" in out
        assert "stride 42x72" in out
        assert "coverage min 1" in out

    def test_single_tile(self, capsys):
        assert main(["plan", "--canvas", "60x104", "--window", "60x104",
                     "--overlap", "0.3", "--latent"]) == 0
        assert "1 tiles" in capsys.readouterr().out

    def test_machine_lines(self, capsys):
        assert main(["plan", "--canvas", "128x128", "--window", "60x104",
                     "--overlap", "0.3", "--latent", "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0 0 60 104" in lines
        assert "68 24 60 104" in lines

    def test_bad_overlap_is_usage_error(self, capsys):
        assert main(["plan", "--canvas", "64x64", "--window", "32x32",
                     "--overlap", "1.5", "--latent"]) == 2

    def test_bad_dims_rejected(self, capsys):
        assert main(["plan", "--canvas", "64", "--window", "32x32"]) == 2

    @pytest.mark.parametrize("canvas, window, overlap", [
        ((1080, 1920), (480, 832), 0.3),  # 1080 is not a multiple of 16
        ((256, 256), (36, 36), 0.3),  # pixel and latent strides disagree
        ((128, 200), (256, 256), 0.3),  # one clipped tile
    ])
    def test_prints_the_plan_sample_runs(self, capsys, canvas, window, overlap):
        settings = resolve_settings(apply_overrides(default_config(), [
            f"canvas.pixel_height={canvas[0]}", f"canvas.pixel_width={canvas[1]}",
            f"tiles.pixel_window_height={window[0]}",
            f"tiles.pixel_window_width={window[1]}", f"tiles.overlap={overlap}",
        ]))
        plan = settings.tiled.plan()
        assert main(["plan", "--canvas", "{}x{}".format(*canvas), "--window",
                     "{}x{}".format(*window), "--overlap", str(overlap),
                     "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            f"canvas {plan.canvas_h}x{plan.canvas_w} latent, window "
            f"{plan.window_h}x{plan.window_w}, stride {plan.stride_h}x{plan.stride_w}, "
            f"{len(plan.tiles)} tiles"
        )
        cov = plan.coverage_counts()  # the per-axis counts' figures are the array's
        assert lines[1] == f"coverage min {cov.min()} max {cov.max()} mean {cov.mean():.3f}"
        assert lines[2:] == [f"{r.row} {r.col} {r.height} {r.width}" for r in plan.tiles]


PLAN_ARGS = ["plan", "--canvas", "128x128", "--window", "60x104", "--overlap", "0.3", "--latent"]


class TestMallocArenaPolicy:
    """main pins the process to one glibc malloc arena before it parses or
    dispatches anything; a C library without mallopt changes nothing."""

    def test_applied_once_before_the_subcommand(self, monkeypatch, capsys):
        events = []

        class Libc:
            def mallopt(self, param, value):
                events.append(("mallopt", param, value))
                return 1

        def libc(name):
            assert name is None  # the process's own symbols: its C library
            return Libc()

        plan = cli.cmd_plan
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        monkeypatch.setattr(cli, "cmd_plan", lambda args: events.append("plan") or plan(args))
        assert main(PLAN_ARGS) == 0
        assert events == [("mallopt", cli.M_ARENA_MAX, 1), "plan"]
        assert cli.M_ARENA_MAX == -8

    def test_no_mallopt_is_a_silent_no_op(self, monkeypatch, capsys):
        assert main(PLAN_ARGS) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert main(PLAN_ARGS) == 0
        assert capsys.readouterr() == expected


class TestSampleCommand:
    def test_target_run_reaches_target(self, tmp_path, target_file, capsys):
        path, target = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg]) == 0
        out = read_flt(tmp_path / "out.flt")
        assert np.allclose(out, target, atol=1e-3)

    def test_md_equals_fd_zero_base_byte_identical(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "a.flt"),
                     "--set", "run.mode=md"]) == 0
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "b.flt"),
                     "--set", "run.mode=fd", "--set", "prior.lambda_base=0"]) == 0
        assert (tmp_path / "a.flt").read_bytes() == (tmp_path / "b.flt").read_bytes()

    def test_manifest_reproduces_run_byte_identical(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg]) == 0
        first = (tmp_path / "out.flt").read_bytes()
        manifest = tmp_path / "out.flt.manifest.json"
        assert manifest.exists()
        assert main(["sample", "--from-manifest", str(manifest),
                     "--output", str(tmp_path / "redo.flt")]) == 0
        assert (tmp_path / "redo.flt").read_bytes() == first

    def test_manifest_contents(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "out.flt.manifest.json").read_text())
        assert doc["seed"] == 11
        assert doc["canvas_shape"] == [1, 1, 16, 16]
        assert set(doc["timings_s"]) == {"prior", "upsample", "tiled"}
        assert doc["config"]["run"]["mode"] == "md"

    def test_trace_file_written(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg]) == 0
        lines = (tmp_path / "out.flt.trace.tsv").read_text().splitlines()
        assert lines[0].startswith("step\t")
        assert len(lines) == 5

    def test_missing_activity_map_fails_before_compute(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        rc = main(["sample", "--config", cfg, "--set", "run.mode=fd_regional"])
        assert rc == 3
        assert "activity" in capsys.readouterr().err

    def test_regional_run_with_map(self, rng, tmp_path, target_file, capsys):
        path, _ = target_file
        board = ((np.indices((16, 16)).sum(axis=0) % 2) * 255).astype(np.uint8)
        map_path = tmp_path / "act.pgm"
        write_pgm(map_path, board)
        cfg = base_target_config(tmp_path, path)
        rc = main(["sample", "--config", cfg,
                   "--set", "run.mode=fd_regional",
                   "--set", f"prior.activity_map={map_path}"])
        assert rc == 0

    @pytest.mark.parametrize("mode", ["md", "fd"])
    def test_an_activity_map_splits_the_trace_in_every_mode(self, tmp_path, target_file, mode):
        path, _ = target_file
        board = ((np.indices((16, 16)).sum(axis=0) % 2) * 255).astype(np.uint8)
        write_pgm(tmp_path / "act.pgm", board)
        cfg = base_target_config(tmp_path, path)
        trace = tmp_path / "out.flt.trace.tsv"

        def fg_bg(*sets):
            argv = ["sample", "--config", cfg, "--set", f"run.mode={mode}"]
            assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0
            header, *rows = trace.read_text().splitlines()
            assert header.split("\t")[5:] == ["fg_mse", "bg_mse"]
            return [row.split("\t")[5:] for row in rows]

        assert all(bg == "-" for _, bg in fg_bg())  # no map: one part
        split = fg_bg(f"prior.activity_map={tmp_path / 'act.pgm'}")
        assert len(split) == 4
        assert all(math.isfinite(float(fg)) and math.isfinite(float(bg)) for fg, bg in split)

    @pytest.mark.parametrize("mode", ["md", "fd"])  # fd_regional: test_bad_value_fails_before_any_work
    def test_an_unreadable_activity_map_is_an_io_error_in_every_mode(self, tmp_path, target_file, capsys, mode):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        argv = ["sample", "--config", cfg, "--set", f"run.mode={mode}"]
        assert main(argv + ["--set", f"prior.activity_map={tmp_path / 'absent.pgm'}"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("out.flt*"))

    def test_missing_output_is_config_error(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = write_config(
            tmp_path / "no_out.ini",
            f"[canvas]\nheight = 8\nwidth = 8\nchannels = 1\nframes = 1\n"
            f"[tiles]\nwindow_height = 8\nwindow_width = 8\n"
            f"[denoiser]\nkind = target\ntarget = {path}\n",
        )
        assert main(["sample", "--config", cfg]) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.ini", "[run]\nbogus = 1\n")
        assert main(["sample", "--config", cfg]) == 3

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["sample", "--config", str(tmp_path / "absent.ini")]) == 4

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        (tmp_path / "bad.ini").write_bytes(b"[run]\nseed = \xff\n")
        out = tmp_path / "o.flt"
        assert main(["sample", "--config", str(tmp_path / "bad.ini"), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert "bad.ini" in err and "utf-8" in err
        assert not out.exists()

    def test_bad_ramp_is_config_error(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg, "--set", "blending.ramp=abc"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "blending.ramp" in err and "'abc'" in err

    @pytest.mark.parametrize("failing_stage", ["prior", "tiled"])
    def test_denoisers_closed_when_a_stage_fails(self, monkeypatch, tmp_path, capsys, failing_stage):
        """The one worker pool that serves both stages is closed once,
        whichever stage fails. Built-in denoisers hold no process, so
        nothing else is closed."""
        built, closed = [], []

        class Pool:
            def __call__(self, req):
                # the thumbnail stage of external_config is one 64x96 tile
                stage = "prior" if req.tile.shape[2:] == (64, 96) else "tiled"
                if stage == failing_stage:
                    raise RuntimeError("backbone crashed")
                return GaussianAnalytic(0.0, 1.0)(req)

            def close(self):
                closed.append(self)

        def build(settings, canvas_shape):
            built.append(Pool())
            return built[-1]

        monkeypatch.setattr(cli, "_build_denoiser", build)
        cfg = self.external_config(tmp_path, "unused")
        assert main(["sample", "--config", cfg]) == 5
        assert "step 0, tile 0 at (0,0): backbone crashed" in capsys.readouterr().err
        assert len(built) == 1 and closed == built

    def test_external_denoiser_pipeline(self, rng, tmp_path, capsys):
        # gaussian echo: velocity = tile means the run is a pure decay to 0
        cfg = write_config(
            tmp_path / "ext.ini",
            f"""
[run]
seed = 3
mode = md
steps = 3
output = {tmp_path}/ext.flt

[canvas]
channels = 1
frames = 1
height = 8
width = 8

[tiles]
window_height = 8
window_width = 8

[denoiser]
kind = external
command = {sys.executable} -m tilefuse.echo_worker
timeout = 60
""",
        )
        assert main(["sample", "--config", cfg]) == 0
        out = read_flt(tmp_path / "ext.flt")
        assert np.isfinite(out).all()


    @staticmethod
    def external_config(tmp_path, command, extra=""):
        return write_config(
            tmp_path / "ext.ini",
            f"""
[run]
seed = 5
mode = fd
steps = 3
workers = 2
output = {tmp_path}/ext.flt

[canvas]
channels = 2
frames = 2
height = 16
width = 24

[tiles]
window_height = 8
window_width = 8
overlap = 0.25

[denoiser]
kind = external
command = {command}
{extra}
""",
        )

    def test_one_worker_pool_serves_both_stages(self, monkeypatch, tmp_path):
        built, closed = [], []

        class Pool:
            def __call__(self, req):
                return GaussianAnalytic(0.0, 1.0)(req)

            def close(self):
                closed.append(self)

        def build(settings, canvas_shape):
            built.append(tuple(canvas_shape))
            return Pool()

        monkeypatch.setattr(cli, "_build_denoiser", build)
        cfg = self.external_config(tmp_path, "unused")
        assert main(["sample", "--config", cfg]) == 0
        assert built == [(2, 2, 16, 24)]  # one pool, built for the canvas
        assert len(closed) == 1

    def test_no_worker_outlives_a_failed_start(self, tmp_path, capsys):
        pids = tmp_path / "pids"
        script = tmp_path / "mute.py"
        script.write_text(
            "import os, sys, time\n"
            "with open(sys.argv[1], 'a') as fh:\n"
            "    fh.write(f'{os.getpid()}\\n')\n"
            "time.sleep(600)\n"
        )
        cfg = self.external_config(
            tmp_path, f"{sys.executable} {script} {pids}", "timeout = 1"
        )
        assert main(["sample", "--config", cfg]) == 5
        assert capsys.readouterr().err.count("\n") == 1
        for pid in (int(v) for v in pids.read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize(
        "override, code",
        [
            ("run.steps=0", 3),
            ("run.sigmas=1.0,1.0,0.5", 3),  # not strictly decreasing
            ("run.sigmas=1,0.5", 3),  # 2 steps, run.steps says 6
            ("tiles.overlap=1.5", 3),
            ("tiles.window_height=0", 3),  # a given 0 is given
            ("canvas.height=0", 3),
            ("blending.min_weight=2", 3),
            ("blending.ramp=-3", 3),
            ("run.workers=0", 3),
            ("denoiser.timeout=0", 3),
            ("denoiser.timeout=-1", 3),
            ("denoiser.std=-1", 3),
            ("prior.lambda_base=-1", 3),
            ("prior.lambda_base=inf", 3),
            ("prior.tau=nan", 3),
            ("prior.tau_active=0.5", 3),  # above tau_background
            ("run.mode=fd_regional", 3),  # no activity map
            ("run.seed=-1", 3),
            ("prior.activity_map=absent.pgm", 4),  # unreadable: an i/o error
            ("prior.latent=absent.flt", 4),
            # FDP1 sends the conditioning id with a u16 length
            pytest.param("denoiser.conditioning=" + "\u00e9" * 32768, 3,
                         id="denoiser.conditioning=<65536 bytes>-3"),
            # a command-line byte 0xff arrives as a lone surrogate, not UTF-8
            pytest.param("denoiser.conditioning=" + os.fsdecode(b"id\xff"), 3,
                         id="denoiser.conditioning=<not UTF-8>-3"),
        ],
    )
    def test_bad_value_fails_before_any_work(
        self, monkeypatch, tmp_path, capsys, override, code
    ):
        built = []
        monkeypatch.setattr(cli, "_build_denoiser", lambda *a: built.append(a))
        cfg = self.external_config(tmp_path, "unused")
        extra = ["--set", "run.mode=fd_regional"] if "activity_map" in override else []
        assert main(["sample", "--config", cfg, *extra, "--set", override]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize(
        "overrides",
        [["prior.latent=nan.flt"], ["denoiser.kind=target", "denoiser.target=nan.flt"]],
        ids=["prior-latent", "denoiser-target"],
    )
    def test_non_finite_input_file_is_io_error(self, monkeypatch, tmp_path, capsys, overrides):
        def spawn(command):
            raise AssertionError(f"a worker was started: {command}")

        monkeypatch.setattr(protocol, "_spawn", spawn)
        monkeypatch.chdir(tmp_path)
        bad = np.zeros((2, 2, 16, 24), np.float32)
        bad[1, 0, 3, 5] = np.nan
        write_flt(tmp_path / "nan.flt", bad)
        cfg = self.external_config(tmp_path, "unused")
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["sample", "--config", cfg, *sets]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_non_finite_worker_reply_is_compute_error(self, tmp_path, capsys):
        script = tmp_path / "nan_worker.py"
        script.write_text(
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda s,t,g,r,c,x: np.full(x.shape, np.nan, np.float32))\n"
        )
        cfg = self.external_config(tmp_path, f"{sys.executable} {script}", "timeout = 60")
        assert main(["sample", "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_a_reply_of_kind_byte_1_is_a_compute_error_and_leaves_no_worker(self, tmp_path, capsys):
        """A denoise reply's leading byte is always 0; any other value is a
        malformed frame, which poisons the worker that sent it."""
        body = (
            "from tilefuse import protocol\n"
            "def parts(tile):\n"
            "    head, data = protocol.flt_parts(tile)\n"
            "    return b'\\x01' + head, data\n"
            "protocol._denoise_response_parts = parts\n"
            "protocol.serve(denoise=lambda *a: a[-1])\n"
        )
        cfg = signal_config(tmp_path, worker_command(tmp_path, body), steps=2)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown prediction kind byte b'\\x01'" in err
        assert len(recorded_pids(tmp_path)) == 2
        assert not any(alive(pid) for pid in recorded_pids(tmp_path))
        assert not list(tmp_path.glob("out.flt*"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_a_sample_through_two_echo_workers_gives_back_every_fd(self, tmp_path):
        """The workers' pipes, their slab and every slot's mapping are
        closed when the run ends."""
        cfg = noise_config(tmp_path, 2, f"kind = external\ncommand = {ECHO_EMBEDDER}")

        def open_fds():  # fd: what it is open on; the fd that listdir used is gone
            links = {}
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(FileNotFoundError):
                    links[fd] = os.readlink(f"/proc/self/fd/{fd}")
            return links

        gc.collect()  # a failed run's slot may wait in a traceback cycle
        start = open_fds()
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")]) == 0
        assert open_fds() == start

    @pytest.mark.parametrize(
        "where, owner, name, workers",
        [
            pytest.param("noise draw", cli, "fill_noise", 2, id="noise-draw"),
            pytest.param("band task", sampler, "_band_update", 2, id="band-task"),
            # the plan is built before any worker starts
            pytest.param("tile plan", planner.TilePlan, "__post_init__", 0, id="tile-plan"),
        ],
    )
    def test_out_of_memory_is_one_line_and_exit_5(
        self, monkeypatch, tmp_path, capsys, where, owner, name, workers
    ):
        """An allocation that fails ends the run like a compute error: one
        line, exit 5, no worker left and no partial file. The MemoryError
        is raised by a stand-in, as numpy raises it; nothing large is
        allocated."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError(f"Unable to allocate 5.00 GiB in the {where}")

        monkeypatch.setattr(owner, name, out_of_memory)
        echo = "from tilefuse import protocol\nprotocol.serve(denoise=lambda *a: a[-1])\n"
        cfg = signal_config(tmp_path, worker_command(tmp_path, echo), steps=2)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")]) == 5
        err = capsys.readouterr().err
        assert err == f"compute error: out of memory: Unable to allocate 5.00 GiB in the {where}\n"
        assert len(recorded_pids(tmp_path)) == workers
        assert not any(alive(pid) for pid in recorded_pids(tmp_path))
        assert not list(tmp_path.rglob("*.tmp.*")) and not list(tmp_path.glob("out.flt*"))

    def test_out_of_memory_without_a_message_still_says_so(self, monkeypatch, capsys):
        def out_of_memory(self):
            raise MemoryError  # as Python raises it, with no text

        monkeypatch.setattr(planner.TilePlan, "__post_init__", out_of_memory)
        assert main(PLAN_ARGS) == 5
        assert capsys.readouterr().err == "compute error: out of memory: allocation failed\n"

    def test_manifest_with_retired_keys_reproduces_run(self, tmp_path, target_file, capsys):
        path, _ = target_file
        cfg = base_target_config(tmp_path, path)
        assert main(["sample", "--config", cfg]) == 0
        manifest = tmp_path / "out.flt.manifest.json"
        doc = json.loads(manifest.read_text())
        assert "strict" not in doc["config"]["run"]
        doc["config"]["run"].update(strict="true", prediction="flow")
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(doc))
        assert main(["sample", "--from-manifest", str(old),
                     "--output", str(tmp_path / "redo.flt")]) == 0
        assert (tmp_path / "redo.flt").read_bytes() == (tmp_path / "out.flt").read_bytes()
        capsys.readouterr()
        for key in ("strict=true", "prediction=flow"):
            assert main(["sample", "--config", cfg, "--set", f"run.{key}"]) == 3
            assert "unknown key" in capsys.readouterr().err


# a one-step run on a one-cell-deep 8x8 canvas
TINY_RUN = ["--set", "canvas.channels=1", "--set", "canvas.frames=1", "--set",
            "canvas.height=8", "--set", "canvas.width=8", "--set", "run.steps=1"]

# --embedder and --timeout values that must fail before any worker starts
METRICS_ALIGN = ["metrics", "--frames", "d", "--prior-frames", "d"]
SWEEP_ONE = ["sweep", "--lambda-grid", "0", *TINY_RUN]
BAD_EMBEDDER_FLAGS = {
    "metrics-embedder-quote": [*METRICS_ALIGN, "--embedder", "python 'x"],
    "sweep-embedder-quote": [*SWEEP_ONE, "--embedder", "python 'x"],
    "metrics-embedder-blank": [*METRICS_ALIGN, "--embedder", " "],
    "sweep-embedder-blank": [*SWEEP_ONE, "--embedder", " "],
    "timeout-nan": [*METRICS_ALIGN, "--embedder", ECHO_EMBEDDER, "--timeout", "nan"],
    "timeout-zero": [*SWEEP_ONE, "--embedder", ECHO_EMBEDDER, "--timeout", "0"],
    "timeout-negative": [*METRICS_ALIGN, "--embedder", ECHO_EMBEDDER, "--timeout", "-1"],
}


@pytest.mark.parametrize(
    "argv, manifest, code",
    [
        (["sample", "--output", "o.flt", "--set", "canvas.height=8", "--set",
          "canvas.width=8", "--set", 'denoiser.command=python "x'], None, 3),
        (["sample", "--from-manifest", "m.json"], "{not json", 3),
        (["sample", "--from-manifest", "m.json"], '{"config": {"run": 1}}', 3),
        (["sweep", "--lambda-grid", "abc"], None, 2),
        (["sweep", "--tau-grid", ""], None, 2),
        # the output path is the existing directory d
        (["sample", "--output", "d", *TINY_RUN], None, 4),
        (["sample", "--output", "o.flt", "--set", "run.manifest=d", *TINY_RUN], None, 4),
        (["sweep", "--lambda-grid", "0", "--out", "d", *TINY_RUN], None, 4),
        (["metrics", "--frames", "d", "--out", "d"], None, 4),
        *[(argv, None, 2) for argv in BAD_EMBEDDER_FLAGS.values()],
        (["metrics", "--frames", "d", "--seam-window", "2x2", "--seam-factor", "0"], None, 2),
        # argparse's own errors
        (["plan", "--window", "5x5"], None, 2),
        (["sample", "--bogus"], None, 2),
        ([], None, 2),
        # flag values
        (["metrics", "--frames", "d", "--timeout", "abc"], None, 2),
        (["metrics", "--frames", "d", "--prior-frames", "d"], None, 2),
        (["metrics", "--frames", "d", "--seam-overlap", "x"], None, 2),  # a flag metrics ignores
        (["sweep", "--lambda-grid", "0,nan"], None, 2),
        # a grid axis that the tiled schedule ignores holds one value only
        (["sweep", "--tau-grid", "0.05,0.9", "--set", "run.mode=fd_regional",
          "--set", "prior.activity_map=d/f0.pgm", *TINY_RUN], None, 3),
        (["sweep", "--tau-grid", "0.05,0.9", "--set", "prior.schedule=constant", *TINY_RUN], None, 3),
        (["sweep", "--tau-grid", "0.05,0.9", "--set", "prior.schedule=cosine", *TINY_RUN], None, 3),
        (["sweep", "--lambda-grid", "0,1.5", "--set", "run.mode=md", *TINY_RUN], None, 3),
        (["sweep", "--lambda-grid", "0", "--tau-grid", "0.05,0.9", "--set", "run.mode=md",
          *TINY_RUN], None, 3),
        # two values of one axis that give every point the same strength
        (["sweep", "--lambda-grid", "0,0", *TINY_RUN], None, 3),
        (["sweep", "--lambda-grid", "1.5,1.5", "--set", "run.mode=fd_regional",
          "--set", "prior.activity_map=d/f0.pgm", *TINY_RUN], None, 3),
        (["sweep", "--tau-grid", "0.05,0.1", *TINY_RUN, "--set", "run.steps=6"], None, 3),
        # one source of settings
        (["sample", "--from-manifest", "m.json", "--config", "/nonexistent.ini"], "{}", 2),
    ],
    ids=["command-quote", "manifest-not-json", "manifest-config-shape", "lambda-grid", "tau-grid",
         "sample-output-dir", "manifest-dir", "sweep-out-dir", "metrics-out-dir",
         *BAD_EMBEDDER_FLAGS, "seam-factor-zero", "plan-missing-canvas", "sample-unknown-flag",
         "no-command", "metrics-timeout-text", "prior-frames-without-embedder",
         "ignored-seam-overlap", "lambda-grid-nan", "tau-grid-regional", "tau-grid-constant",
         "tau-grid-cosine", "lambda-grid-md", "tau-grid-md", "lambda-grid-repeat",
         "lambda-grid-repeat-regional", "tau-grid-same-gate", "config-and-manifest"],
)
def test_input_error_is_one_line(monkeypatch, tmp_path, capsys, argv, manifest, code):
    monkeypatch.chdir(tmp_path)
    if manifest is not None:
        (tmp_path / "m.json").write_text(manifest)
    (tmp_path / "d").mkdir()
    write_pgm(tmp_path / "d" / "f0.pgm", np.zeros((8, 8), dtype=np.uint8))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "d").is_dir()
    assert not list(tmp_path.rglob("*.tmp.*"))


@pytest.mark.parametrize(
    "sets",
    [["run.mode=md"], ["prior.schedule=constant"], ["prior.schedule=cosine"],
     ["run.mode=fd_regional", "prior.activity_map=d/f0.pgm"]],
    ids=["md", "constant", "cosine", "fd_regional"],
)
def test_a_sweep_of_one_point_runs_in_every_mode(monkeypatch, tmp_path, capsys, sets):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    write_pgm(tmp_path / "d" / "f0.pgm", np.zeros((8, 8), dtype=np.uint8))
    argv = ["sweep", "--lambda-grid", "1.5", "--tau-grid", "0.5", *TINY_RUN]
    assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# Two values of one grid axis that give every point the same prior strength
# at every step of a 6-step run: the flag, the two values, the settings.
REGIONAL = ["run.mode=fd_regional", "prior.activity_map=board.pgm"]
SAME_STRENGTH = {
    "lambda-grid-repeat": ("--lambda-grid", "0", "0", []),
    "lambda-grid-repeat-regional": ("--lambda-grid", "1.5", "1.5", REGIONAL),
    "tau-grid-same-gate": ("--tau-grid", "0.05", "0.1", []),  # both gate steps 1 to 5
    "tau-grid-regional": ("--tau-grid", "0.05", "0.9", REGIONAL),
    "tau-grid-constant": ("--tau-grid", "0.05", "0.9", ["prior.schedule=constant"]),
    "tau-grid-cosine": ("--tau-grid", "0.05", "0.9", ["prior.schedule=cosine"]),
    "lambda-grid-md": ("--lambda-grid", "0", "1.5", ["run.mode=md"]),
    "tau-grid-md": ("--tau-grid", "0.05", "0.9", ["run.mode=md"]),
}


@pytest.mark.parametrize("flag, a, b, sets", SAME_STRENGTH.values(), ids=SAME_STRENGTH.keys())
def test_values_of_the_same_strength_would_rerun_the_same_point(
    monkeypatch, tmp_path, capsys, flag, a, b, sets
):
    """The premise of the sweep's one rule: such two values, each swept
    alone at one value of the other axis, write the same row past the two
    grid columns; swept together, they exit 3 before any run."""
    monkeypatch.chdir(tmp_path)
    write_pgm(tmp_path / "board.pgm", ((np.indices((8, 8)).sum(axis=0) % 2) * 255).astype(np.uint8))
    other = ["--tau-grid", "0.5"] if flag == "--lambda-grid" else ["--lambda-grid", "1.5"]

    def sweep(values):
        argv = ["sweep", flag, values, *other, *TINY_RUN, "--set", "run.steps=6"]
        return main(argv + [arg for item in sets for arg in ("--set", item)])

    rows = []
    for value in (a, b):
        assert sweep(value) == 0
        rows.append(capsys.readouterr().out.splitlines()[1].split("\t"))
    assert rows[0][2:] == rows[1][2:]

    def no_run(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(cli, "run_pipeline", no_run)
    assert sweep(f"{a},{b}") == 3
    assert capsys.readouterr().err == (
        f"config error: {flag} values {a} and {b} give every point "
        "the same prior strength at every step\n"
    )


def test_points_at_strength_0_may_repeat_across_taus(monkeypatch, tmp_path, capsys):
    """At lambda 1.5, taus 0.1 and 0.5 gate different steps, so the grid
    runs all four points, though both lambda-0 rows are the plain merge."""
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--lambda-grid", "0,1.5", "--tau-grid", "0.1,0.5", *TINY_RUN]
    assert main([*argv, "--set", "run.steps=6"]) == 0
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["0", "0.1"], ["0", "0.5"], ["1.5", "0.1"], ["1.5", "0.5"]]
    assert rows[0][2:] == rows[1][2:]
    assert rows[2][2:] != rows[3][2:]


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--window", "32x32", "--canvas", "64"],
        ["plan", "--canvas", "64x64", "--window", "32x32x2"],
        ["plan", "--canvas", "64x64", "--window", "32x32", "--overlap", "x"],
        ["plan", "--canvas", "64x64", "--window", "32x32", "--factor", "1.5"],
        ["metrics", "--frames", "d", "--embedder", " "],
        ["metrics", "--frames", "d", "--timeout", "inf"],
        ["metrics", "--frames", "d", "--seam-window", "axb"],
        ["metrics", "--frames", "d", "--seam-overlap", "nan"],
        ["metrics", "--frames", "d", "--seam-factor", "x"],
        ["sweep", "--timeout", "x"],
        ["sweep", "--tau-grid", "1,inf"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}={argv[-1]}",
)
def test_bad_flag_value_is_a_usage_error_naming_the_flag(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"usage error: {argv[-2]} must be ")


@pytest.mark.parametrize("argv", BAD_EMBEDDER_FLAGS.values(), ids=BAD_EMBEDDER_FLAGS.keys())
def test_bad_embedder_flag_starts_no_worker(monkeypatch, tmp_path, capsys, argv):
    def spawn(command):
        raise AssertionError(f"a worker was started: {command}")

    monkeypatch.setattr(protocol, "_spawn", spawn)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    write_pgm(tmp_path / "d" / "f0.pgm", np.zeros((8, 8), dtype=np.uint8))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: --")


class TestMetricsCommand:
    def test_static_video_scores(self, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        img = np.full((32, 32), 90, dtype=np.uint8)
        for k in range(3):
            write_pgm(frames_dir / f"f{k:03d}.pgm", img)
        assert main(["metrics", "--frames", str(frames_dir)]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        vals = dict(zip(header.split("\t"), row.split("\t")))
        assert float(vals["tenengrad"]) == 0.0
        assert float(vals["temporal_consistency"]) == 0.0

    def test_alignment_with_echo_embedder(self, rng, tmp_path, capsys):
        frames_dir = tmp_path / "g"
        prior_dir = tmp_path / "p"
        frames_dir.mkdir()
        prior_dir.mkdir()
        for k in range(2):
            img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            write_pgm(frames_dir / f"f{k}.pgm", img)
            write_pgm(prior_dir / f"f{k}.pgm", img)
        assert main([
            "metrics", "--frames", str(frames_dir), "--prior-frames",
            str(prior_dir), "--embedder", ECHO_EMBEDDER, "--timeout", "60",
        ]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        vals = dict(zip(header.split("\t"), row.split("\t")))
        assert float(vals["prior_alignment"]) == pytest.approx(1.0, abs=1e-6)

    def test_timeout_beyond_the_platform_time_range(self, rng, tmp_path, capsys):
        for k in range(2):
            write_pgm(tmp_path / f"f{k}.pgm", rng.integers(0, 256, (8, 8)).astype(np.uint8))
        assert main(["metrics", "--frames", str(tmp_path), "--prior-frames", str(tmp_path),
                     "--embedder", ECHO_EMBEDDER, "--timeout", "1e10"]) == 0
        assert "prior_alignment" in capsys.readouterr().out

    def test_non_finite_flt_frame_is_io_error(self, tmp_path, capsys):
        frame = np.zeros((1, 1, 4, 4), np.float32)
        frame[0, 0, 1, 2] = np.inf
        write_flt(tmp_path / "f0.flt", frame)
        assert main(["metrics", "--frames", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_frame_format_is_picked_by_magic(self, rng, tmp_path, capsys):
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_pgm(tmp_path / "a" / "f0.pgm", img)
        write_flt(tmp_path / "b" / "f0.pgm", img.astype(np.float32)[None, None])  # misnamed
        tables = []
        for d in ("a", "b"):
            assert main(["metrics", "--frames", str(tmp_path / d)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_empty_dir_is_io_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["metrics", "--frames", str(empty)]) == 4

    def test_flt_frames_accepted(self, rng, tmp_path, capsys):
        frames_dir = tmp_path / "flt_frames"
        frames_dir.mkdir()
        from tilefuse import write_flt as _write

        for k in range(2):
            frame = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
            _write(frames_dir / f"f{k}.flt", frame)
        assert main(["metrics", "--frames", str(frames_dir)]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[1].split("\t")[1]) > 0  # tenengrad

    def test_seam_column(self, rng, tmp_path, capsys):
        frames_dir = tmp_path / "seam_frames"
        frames_dir.mkdir()
        frame = np.zeros((64, 64), dtype=np.uint8)
        frame[:, 32:] = 200  # hard edge on the tile boundary
        write_pgm(frames_dir / "f0.pgm", frame)
        write_pgm(frames_dir / "f1.pgm", frame)
        assert main(["metrics", "--frames", str(frames_dir),
                     "--seam-window", "4x4", "--seam-overlap", "0.0"]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        vals = dict(zip(header.split("\t"), row.split("\t")))
        assert float(vals["seam_excess"]) > 10.0


class TestSweepCommand:
    def test_prior_distance_holds_one_float64_channel(self, rng):
        """_distance's temporaries are one float64 channel and one frame's
        expansion, and its sum is the per-channel whole-expansion form's."""
        c, t, h, w = 2, 8, 40, 64
        x = random_latent(rng, (c, t, h, w))
        prior = random_latent(rng, (c, t, 5, 8))
        tracemalloc.start()
        try:
            sampler.expand_prior(prior[0, 0], h, w)  # builds its tables too
            frame = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            got = cli._distance(x, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 16 << 10  # ufunc buffers and Python objects
        assert peak < t * h * w * 8 + frame + slack
        want = math.sqrt(sum(
            np.square(ch.astype(np.float64) - sampler.expand_prior(src, h, w)).sum()
            for ch, src in zip(x, prior)
        ))
        assert got == want

    def test_prior_distance_monotone(self, rng, tmp_path, capsys):
        target = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        prior = rng.uniform(0, 1, (1, 1, 6, 10)).astype(np.float32)
        target_path = tmp_path / "t.flt"
        prior_path = tmp_path / "p.flt"
        write_flt(target_path, target)
        write_flt(prior_path, prior)
        cfg = write_config(
            tmp_path / "sweep.ini",
            f"""
[run]
seed = 9
mode = fd
steps = 4

[canvas]
channels = 1
frames = 1
height = 16
width = 16

[tiles]
window_height = 8
window_width = 8

[prior]
schedule = constant
latent = {prior_path}

[denoiser]
kind = target
target = {target_path}
""",
        )
        out_path = tmp_path / "sweep.tsv"
        assert main(["sweep", "--config", cfg, "--lambda-grid", "0,0.5,1.5,5",
                     "--tau-grid", "1.0", "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].split("\t")[0] == "lambda_base"
        dists = [float(line.split("\t")[2]) for line in lines[1:]]
        assert len(dists) == 4
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))

        # alignment column appears when an embedder is configured
        assert main(["sweep", "--config", cfg, "--lambda-grid", "0,5",
                     "--tau-grid", "1.0", "--embedder", ECHO_EMBEDDER,
                     "--timeout", "60", "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].split("\t")[-1] == "prior_alignment"
        aligns = [float(line.split("\t")[-1]) for line in lines[1:]]
        assert aligns[-1] >= aligns[0] - 1e-6  # stronger prior, closer frames

    def test_prior_pass_runs_once_and_rows_match_single_runs(self, monkeypatch, tmp_path):
        cfg = write_config(
            tmp_path / "sweep.ini",
            """
[run]
seed = 21
mode = fd
steps = 3

[canvas]
channels = 1
frames = 2
height = 16
width = 24

[tiles]
window_height = 8
window_width = 8
""",
        )
        streams = []
        make_noise, fill_noise = cli.make_noise, cli.fill_noise

        def counting_noise(shape, seed, stream=0):
            streams.append(stream)
            return make_noise(shape, seed, stream)

        def counting_fill(out, seed, stream=0):  # the tiled pass's background draw
            streams.append(stream)
            fill_noise(out, seed, stream)

        monkeypatch.setattr(cli, "make_noise", counting_noise)
        monkeypatch.setattr(cli, "fill_noise", counting_fill)

        def sweep(lambdas, taus, name):
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--lambda-grid", lambdas,
                         "--tau-grid", taus, "--out", str(out)]) == 0
            return out.read_text().splitlines()

        table = sweep("0.5,1.5", "0.2,1", "grid.tsv")
        # one prior pass, four tiled passes; the first tiled draw runs
        # beside the prior pass, so the two may be counted in either order
        assert sorted(streams) == [0, 1, 1, 1, 1]
        singles = [
            sweep(lam, tau, f"{lam}-{tau}.tsv")
            for lam in ("0.5", "1.5")
            for tau in ("0.2", "1")
        ]
        assert table == singles[0][:1] + [rows[1] for rows in singles]

    @pytest.mark.parametrize(
        "mode, lambdas, taus",
        [("fd_regional", "0,0.5,1.5,5", "1.0"), ("fd", "0.5,1.5", "0.2,1")],
    )
    def test_four_points_read_each_file_once(self, monkeypatch, tmp_path, mode, lambdas, taus):
        """A 4-point sweep reads its INI file and activity map once and
        derives every point's settings from them; its table is
        byte-identical to the one of points each resolved from the file
        on their own."""
        board = ((np.indices((16, 24)).sum(axis=0) % 3 == 0) * 255).astype(np.uint8)
        write_pgm(tmp_path / "act.pgm", board)
        cfg = write_config(
            tmp_path / "sweep.ini",
            f"""
[run]
seed = 17
mode = {mode}
steps = 3

[canvas]
channels = 2
frames = 2
height = 16
width = 24

[tiles]
window_height = 8
window_width = 8

[prior]
activity_map = {tmp_path / "act.pgm"}
""",
        )
        reads = []
        load_config_file, load_activity_map = cli.load_config_file, config.load_activity_map
        monkeypatch.setattr(cli, "load_config_file", lambda path: reads.append(path) or load_config_file(path))
        monkeypatch.setattr(
            config, "load_activity_map",
            lambda path, h, w: reads.append(path) or load_activity_map(path, h, w),
        )
        sweep = ["sweep", "--config", cfg, "--lambda-grid", lambdas, "--tau-grid", taus, "--out"]
        assert main([*sweep, str(tmp_path / "once.tsv")]) == 0
        assert reads == [cfg, str(tmp_path / "act.pgm")]

        def alone(settings, lam, tau):
            overrides = [f"prior.lambda_base={lam}", f"prior.tau={tau}"]
            return resolve_settings(apply_overrides(load_config_file(cfg), overrides))

        monkeypatch.setattr(cli, "_grid_point", alone)
        assert main([*sweep, str(tmp_path / "alone.tsv")]) == 0
        table = (tmp_path / "once.tsv").read_bytes()
        assert table.count(b"\n") == 5
        assert table == (tmp_path / "alone.tsv").read_bytes()


    def test_points_share_the_plan_and_the_activity_map(self, monkeypatch, tmp_path):
        """Every grid point holds the settings' plan, weight map and
        activity map, not copies, and the table is byte-identical to the
        one of points rebuilt by dataclasses.replace."""
        board = ((np.indices((16, 24)).sum(axis=0) % 3 == 0) * 255).astype(np.uint8)
        write_pgm(tmp_path / "act.pgm", board)
        cfg = write_config(
            tmp_path / "sweep.ini",
            f"""
[run]
seed = 17
mode = fd_regional
steps = 3

[canvas]
channels = 2
frames = 2
height = 16
width = 24

[tiles]
window_height = 8
window_width = 8

[prior]
activity_map = {tmp_path / "act.pgm"}
""",
        )
        settings = resolve_settings(load_config_file(cfg))
        tiled = settings.tiled
        points = [cli._grid_point(settings, lam, tau) for lam in (0.5, 1.5) for tau in (0.2, 1.0)]
        for point in points:
            assert point.tiled.plan() is tiled.plan()
            assert point.tiled.weight_map() is tiled.weight_map()
            assert point.tiled.prior.activity_map is tiled.prior.activity_map
        assert [(p.tiled.prior.lambda_base, p.tiled.prior.tau) for p in points] == [
            (0.5, 0.2), (0.5, 1.0), (1.5, 0.2), (1.5, 1.0)
        ]

        sweep = ["sweep", "--config", cfg, "--lambda-grid", "0,0.5,1.5,5", "--tau-grid", "1", "--out"]
        assert main([*sweep, str(tmp_path / "shared.tsv")]) == 0

        def rebuilt(settings, lam, tau):
            point = copy.copy(settings)
            prior = dataclasses.replace(settings.tiled.prior, lambda_base=lam, tau=tau)
            point.tiled = dataclasses.replace(settings.tiled, prior=prior)
            assert point.tiled.plan() is not settings.tiled.plan()
            return point

        monkeypatch.setattr(cli, "_grid_point", rebuilt)
        assert main([*sweep, str(tmp_path / "rebuilt.tsv")]) == 0
        table = (tmp_path / "shared.tsv").read_bytes()
        assert table.count(b"\n") == 5
        assert table == (tmp_path / "rebuilt.tsv").read_bytes()

    def test_a_config_with_another_prior_checks_its_map(self, tmp_path):
        cfg = sampler.SamplerConfig(canvas_shape=(1, 1, 16, 24), window_h=8, window_w=8)
        wrong = tilefuse.PriorScheduleConfig(mode="regional", activity_map=np.ones((16, 23), bool))
        with pytest.raises(tilefuse.errors.ConfigError, match=r"activity map \(16, 23\) does not match"):
            cfg.with_prior(wrong)


def record_sampler_traces(monkeypatch):
    """Patch the CLI's TiledSampler to note (canvas shape, trace) of every
    sampler built. Returns the notes."""
    built = []

    class Recording(TiledSampler):
        def __init__(self, cfg, denoiser, prior=None, trace=True):
            built.append((cfg.canvas_shape, trace))
            super().__init__(cfg, denoiser, prior, trace=trace)

    monkeypatch.setattr(cli, "TiledSampler", Recording)
    return built


class TestUntracedPasses:
    """Only the trace that a command writes is computed: sample's tiled
    pass is traced, its thumbnail pass and every sweep point are not."""

    def test_sample_traces_the_tiled_pass_alone(self, monkeypatch, tmp_path):
        built = record_sampler_traces(monkeypatch)
        settings = noise_settings(tmp_path, 2)
        out = tmp_path / "out.flt"
        assert main(["sample", "--config", noise_config(tmp_path, 2), "--output", str(out)]) == 0
        assert built == [(settings.prior_stage.canvas_shape, False), (NOISE_CANVAS, True)]
        assert (tmp_path / "out.flt.trace.tsv").read_text().count("\n") == 1 + 3

    def test_sweep_points_are_untraced_with_the_traced_table(self, monkeypatch, tmp_path):
        board = ((np.indices((24, 32)).sum(axis=0) % 3 == 0) * 255).astype(np.uint8)
        write_pgm(tmp_path / "act.pgm", board)
        regional = ["--set", "run.mode=fd_regional", "--set", f"prior.activity_map={tmp_path / 'act.pgm'}"]
        built = record_sampler_traces(monkeypatch)

        def sweep(name):
            out = tmp_path / name
            assert main(["sweep", "--config", noise_config(tmp_path, 2), *regional,
                         "--lambda-grid", "0,0.5,5", "--tau-grid", "1.0", "--out", str(out)]) == 0
            return out.read_bytes()

        untraced = sweep("untraced.tsv")
        assert [trace for _, trace in built] == [False] * 4
        built.clear()
        pipeline = cli.run_pipeline
        monkeypatch.setattr(
            cli, "run_pipeline", lambda settings, prior=None, trace=True: pipeline(settings, prior)
        )
        assert sweep("traced.tsv") == untraced
        assert [trace for _, trace in built] == [False, True, True, True]


def noise_config(tmp_path, workers, denoiser="kind = gaussian"):
    return write_config(
        tmp_path / f"noise-{workers}.ini",
        f"""
[run]
seed = 13
mode = fd
steps = 3
workers = {workers}

[canvas]
channels = 2
frames = 3
height = 24
width = 32

[tiles]
window_height = 12
window_width = 16
overlap = 0.25

[denoiser]
{denoiser}
""",
    )


NOISE_CANVAS = (2, 3, 24, 32)


def noise_settings(tmp_path, workers):
    return resolve_settings(load_config_file(noise_config(tmp_path, workers)))


def record_tiled_runs(monkeypatch, synchronous=False):
    """Patch TiledSampler.run to note each tiled run's initial noise and its
    bytes; with synchronous, hand the run make_noise's canvas, drawn on the
    calling thread, in place of the background draw. Returns the notes."""
    original_run = TiledSampler.run
    notes = []

    def run(self, initial_noise=None):
        if self.cfg.canvas_shape == NOISE_CANVAS:
            if synchronous:
                initial_noise = make_noise(NOISE_CANVAS, 13, 1)
            notes.append((initial_noise, initial_noise.tobytes()))
        return original_run(self, initial_noise)

    monkeypatch.setattr(TiledSampler, "run", run)
    return notes


class TestTiledNoiseDraw:
    """The tiled pass's noise is drawn on a background thread while the
    prior pass runs, and the tiled run adopts that canvas as its latent."""

    def test_background_draw_equals_make_noise(self, monkeypatch, tmp_path):
        notes = record_tiled_runs(monkeypatch)
        threads = threading.active_count()
        x_final, *_ = cli.run_pipeline(noise_settings(tmp_path, 2))
        assert threading.active_count() == threads
        [(canvas, drawn)] = notes
        assert drawn == make_noise(NOISE_CANVAS, 13, 1).tobytes()
        assert x_final is canvas  # the run's latent is the drawn canvas

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "denoiser",
        ["kind = gaussian", f"kind = external\ncommand = {ECHO_EMBEDDER}"],
        ids=["gaussian", "echo"],
    )
    def test_output_matches_a_synchronous_draw(self, monkeypatch, tmp_path, workers, denoiser):
        cfg = noise_config(tmp_path, workers, denoiser)

        def digests(name):
            out = tmp_path / f"{name}.flt"
            threads = threading.active_count()
            assert main(["sample", "--config", cfg, "--output", str(out)]) == 0
            assert threading.active_count() == threads
            trace = tmp_path / f"{name}.flt.trace.tsv"
            return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, trace)]

        background = digests("background")
        record_tiled_runs(monkeypatch, synchronous=True)
        assert digests("synchronous") == background

    def test_tiled_run_gets_the_only_reference(self, monkeypatch, tmp_path):
        original_run, original_step = TiledSampler.run, TiledSampler.step
        holders, callers, originals, adopted = [], [], [], []

        def checking_run(self, initial_noise=None):
            if self.cfg.canvas_shape != NOISE_CANVAS:
                return original_run(self, initial_noise)
            me = sys._getframe()
            holders.extend(r for r in gc.get_referrers(initial_noise) if r is not me)
            frame = me.f_back
            while frame is not None:  # a loop, not a closure over initial_noise
                for value in frame.f_locals.values():
                    if value is initial_noise:
                        callers.append(frame.f_code.co_name)
                frame = frame.f_back
            originals.append(weakref.ref(initial_noise))
            passed = [initial_noise]
            del initial_noise  # so that this frame keeps no reference
            return original_run(self, passed.pop())

        def checking_step(self, x, i):
            if self.cfg.canvas_shape == NOISE_CANVAS and i == 0:
                adopted.append(originals[-1]() is x)
            return original_step(self, x, i)

        monkeypatch.setattr(TiledSampler, "run", checking_run)
        monkeypatch.setattr(TiledSampler, "step", checking_step)
        cfg = noise_config(tmp_path, 2)
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o.flt")]) == 0
        assert holders == [] and callers == []
        assert adopted == [True]  # the run's latent is the handed canvas, not a copy

    def test_thumbnail_is_freed_before_the_tiled_run(self, monkeypatch, tmp_path):
        """Once build_prior has made the row source, nothing holds the
        thumbnail latent through the tiled pass."""
        original_run = TiledSampler.run
        thumbnails, freed = [], []

        def run(self, initial_noise=None):
            if self.cfg.canvas_shape != NOISE_CANVAS:
                x, trace = original_run(self, initial_noise)
                thumbnails.append(weakref.ref(x))
                return x, trace
            freed.append(thumbnails[-1]() is None)
            return original_run(self, initial_noise)

        monkeypatch.setattr(TiledSampler, "run", run)
        cli.run_pipeline(noise_settings(tmp_path, 2))
        assert len(thumbnails) == 1 and freed == [True]

    def test_a_thumbnail_within_the_canvas_is_the_tiled_runs_source(self, monkeypatch, tmp_path):
        """On a canvas larger than the thumbnail, the thumbnail latent is
        itself the prior source: the tiled run holds it, uncopied, and
        run_pipeline returns it, so no canvas-wide prior is made."""
        cfg = write_config(
            tmp_path / "wide.ini",
            """
[run]
seed = 13
mode = fd
steps = 2
workers = 2

[canvas]
channels = 2
frames = 2
height = 80
width = 120

[tiles]
window_height = 40
window_width = 60
""",
        )
        settings = resolve_settings(load_config_file(cfg))
        thumbnail = settings.prior_stage.canvas_shape
        assert thumbnail[2] < 80 and thumbnail[3] < 120
        original_run = TiledSampler.run
        thumbnails, held = [], []

        def run(self, initial_noise=None):
            if self.cfg.canvas_shape == thumbnail:
                x, trace = original_run(self, initial_noise)
                thumbnails.append(x)
                return x, trace
            held.append(self.prior)
            return original_run(self, initial_noise)

        monkeypatch.setattr(TiledSampler, "run", run)
        _, _, source, _ = cli.run_pipeline(settings)
        assert len(thumbnails) == len(held) == 1
        assert held[0] is thumbnails[0] and source is thumbnails[0]

    def test_a_failed_draw_is_raised_on_the_calling_thread(self, monkeypatch, tmp_path):
        drawn_on = []

        def fail(out, seed, stream):
            drawn_on.append(threading.current_thread())
            raise DenoiseError("draw failed")

        monkeypatch.setattr(cli, "fill_noise", fail)
        notes = record_tiled_runs(monkeypatch)
        settings = noise_settings(tmp_path, 2)
        threads = threading.active_count()
        with pytest.raises(DenoiseError, match="draw failed"):
            cli.run_pipeline(settings)
        assert drawn_on and drawn_on[0] is not threading.current_thread()
        assert notes == []  # the tiled run never started
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failure, code", [("worker-exits", 5), ("bad-prior-latent", 4)])
    def test_failed_prior_stage_joins_the_draw(self, monkeypatch, tmp_path, capsys, failure, code):
        def slow_fill(out, seed, stream):  # still drawing when the prior stage fails
            time.sleep(0.5)
            fill_noise(out, seed, stream)

        monkeypatch.setattr(cli, "fill_noise", slow_fill)
        script = tmp_path / "exits.py"
        script.write_text(
            "import os\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda *request: os._exit(3))\n"
        )
        bad = tmp_path / "bad.flt"
        bad.write_bytes(b"FLT1 but not a tensor")
        cfg = noise_config(tmp_path, 2, f"kind = external\ncommand = {sys.executable} {script}")
        extra = ["--set", f"prior.latent={bad}"] if failure == "bad-prior-latent" else []
        threads = threading.active_count()
        assert main(["sample", "--config", cfg, "--output", str(tmp_path / "o.flt"), *extra]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert threading.active_count() == threads


# Restores both ending signals to their defaults: a process started from a
# background job inherits SIGINT ignored.
DEFAULT_HANDLERS = (
    "import os, signal, sys, time\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "signal.signal(signal.SIGTERM, signal.SIG_DFL)\n"
)

# Says "stepped" on stdout once the tiled pass of a 48x64 canvas has
# finished its first step.
SAY_STEPPED = (
    "from tilefuse.sampler import TiledSampler\n"
    "step = TiledSampler.step\n"
    "def step_and_say(self, x, i):\n"
    "    out = step(self, x, i)\n"
    "    if i == 0 and self.cfg.canvas_shape[2:] == (48, 64):\n"
    "        print('stepped', flush=True)\n"
    "    return out\n"
    "TiledSampler.step = step_and_say\n"
)

# Appends the worker's pid to the file named by its first argument.
RECORD_PID = (
    "import os, sys, time\n"
    "with open(sys.argv[1], 'a') as fh:\n"
    "    fh.write(f'{os.getpid()}\\n')\n"
)

ENDING_SIGNALS = pytest.mark.parametrize(
    "signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"]
)


def start_cli(argv, prelude="", **popen):
    """Run main on argv in a child Python, after DEFAULT_HANDLERS and then
    prelude, with this checkout's package on its path."""
    src = os.path.dirname(os.path.dirname(tilefuse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = DEFAULT_HANDLERS + prelude + "from tilefuse import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **popen,
    )


def signal_config(tmp_path, denoiser="kind = gaussian", steps=100):
    return write_config(
        tmp_path / "long.ini",
        f"""
[run]
seed = 5
mode = fd
steps = {steps}
workers = 2

[canvas]
channels = 2
frames = 3
height = 48
width = 64

[tiles]
window_height = 12
window_width = 16
overlap = 0.25

[denoiser]
{denoiser}
""",
    )


def worker_command(tmp_path, body, *args):
    """A denoiser section whose worker records its pid in tmp_path/pids
    and then runs body, with args after the pid file on its command line."""
    script = tmp_path / "worker.py"
    script.write_text(RECORD_PID + body)
    return f"kind = external\ncommand = {sys.executable} {script} {tmp_path / 'pids'} " + " ".join(args)


def recorded_pids(tmp_path):
    path = tmp_path / "pids"
    return [int(v) for v in path.read_text().split()] if path.exists() else []


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_everything(proc, pids):
    """SIGKILL the CLI child and every recorded worker, so that a failing
    test leaves no process behind."""
    proc.kill()
    proc.wait()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def outputs(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("out.flt"))


@pytest.mark.parametrize(
    "denoiser, group",
    [
        pytest.param("in-process", False, id="in-process"),
        pytest.param("echo-workers", False, id="echo-workers"),
        pytest.param("echo-workers", True, id="echo-workers-process-group"),
    ],
)
def test_sigint_is_one_line_and_exit_130(tmp_path, denoiser, group):
    """SIGINT in the tiled pass ends a sample at once with exit 130 and one
    stderr line: no traceback, no output or temporary file, and no worker
    left. Sent to the whole process group, as a terminal's Ctrl-C is, it
    does not reach the FDP1 workers, which run in sessions of their own
    and are killed by the CLI's handler."""
    section = "kind = gaussian"
    if denoiser == "echo-workers":
        section = worker_command(tmp_path, "from tilefuse.echo_worker import main\nmain([])\n")
    cfg = signal_config(tmp_path, section)
    proc = start_cli(
        ["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")],
        SAY_STEPPED, start_new_session=group,
    )
    deadline = threading.Timer(120, proc.kill)
    deadline.start()
    try:
        assert proc.stdout.readline() == b"stepped\n"
        if group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        rest, err = proc.communicate()
    finally:
        deadline.cancel()
        kill_everything(proc, recorded_pids(tmp_path))
    assert proc.returncode == 130
    assert (rest, err) == (b"", b"interrupted\n")
    assert outputs(tmp_path) == []
    if denoiser == "echo-workers":
        started = recorded_pids(tmp_path)
        assert len(started) == 2
        assert not any(alive(pid) for pid in started)


HUNG_WORKERS = {
    # takes 8 s to boot: the pool is waiting for the hellos
    "slow-hello": "time.sleep(8)\nfrom tilefuse.echo_worker import main\nmain([])\n",
    # answers the hello, then never answers a tile; it marks the file named
    # by its second argument when the first tile arrives
    "hung-tile": (
        "from tilefuse.protocol import serve\n"
        "def hang(*request):\n"
        "    open(sys.argv[2], 'w').close()\n"
        "    time.sleep(3600)\n"
        "serve(denoise=hang)\n"
    ),
}


@ENDING_SIGNALS
@pytest.mark.parametrize("worker", HUNG_WORKERS)
def test_a_signal_ends_a_run_with_hung_workers_at_once(tmp_path, worker, signum, code):
    """With workers that have not said hello yet, or one that hangs on a
    tile, a SIGINT or SIGTERM ends the run within 2 s, not at the
    denoiser's 300 s timeout: 128 + signum, one stderr line, no output or
    temporary file, and every worker killed and reaped."""
    hung = tmp_path / "hung"
    cfg = signal_config(tmp_path, worker_command(tmp_path, HUNG_WORKERS[worker], str(hung)))
    proc = start_cli(["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")])
    ready = hung.exists if worker == "hung-tile" else lambda: len(recorded_pids(tmp_path)) == 2
    try:
        limit = time.monotonic() + 60
        while not ready():
            assert proc.poll() is None and time.monotonic() < limit
            time.sleep(0.02)
        sent = time.monotonic()
        proc.send_signal(signum)
        rest, err = proc.communicate(timeout=60)
        took = time.monotonic() - sent
    finally:
        kill_everything(proc, recorded_pids(tmp_path))
    assert proc.returncode == code
    assert (rest, err) == (b"", b"interrupted\n")
    assert took < 2.0
    assert outputs(tmp_path) == []
    started = recorded_pids(tmp_path)
    assert len(started) == 2
    assert not any(alive(pid) for pid in started)


@ENDING_SIGNALS
def test_a_signal_while_the_output_is_written_leaves_no_file(tmp_path, signum, code):
    """A signal that arrives while the latent's temporary file is complete
    but not yet renamed removes that file: no output of any kind is left."""
    slow_replace = (
        "def slow_replace(src, dst):\n"
        "    print('replacing', flush=True)\n"
        "    time.sleep(3600)\n"
        "os.replace = slow_replace\n"
    )
    cfg = noise_config(tmp_path, 2)
    proc = start_cli(["sample", "--config", cfg, "--output", str(tmp_path / "out.flt")], slow_replace)
    try:
        assert proc.stdout.readline() == b"replacing\n"
        assert outputs(tmp_path) == [f"out.flt.tmp.{proc.pid}"]
        proc.send_signal(signum)
        rest, err = proc.communicate(timeout=60)
    finally:
        kill_everything(proc, [])
    assert proc.returncode == code
    assert (rest, err) == (b"", b"interrupted\n")
    assert outputs(tmp_path) == []


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_an_ignored_signal_lets_the_run_finish(tmp_path, signum):
    """A signal that the CLI inherits ignored, as a background job does
    SIGINT, stays ignored: the sample finishes and exits 0."""
    ignore = f"signal.signal({int(signum)}, signal.SIG_IGN)\n"
    proc = start_cli(
        ["sample", "--config", signal_config(tmp_path, steps=4), "--output", str(tmp_path / "out.flt")],
        ignore + SAY_STEPPED,
    )
    try:
        assert proc.stdout.readline() == b"stepped\n"
        proc.send_signal(signum)
        rest, err = proc.communicate(timeout=60)
    finally:
        kill_everything(proc, [])
    assert proc.returncode == 0
    assert (rest, err) == (f"wrote {tmp_path / 'out.flt'}\n".encode(), b"")
    assert read_flt(tmp_path / "out.flt").shape == (2, 3, 48, 64)


@pytest.fixture
def default_handlers():
    """SIGINT and SIGTERM at their default handlers for the test."""
    previous = {s: signal.signal(s, h) for s, h in cli._ENDING_SIGNALS.items()}
    yield
    for s, h in previous.items():
        signal.signal(s, h)


def record_handlers(monkeypatch):
    """The handlers of SIGINT and SIGTERM that each plan command sees."""
    seen = []
    plan = cli.cmd_plan

    def record(args):
        seen.append({s: signal.getsignal(s) for s in cli._ENDING_SIGNALS})
        return plan(args)

    monkeypatch.setattr(cli, "cmd_plan", record)
    return seen


class TestSignalHandlers:
    """main gives SIGINT and SIGTERM to its handler only while it runs,
    only on the main thread, and only where they have their defaults."""

    @pytest.mark.parametrize("argv, code", [(PLAN_ARGS, 0), (["plan"], 2)], ids=["ok", "usage-error"])
    def test_main_restores_the_defaults(self, default_handlers, monkeypatch, capsys, argv, code):
        seen = record_handlers(monkeypatch)
        assert main(argv) == code
        assert seen == ([{signal.SIGINT: cli._end_now, signal.SIGTERM: cli._end_now}] if code == 0 else [])
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    @pytest.mark.parametrize("handler", [signal.SIG_IGN, lambda signum, frame: None], ids=["ignored", "handled"])
    def test_an_ignored_or_handled_signal_is_left_alone(self, default_handlers, monkeypatch, capsys, handler):
        for signum in cli._ENDING_SIGNALS:
            signal.signal(signum, handler)
        seen = record_handlers(monkeypatch)
        assert main(PLAN_ARGS) == 0
        assert seen == [{signal.SIGINT: handler, signal.SIGTERM: handler}]
        assert all(signal.getsignal(s) == handler for s in cli._ENDING_SIGNALS)

    def test_off_the_main_thread_nothing_changes(self, default_handlers, monkeypatch, capsys):
        seen = record_handlers(monkeypatch)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(PLAN_ARGS)))
        thread.start()
        thread.join()
        assert codes == [0]
        assert seen == [{signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL}]
