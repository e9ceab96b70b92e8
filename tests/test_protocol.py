import contextlib
import gc
import hashlib
import io
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tilefuse import ExternalDenoiser, PriorScheduleConfig, Rect, SamplerConfig, protocol, run, tensor
from tilefuse.denoisers import DenoiserRequest
from tilefuse.errors import (
    FileFormatError,
    MalformedFrameError,
    ProtocolError,
    ProtocolTimeoutError,
    ShapeError,
    WorkerExitError,
)
from tilefuse.protocol import (
    ALIGN,
    MSG_DENOISE_REQUEST,
    MSG_DENOISE_RESPONSE,
    MSG_ERROR,
    MSG_HELLO,
    WorkerClient,
    WorkerPool,
    pack_denoise_request,
    pack_denoise_response,
    pack_embedding,
    pack_frame,
    serve,
    unpack_denoise_request,
    unpack_denoise_response,
    unpack_embedding,
)
from tilefuse.tensor import FLT_HEAD_LEN, flt_from_bytes, flt_parts

ECHO_CMD = [sys.executable, "-m", "tilefuse.echo_worker"]


def worker_script(tmp_path, body):
    """Write a small standalone FDP1 worker script and return its command."""
    path = tmp_path / "worker.py"
    path.write_text(body)
    return [sys.executable, str(path)]


# Appends the worker's pid to the file named by its first argument.
RECORD_PID = (
    "import os, sys\n"
    "with open(sys.argv[1], 'a') as fh:\n"
    "    fh.write(f'{os.getpid()}\\n')\n"
)


def recorded_pids(path):
    return [int(line) for line in path.read_text().split()]


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_decoded_tile(pred, tile):
    assert pred.dtype == np.float32
    assert pred.flags.writeable and pred.flags.c_contiguous and pred.flags.aligned
    assert pred.ctypes.data % ALIGN == 0
    assert pred.tobytes() == tile.tobytes()


class TestFraming:
    def test_frame_layout(self):
        frame = pack_frame(MSG_HELLO, b"xyz")
        assert frame[:4] == b"FDP1"
        assert frame[4] == MSG_HELLO
        assert struct.unpack("<Q", frame[5:13])[0] == 3
        assert frame[13:] == b"xyz"

    def test_denoise_request_round_trip(self, rng):
        tile = rng.standard_normal((2, 1, 3, 4)).astype(np.float32)
        payload = pack_denoise_request(7, 0.25, 0.75, Rect(1, 2, 3, 4), "cond-id", tile)
        step, t, sigma, rect, cond, back = unpack_denoise_request(payload)
        assert step == 7
        assert t == pytest.approx(0.25)
        assert sigma == pytest.approx(0.75)
        assert rect == Rect(1, 2, 3, 4)
        assert cond == "cond-id"
        assert np.array_equal(back.view(np.uint32), tile.view(np.uint32))

    def test_denoise_response_round_trip(self, rng):
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        payload = pack_denoise_response(tile)
        assert payload == b"\x00" + b"".join(flt_parts(tile))  # the leading byte is always 0
        assert np.array_equal(unpack_denoise_response(payload), tile)

    def test_bad_kind_byte(self, rng):
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        data = pack_denoise_response(tile)[1:]
        for payload in (b"\x01" + data, b"\x09" + data, b""):  # only 0 is a reply
            with pytest.raises(MalformedFrameError, match="unknown prediction kind byte"):
                unpack_denoise_response(payload)

    def test_embedding_round_trip(self):
        vec = np.array([1.5, -2.25, 0.125], dtype=np.float32)
        assert np.array_equal(unpack_embedding(pack_embedding(vec)), vec)

    def test_embedding_length_mismatch(self):
        with pytest.raises(MalformedFrameError):
            unpack_embedding(struct.pack("<I", 4) + b"\x00" * 8)


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
small_tiles = hnp.arrays(
    np.float32, hnp.array_shapes(min_dims=4, max_dims=4, max_side=5), elements=finite32
)


class TestWireProperties:
    """Round trips over random tiles: FLT1 alone, and FDP1 denoise frames
    through the worker loop, with conditioning ids of any UTF-8 length, so
    the tile data lands on and off float32 alignment."""

    @settings(max_examples=200, deadline=None)
    @given(small_tiles, st.booleans())
    def test_flt_round_trip(self, tile, strided):
        sent = np.flip(tile, axis=3) if strided else tile
        blob = b"".join(flt_parts(sent))
        assert len(blob) == FLT_HEAD_LEN + tile.nbytes
        for buffer in (blob, bytearray(blob)):  # a copy, and decoded in place
            back = flt_from_bytes(buffer)
            assert back.shape == tile.shape and back.flags.writeable
            assert back.tobytes() == np.ascontiguousarray(sent).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        small_tiles,
        st.text(max_size=9),
        st.integers(0, 2**32 - 1),
        finite32,
        finite32,
        st.tuples(*[st.integers(0, 2**31)] * 2, *[st.integers(1, 2**31)] * 2),
    )
    def test_denoise_round_trip_through_the_worker_loop(
        self, tile, conditioning, step, t, sigma, corner_and_size
    ):
        rect = Rect(*corner_and_size)
        frames = pack_frame(
            MSG_DENOISE_REQUEST, pack_denoise_request(step, t, sigma, rect, conditioning, tile)
        )
        seen = []

        def denoise(*request):
            seen.append(request)
            x = request[-1]
            assert x.dtype == np.float32 and x.flags.writeable and x.flags.aligned
            return x

        out = io.BytesIO()
        serve(denoise=denoise, stdin=io.BytesIO(frames), stdout=out)
        (got_step, got_t, got_sigma, got_rect, got_cond, got_tile), = seen
        assert (got_step, got_t, got_sigma, got_rect, got_cond) == (
            step, t, sigma, rect, conditioning
        )
        assert got_tile.tobytes() == tile.tobytes()

        reply = out.getvalue()
        assert reply[4] == MSG_DENOISE_RESPONSE
        assert struct.unpack("<Q", reply[5:13])[0] == len(reply) - 13
        assert unpack_denoise_response(reply[13:]).tobytes() == tile.tobytes()


class TestServeLoop:
    def run_loop(self, frames, denoise=None, embed=None):
        out = io.BytesIO()
        serve(denoise=denoise, embed=embed, stdin=io.BytesIO(frames), stdout=out)
        return out.getvalue()

    def test_hello_and_eof(self):
        out = self.run_loop(pack_frame(MSG_HELLO, b""))
        assert out == pack_frame(MSG_HELLO, b"")

    def test_denoise_dispatch(self, rng):
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        frames = pack_frame(
            MSG_DENOISE_REQUEST, pack_denoise_request(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
        )
        out = self.run_loop(frames, denoise=lambda *a: a[-1])
        assert out[4] == MSG_DENOISE_RESPONSE
        assert np.array_equal(unpack_denoise_response(out[13:]), tile)

    def test_handler_error_reported(self, rng):
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        frames = pack_frame(
            MSG_DENOISE_REQUEST, pack_denoise_request(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
        )

        def boom(*a):
            raise RuntimeError("backbone on fire")

        out = self.run_loop(frames, denoise=boom)
        assert out[4] == 3  # error frame
        assert b"backbone on fire" in out

    def test_conditioning_id_shifts_tile_off_alignment(self, rng):
        # one byte of conditioning id puts the tile data off float32
        # alignment, so the worker decodes it from a copy
        tile = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
        frames = pack_frame(
            MSG_DENOISE_REQUEST,
            pack_denoise_request(4, 0.5, 0.25, Rect(1, 2, 5, 7), "c", tile),
        )
        seen = []

        def denoise(step, t, sigma, rect, cond, x):
            seen.append((step, rect, cond))
            assert x.dtype == np.float32 and x.flags.writeable and x.flags.aligned
            return x

        out = self.run_loop(frames, denoise=denoise)
        assert seen == [(4, Rect(1, 2, 5, 7), "c")]
        assert out[4] == MSG_DENOISE_RESPONSE
        assert unpack_denoise_response(out[13:]).tobytes() == tile.tobytes()


    @pytest.mark.parametrize(
        "header, text",
        [
            (b"JUNK" + struct.pack("<BQ", MSG_HELLO, 0), b"bad frame magic b'JUNK'"),
            (b"FDP1" + struct.pack("<BQ", MSG_HELLO, 1 << 40),
             b"frame length 1099511627776 exceeds cap"),
        ],
        ids=["bad-magic", "oversized-length"],
    )
    def test_malformed_header_gets_one_error_frame_and_ends(self, header, text):
        hello = pack_frame(MSG_HELLO, b"")
        stdin = io.BytesIO(hello + header + hello)
        out = io.BytesIO()
        serve(stdin=stdin, stdout=out)
        assert out.getvalue() == hello + pack_frame(MSG_ERROR, text)
        assert stdin.tell() == 2 * len(hello)  # nothing read past the bad header


class TestWorkerClient:
    def test_echo_round_trip_bit_exact(self, rng):
        with WorkerClient(ECHO_CMD, timeout=30) as client:
            for _ in range(10):
                tile = rng.standard_normal((2, 1, 4, 5)).astype(np.float32)
                pred = client.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 5), "", tile)
                assert np.array_equal(pred.view(np.uint32), tile.view(np.uint32))

    def test_hundred_random_tiles_bit_exact(self, rng):
        with WorkerClient(ECHO_CMD, timeout=60) as client:
            for k in range(100):
                shape = (
                    int(rng.integers(1, 4)),
                    int(rng.integers(1, 3)),
                    int(rng.integers(1, 8)),
                    int(rng.integers(1, 8)),
                )
                tile = rng.standard_normal(shape).astype(np.float32)
                pred = client.denoise(k, 0.5, 0.5, Rect(0, 0, shape[2], shape[3]), "c", tile)
                assert pred.tobytes() == tile.tobytes()

    def test_embed_round_trip(self, rng):
        with WorkerClient(ECHO_CMD, timeout=30) as client:
            tensor = np.full((1, 1, 3, 3), 2.0, dtype=np.float32)
            vec = client.embed(tensor)
            assert vec.shape == (4,)
            assert vec[0] == pytest.approx(2.0)  # mean

    def test_wrong_shape_is_shape_error(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda s,t,g,r,c,x: np.zeros((1,1,2,2), np.float32))\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            tile = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
            with pytest.raises(ShapeError):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 4), "", tile)

    def test_garbage_magic_is_malformed_frame(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import sys\n"
            "from tilefuse.protocol import pack_frame, HEADER_LEN\n"
            "sys.stdin.buffer.read(HEADER_LEN)\n"
            "sys.stdout.buffer.write(pack_frame(0, b''))\n"  # proper hello
            "sys.stdout.buffer.flush()\n"
            "sys.stdin.buffer.read(HEADER_LEN)\n"
            "sys.stdout.buffer.write(b'JUNKJUNKJUNKJUNKJUNK')\n"
            "sys.stdout.buffer.flush()\n"
            "sys.stdin.buffer.read()\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            tile = np.zeros((1, 1, 2, 2), np.float32)
            with pytest.raises(MalformedFrameError):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            # the stream is out of step: the worker is killed, never asked again
            assert client._proc.poll() is not None
            with pytest.raises(WorkerExitError, match="MalformedFrameError"):
                client.denoise(1, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)

    def test_worker_exit_is_distinct_error(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import sys\n"
            "from tilefuse.protocol import pack_frame, HEADER_LEN\n"
            "sys.stdin.buffer.read(HEADER_LEN)\n"
            "sys.stdout.buffer.write(pack_frame(0, b''))\n"
            "sys.stdout.buffer.flush()\n",  # then exit: pipe closes
        )
        with WorkerClient(cmd, timeout=30) as client:
            tile = np.zeros((1, 1, 2, 2), np.float32)
            with pytest.raises(WorkerExitError):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)

    def test_timeout_is_distinct_error(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import sys, time\n"
            "from tilefuse.protocol import pack_frame, HEADER_LEN\n"
            "sys.stdin.buffer.read(HEADER_LEN)\n"
            "sys.stdout.buffer.write(pack_frame(0, b''))\n"
            "sys.stdout.buffer.flush()\n"
            "time.sleep(600)\n",
        )
        client = WorkerClient(cmd, timeout=1.0)
        try:
            tile = np.zeros((1, 1, 2, 2), np.float32)
            with pytest.raises(ProtocolTimeoutError):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
        finally:
            client.close()

    def test_timeout_beyond_the_platform_time_range(self, rng):
        with WorkerClient(ECHO_CMD, timeout=1e10) as client:
            tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
            pred = client.denoise(0, 0.0, 1.0, Rect(0, 0, 3, 3), "", tile)
            assert pred.tobytes() == tile.tobytes()

    def test_non_finite_reply_poisons(self, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda s,t,g,r,c,x: np.full(x.shape, np.nan, np.float32))\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            tile = np.zeros((1, 1, 2, 2), np.float32)
            with pytest.raises(FileFormatError, match="non-finite"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert client.poisoned is not None

    def test_timeout_message_keeps_fractional_seconds(self, tmp_path):
        mute_worker = worker_script(tmp_path, "import time\ntime.sleep(600)\n")
        with pytest.raises(ProtocolTimeoutError, match=r"within 0\.3s"):
            WorkerClient(mute_worker, timeout=0.3)

    def test_error_frame_raises_protocol_error(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "from tilefuse.protocol import serve\n"
            "def no(*a):\n"
            "    raise ValueError('unsupported conditioning')\n"
            "serve(denoise=no)\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            tile = np.zeros((1, 1, 2, 2), np.float32)
            with pytest.raises(ProtocolError, match="unsupported conditioning"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)


class TestWorkerPool:
    def test_parallel_round_trips(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        with WorkerPool(ECHO_CMD, size=3, timeout=60) as pool:
            tiles = [
                rng.standard_normal((1, 1, 4, 4)).astype(np.float32) for _ in range(12)
            ]

            def roundtrip(tile):
                pred = pool.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 4), "", tile)
                return np.array_equal(pred, tile)

            with ThreadPoolExecutor(max_workers=3) as ex:
                assert all(ex.map(roundtrip, tiles))

    def test_close_ends_the_workers_together(self, tmp_path):
        """Every child gets its EOF before any is waited for, so workers
        that each take 1 s to exit end in about 1 s, not 3."""
        pids = tmp_path / "pids"
        cmd = worker_script(
            tmp_path,
            RECORD_PID
            + "import time\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda *a: a[-1])\n"
            "time.sleep(1.0)\n",
        )
        pool = WorkerPool(cmd + [str(pids)], size=3, timeout=30)
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 2.0
        started = recorded_pids(pids)
        assert len(started) == 3
        assert not any(alive(pid) for pid in started)

    def test_close_kills_workers_that_ignore_eof_after_one_deadline(self, tmp_path):
        """Workers that answer the hello and then ignore EOF are killed once
        one 5 s deadline has passed for all of them, not 5 s each, and are
        reaped: none is alive and none is left in protocol.children."""
        pids = tmp_path / "pids"
        cmd = worker_script(
            tmp_path,
            RECORD_PID
            + "import time\n"
            "from tilefuse.protocol import MSG_HELLO, pack_frame\n"
            "sys.stdout.buffer.write(pack_frame(MSG_HELLO, b''))\n"
            "sys.stdout.buffer.flush()\n"
            "time.sleep(600)\n",
        )
        try:
            pool = WorkerPool(cmd + [str(pids)], size=3, timeout=30)
            procs = [c._proc for c in pool._clients]
            assert protocol.children >= set(procs)
            start = time.monotonic()
            pool.close()
            assert time.monotonic() - start < 7.0
            started = recorded_pids(pids)
            assert len(started) == 3
            assert not any(alive(pid) for pid in started)
            assert not protocol.children & set(procs)
        finally:
            for pid in recorded_pids(pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


class TestExternalDenoiser:
    def test_echo_as_denoiser(self, rng):
        with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
            tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
            req = DenoiserRequest(
                tile=tile, step_index=0, t=0.0, sigma=1.0, rect=Rect(0, 0, 3, 3)
            )
            assert np.array_equal(den(req), tile)

    def test_worker_flags_respected(self, rng):
        cmd = ECHO_CMD + ["--scale", "2.0"]
        with ExternalDenoiser(cmd, timeout=30) as den:
            tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
            pred = den(
                DenoiserRequest(tile=tile, step_index=0, t=0.0, sigma=1.0,
                                rect=Rect(0, 0, 2, 2))
            )
            assert np.allclose(pred, 2.0 * tile)

    def test_default_size_is_safe_to_share_between_tile_threads(self):
        # one worker serves four tile threads; replies must not interleave
        def latent(workers):
            cfg = SamplerConfig(canvas_shape=(2, 1, 16, 16), steps=3,
                                window_h=6, window_w=6, seed=5, workers=workers)
            with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
                x, _ = run(cfg, den)
            return x.tobytes()

        assert latent(4) == latent(1)

    def test_tiles_lent_read_only_hash_equal_over_one_and_two_workers(self):
        """The sampler lends each tile as a read-only view of its latent and
        the denoiser copies it once for the wire: runs over one and two
        workers, and with an in-process echo, give the same latent."""
        shape = (2, 3, 24, 40)
        prior = np.random.default_rng(11).standard_normal(shape).astype(np.float32)

        def echo(req):
            assert not req.tile.flags.writeable
            return np.array(req.tile)

        def latent(workers, denoiser=None):
            cfg = SamplerConfig(
                canvas_shape=shape, steps=3, window_h=12, window_w=16,
                overlap=0.5, seed=5, workers=workers,
                prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
            )
            if denoiser is None:
                with ExternalDenoiser(ECHO_CMD, size=workers, timeout=30) as den:
                    x, _ = run(cfg, den, prior)
            else:
                x, _ = run(cfg, denoiser, prior)
            return hashlib.sha256(x.tobytes()).hexdigest()

        assert latent(1) == latent(2) == latent(2, echo)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_prediction_is_scanned_for_non_finite_values_once(self, monkeypatch, workers):
        """A worker's prediction is scanned for inf and NaN as it is
        unpacked, and the sampler does not scan it again; an in-process
        denoiser's prediction is scanned by the sampler alone."""
        shape, window = (2, 3, 24, 40), (12, 16)
        scanned = []
        count = tensor._count_nonfinite

        def counting(x):
            if x.shape == (*shape[:2], *window):
                scanned.append(1)
            return count(x)

        monkeypatch.setattr(tensor, "_count_nonfinite", counting)
        cfg = SamplerConfig(
            canvas_shape=shape, steps=3, window_h=window[0], window_w=window[1],
            overlap=0.5, seed=5, workers=workers,
        )
        predictions = cfg.steps * len(cfg.plan().tiles)
        with ExternalDenoiser(ECHO_CMD, size=workers, timeout=30) as den:
            x, _ = run(cfg, den)
        assert len(scanned) == predictions
        scanned.clear()
        y, _ = run(cfg, lambda req: np.array(req.tile))
        assert len(scanned) == predictions
        assert x.tobytes() == y.tobytes()


def strided_view(latent, view):
    """A non-contiguous float32 view of latent: a column slice, a flip of
    the columns, or both."""
    if view == "columns":
        return latent[:, :, :, 2:11]
    if view == "flipped":
        return np.flip(latent, axis=3)
    return np.flip(latent, axis=3)[:, :, :, 3:12]


class TestCopyFreeWire:
    def test_sent_bytes_equal_whole_frame_packing(self, rng, tmp_path):
        """A contiguous tile, and strided views lent as the sampler lends
        its tiles, go on the wire as whole-frame packing of their
        contiguous copies; the client's channel buffer is reused."""
        latent = rng.standard_normal((3, 2, 5, 16)).astype(np.float32)
        latent.flags.writeable = False
        tiles = [np.array(latent[..., :9])] + [
            strided_view(latent, view) for view in ("columns", "flipped", "flipped-columns")
        ]
        dump = tmp_path / "stdin.bin"
        cmd = worker_script(
            tmp_path,
            "import struct, sys\n"
            "from tilefuse.protocol import (HEADER_LEN, pack_denoise_response,\n"
            "    pack_frame, unpack_denoise_request)\n"
            "inp, out = sys.stdin.buffer, sys.stdout.buffer\n"
            "with open(sys.argv[1], 'wb') as dump:\n"
            "    while True:\n"
            "        header = inp.read(HEADER_LEN)\n"
            "        if not header:\n"
            "            break\n"
            "        payload = inp.read(struct.unpack('<Q', header[5:])[0])\n"
            "        dump.write(header + payload)\n"
            "        if header[4] == 0:\n"
            "            out.write(pack_frame(0, b''))\n"
            "        else:\n"
            "            tile = unpack_denoise_request(payload)[-1]\n"
            "            out.write(pack_frame(2, pack_denoise_response(tile)))\n"
            "        out.flush()\n",
        ) + [str(dump)]
        expected = pack_frame(MSG_HELLO, b"")
        with WorkerClient(cmd, timeout=30) as client:
            for tile in tiles:
                args = (12, 0.375, 0.625, Rect(4, 6, 5, 9), "prompt-β", tile)
                pred = client.denoise(*args)
                contiguous = np.ascontiguousarray(tile)
                assert pred.tobytes() == contiguous.tobytes()
                expected += pack_frame(
                    MSG_DENOISE_REQUEST, pack_denoise_request(*args[:-1], contiguous)
                )
        assert dump.read_bytes() == expected

    @pytest.mark.parametrize("view", ["columns", "flipped", "flipped-columns"])
    def test_strided_tile_round_trip_through_serve_echo(self, rng, view):
        latent = rng.standard_normal((4, 3, 12, 20)).astype(np.float32)
        shapes = []
        with WorkerClient(ECHO_CMD, timeout=30) as client:
            for rows in (slice(0, 12), slice(2, 9), slice(5, 6)):  # channels grow and shrink
                tile = strided_view(latent[:, :, rows], view)
                pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, *tile.shape[2:]), "", tile)
                assert_decoded_tile(pred, np.ascontiguousarray(tile))
                shapes.append(tile.shape)
        assert len(set(shapes)) == 3

    @pytest.mark.parametrize("through", ["client", "denoiser"])
    def test_strided_send_allocates_the_reply_and_one_channel(self, through):
        """No whole-tile copy per request: a strided 16-channel tile costs
        its reply buffer and, on the first call only, one channel, through
        WorkerClient.denoise and through an ExternalDenoiser."""
        latent = np.random.default_rng(3).standard_normal((16, 4, 64, 160)).astype(np.float32)
        latent.flags.writeable = False
        tile = latent[:, :, :, 16:144]  # 2 MiB; one channel is 128 KiB
        channel = tile[0].nbytes
        slack = 32 << 10  # headers, views and a few small objects
        req = DenoiserRequest(tile=tile, step_index=0, t=0.5, sigma=0.5, rect=Rect(0, 0, 64, 128))
        with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
            client, = den._clients
            peaks = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    if through == "client":
                        pred = client.denoise(0, 0.5, 0.5, req.rect, "", tile)
                    else:
                        pred = den(req)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert pred.tobytes() == np.ascontiguousarray(tile).tobytes()
                del pred
        reply = tile.nbytes + ALIGN
        assert peaks[0] <= reply + channel + slack, peaks
        assert peaks[1] <= reply + slack, peaks

    def test_tile_larger_than_pipe_through_pool_from_threads(self):
        shape = (16, 21, 60, 104)  # 8.4 MB, far past a pipe's capacity

        def roundtrip(k):
            tiles = np.random.default_rng(k).standard_normal((2,) + shape)
            for j, tile in enumerate(tiles.astype(np.float32)):
                pred = pool.denoise(k, 0.5, 0.5, Rect(0, 0, 60, 104), f"t{j}", tile)
                assert_decoded_tile(pred, tile)
            return True

        with WorkerPool(ECHO_CMD, size=2, timeout=60) as pool:
            with ThreadPoolExecutor(max_workers=4) as ex:
                assert all(ex.map(roundtrip, range(4)))

    def test_reply_in_uneven_chunks_with_pauses(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import sys, time\n"
            "from tilefuse.protocol import serve\n"
            "class Trickle:\n"
            "    def __init__(self, raw):\n"
            "        self.raw = raw\n"
            "    def write(self, data):\n"
            "        data = bytes(data)\n"
            "        sizes = [1, 2, 3, 5, 8, 13, 4093, 70001]\n"
            "        while data:\n"
            "            n = sizes[len(data) % len(sizes)]\n"
            "            self.raw.write(data[:n])\n"
            "            self.raw.flush()\n"
            "            data = data[n:]\n"
            "            time.sleep(0.002)\n"
            "    def flush(self):\n"
            "        self.raw.flush()\n"
            "serve(denoise=lambda s, t, g, r, c, x: x,\n"
            "      stdout=Trickle(sys.stdout.buffer))\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            for shape in [(1, 1, 1, 1), (2, 3, 17, 29), (4, 5, 40, 48)]:
                tile = rng.standard_normal(shape).astype(np.float32)
                pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, *shape[2:]), "", tile)
                assert_decoded_tile(pred, tile)

    def test_decoded_predictions_are_owned_aligned_float32(self, rng):
        with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
            for shape in [(1, 1, 1, 1), (3, 2, 7, 5), (4, 3, 16, 24)]:
                tile = rng.standard_normal(shape).astype(np.float32)
                pred = den(
                    DenoiserRequest(tile=tile, step_index=0, t=0.5, sigma=0.5,
                                    rect=Rect(0, 0, *shape[2:]))
                )
                assert_decoded_tile(pred, tile)
                pred += 1.0  # the caller may update it in place

    def test_flt_from_immutable_bytes_is_a_writable_copy(self, rng):
        tile = rng.standard_normal((2, 1, 3, 4)).astype(np.float32)
        blob = b"".join(flt_parts(tile))
        back = flt_from_bytes(blob)
        assert back.flags.writeable and back.dtype == np.float32
        back[...] = 0.0
        assert flt_from_bytes(blob).tobytes() == tile.tobytes()


SLOW_FIRST_REQUEST = (
    "import time\n"
    "from tilefuse.protocol import serve\n"
    "calls = []\n"
    "def denoise(step, t, sigma, rect, cond, tile):\n"
    "    calls.append(step)\n"
    "    if len(calls) == 1:\n"
    "        time.sleep(1.5)\n"
    "    return tile\n"
    "serve(denoise=denoise)\n"
)


class TestPoisonedClient:
    def test_late_reply_never_answers_the_next_request(self, tmp_path):
        cmd = worker_script(tmp_path, SLOW_FIRST_REQUEST)
        first = np.full((1, 1, 2, 2), 1.0, np.float32)
        second = np.full((1, 1, 2, 2), 2.0, np.float32)
        client = WorkerClient(cmd, timeout=1.0)
        try:
            with pytest.raises(ProtocolTimeoutError):
                client.denoise(1, 0.0, 1.0, Rect(0, 0, 2, 2), "", first)
            assert client._proc.poll() is not None  # killed, not left running
            time.sleep(0.7)  # the first reply would be due by now
            start = time.monotonic()
            with pytest.raises(WorkerExitError, match="stopped after a failure"):
                client.denoise(2, 0.0, 1.0, Rect(0, 0, 2, 2), "", second)
            with pytest.raises(WorkerExitError):
                client.embed(second)
            assert time.monotonic() - start < 0.5
        finally:
            client.close()

    def test_pipe_closing_mid_frame_poisons(self, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import struct, sys\n"
            "from tilefuse.protocol import HEADER_LEN, pack_frame\n"
            "inp, out = sys.stdin.buffer, sys.stdout.buffer\n"
            "inp.read(HEADER_LEN)\n"
            "out.write(pack_frame(0, b''))\n"
            "out.flush()\n"
            "header = inp.read(HEADER_LEN)\n"
            "inp.read(struct.unpack('<Q', header[5:])[0])\n"
            "out.write(b'FDP1' + bytes([2]) + struct.pack('<Q', 1000) + b'x' * 10)\n"
            "out.flush()\n",
        )
        tile = np.zeros((1, 1, 2, 2), np.float32)
        with WorkerClient(cmd, timeout=30) as client:
            with pytest.raises(WorkerExitError, match="closed its output pipe"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            with pytest.raises(WorkerExitError, match="stopped after a failure"):
                client.denoise(1, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)

    def test_error_frame_leaves_client_usable(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "from tilefuse.protocol import serve\n"
            "def denoise(step, t, sigma, rect, cond, tile):\n"
            "    if step == 0:\n"
            "        raise ValueError('not this step')\n"
            "    return tile\n"
            "serve(denoise=denoise)\n",
        )
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        with WorkerClient(cmd, timeout=30) as client:
            with pytest.raises(ProtocolError, match="not this step"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert client.poisoned is None
            pred = client.denoise(1, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert pred.tobytes() == tile.tobytes()

    def test_pool_never_lends_a_poisoned_client(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import time\n"
            "from tilefuse.protocol import serve\n"
            "def denoise(step, t, sigma, rect, cond, tile):\n"
            "    if step == 1:\n"
            "        time.sleep(1.5)\n"
            "    return tile\n"
            "serve(denoise=denoise)\n",
        )
        tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        rect = Rect(0, 0, 3, 3)
        with WorkerPool(cmd, size=2, timeout=1.0) as pool:
            with pytest.raises(ProtocolTimeoutError):
                pool.denoise(1, 0.0, 1.0, rect, "", tile)
            time.sleep(0.7)  # the late reply is due: a lent-out client would see it
            for _ in range(4):
                pred = pool.denoise(0, 0.0, 1.0, rect, "", tile)
                assert pred.tobytes() == tile.tobytes()
            with pytest.raises(ProtocolTimeoutError):
                pool.denoise(1, 0.0, 1.0, rect, "", tile)

            errors = []

            def call():
                try:
                    pool.denoise(0, 0.0, 1.0, rect, "", tile)
                except WorkerExitError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads)
            assert len(errors) == 3


class TestFailedStart:
    def test_client_reaps_a_worker_that_never_says_hello(self, tmp_path):
        pids = tmp_path / "pids"
        cmd = worker_script(tmp_path, RECORD_PID + "import time\ntime.sleep(600)\n")
        with pytest.raises(ProtocolTimeoutError):
            WorkerClient(cmd + [str(pids)], timeout=1.0)
        (pid,) = recorded_pids(pids)
        assert not alive(pid)

    def test_client_reaps_a_worker_that_answers_hello_with_an_error(self, tmp_path):
        pids = tmp_path / "pids"
        cmd = worker_script(
            tmp_path,
            RECORD_PID
            + "import time\n"
            "from tilefuse.protocol import HEADER_LEN, MSG_ERROR, pack_frame\n"
            "sys.stdin.buffer.read(HEADER_LEN)\n"
            "sys.stdout.buffer.write(pack_frame(MSG_ERROR, b'not ready'))\n"
            "sys.stdout.buffer.flush()\n"
            "time.sleep(600)\n",
        )
        with pytest.raises(ProtocolError, match="not ready"):
            WorkerClient(cmd + [str(pids)], timeout=30)
        (pid,) = recorded_pids(pids)
        assert not alive(pid)

    def test_pool_closes_started_clients_when_a_later_one_fails(self, tmp_path):
        pids = tmp_path / "pids"
        cmd = worker_script(
            tmp_path,
            RECORD_PID
            + "import time\n"
            "from tilefuse.protocol import serve\n"
            "if open(sys.argv[1]).read().split()[0] == str(os.getpid()):\n"
            "    serve(denoise=lambda *a: a[-1])\n"
            "else:\n"
            "    time.sleep(600)\n",
        )
        with pytest.raises(ProtocolTimeoutError):
            WorkerPool(cmd + [str(pids)], size=3, timeout=1.0)
        started = recorded_pids(pids)
        assert len(started) == 3  # every child starts before the first hello
        assert not any(alive(pid) for pid in started)

    def test_pool_starts_its_workers_in_parallel(self, tmp_path):
        delay = 1.5
        cmd = worker_script(
            tmp_path,
            "import time\n"
            f"time.sleep({delay})\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda *a: a[-1])\n",
        )
        start = time.monotonic()
        with WorkerPool(cmd, size=3, timeout=30) as pool:
            elapsed = time.monotonic() - start
            tile = np.ones((1, 1, 2, 2), np.float32)
            pred = pool.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert pred.tobytes() == tile.tobytes()
        assert elapsed < 2 * delay  # one after another takes over 3 x delay

    def test_pool_start_fails_and_reaps_when_one_worker_exits(self, tmp_path):
        pids = tmp_path / "pids"
        cmd = worker_script(
            tmp_path,
            RECORD_PID
            + "from tilefuse.protocol import serve\n"
            "if open(sys.argv[1]).read().split()[0] == str(os.getpid()):\n"
            "    sys.exit(0)\n"
            "serve(denoise=lambda *a: a[-1])\n",
        )
        start = time.monotonic()
        with pytest.raises(WorkerExitError):
            WorkerPool(cmd + [str(pids)], size=3, timeout=30)
        assert time.monotonic() - start < 10  # the exit is seen, not timed out
        started = recorded_pids(pids)
        assert len(started) == 3
        assert not any(alive(pid) for pid in started)


needs_memfd = pytest.mark.skipif(
    not (hasattr(os, "memfd_create") and os.path.isdir("/proc/self/fd")),
    reason="the slab needs os.memfd_create and /proc",
)

# Sleeps on every other request it gets, so that of two such workers the
# later request often finishes first.
SLOW_EVERY_OTHER = (
    "import time\n"
    "from tilefuse.protocol import serve\n"
    "calls = []\n"
    "def denoise(step, t, sigma, rect, cond, tile):\n"
    "    calls.append(step)\n"
    "    if len(calls) % 2:\n"
    "        time.sleep(0.05)\n"
    "    return tile\n"
    "serve(denoise=denoise)\n"
)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@needs_memfd
class TestSharedMemory:
    def test_predictions_outlive_later_calls(self, tmp_path):
        """Six predictions from two workers, replies finishing out of order,
        each still holds its own tile after the others came back; six more
        calls reuse their slots, and the slab never holds more slots than
        the six predictions alive at once."""
        cmd = worker_script(tmp_path, SLOW_EVERY_OTHER)
        latent = np.random.default_rng(8).standard_normal((12, 3, 2, 9, 20)).astype(np.float32)
        tiles = [latent[k] if k % 2 else latent[k, :, :, :, 2:18] for k in range(12)]
        with ExternalDenoiser(cmd, size=2, timeout=30) as den:
            assert all(client._slab is den._slab for client in den._clients)

            def call(k):
                rect = Rect(0, 0, *tiles[k].shape[2:])
                return den(DenoiserRequest(tile=tiles[k], step_index=k, t=0.5, sigma=0.5, rect=rect))

            with ThreadPoolExecutor(max_workers=6) as ex:
                preds = list(ex.map(call, range(6)))
                for k, pred in enumerate(preds):
                    assert_decoded_tile(pred, np.ascontiguousarray(tiles[k]))
                slots, size = den._slab.slots, den._slab.size
                assert slots <= 6
                del preds, pred
                later = list(ex.map(call, range(6, 12)))
            for k, pred in enumerate(later, 6):
                assert_decoded_tile(pred, np.ascontiguousarray(tiles[k]))
            assert (den._slab.slots, den._slab.size) == (slots, size)

    def test_slots_stay_distinct_under_thread_churn(self):
        """Eight threads share three workers and one free list, each keeping
        its last two predictions, with the interpreter switching threads
        often: a slot leased twice, or freed early, would show in a kept
        prediction that no longer holds its own tile."""
        def churn(k):
            rng = np.random.default_rng(k)
            kept = []
            for j in range(40):
                rows = int(rng.integers(1, 9))
                tile = rng.standard_normal((2, 2, rows, 16)).astype(np.float32)
                pred = pool.denoise(j, 0.5, 0.5, Rect(0, 0, rows, 16), "", tile)
                kept = [*kept[-1:], (pred, tile)]
                for p, t in kept:
                    if p.tobytes() != t.tobytes():
                        return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(ECHO_CMD, size=3, timeout=60) as pool:
                with ThreadPoolExecutor(max_workers=8) as ex:
                    assert all(ex.map(churn, range(8), timeout=120))
                # a thread holds at most three: two kept and the newest
                # until the oldest is dropped
                assert pool._slab.slots <= 3 * 8
        finally:
            sys.setswitchinterval(interval)

    def test_a_view_keeps_its_prediction_slot(self):
        with WorkerClient(ECHO_CMD, timeout=30) as client:
            tile = np.full((2, 1, 4, 6), 1.0, np.float32)
            view = client.denoise(0, 0.5, 0.5, Rect(0, 0, 4, 6), "", tile)[:, :, 1:, ::2]
            for value in (2.0, 3.0):  # a freed slot would be leased to these
                client.denoise(0, 0.5, 0.5, Rect(0, 0, 4, 6), "", np.full_like(tile, value))
            assert (view == 1.0).all()
            assert client._slab.slots == 2

    def test_a_free_slot_too_small_is_given_up_with_its_memory(self, rng):
        with WorkerClient(ECHO_CMD, timeout=30) as client:
            slab = client._slab
            for rows in (8, 64, 64, 32):  # the slot for 64 rows serves 32 as well
                tile = rng.standard_normal((4, 2, rows, 128)).astype(np.float32)
                pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, rows, 128), "", tile)
                assert pred.tobytes() == tile.tobytes()
                del pred
                assert slab.slots == 1
            row = 4 * 2 * 128 * 4  # bytes of a tile row, a whole number of pages
            assert slab.size == 8 * row + 64 * row  # the 8-row slot's hole stays
            assert os.fstat(slab.fd).st_blocks * 512 <= 64 * row  # but holds no memory

    @pytest.mark.parametrize("handoff", ["no-variable", "fd-closed"])
    def test_a_serve_worker_without_the_handoff_gets_the_pipe(self, rng, tmp_path, handoff):
        drop = {
            "no-variable": "del os.environ[protocol.SLAB_ENV]\n",
            "fd-closed": "os.close(int(os.environ[protocol.SLAB_ENV].split(':')[0]))\n",
        }[handoff]
        cmd = worker_script(
            tmp_path,
            "import os\n"
            "from tilefuse import protocol\n"
            + drop
            + "protocol.serve(denoise=lambda *a: a[-1])\n",
        )
        latent = rng.standard_normal((3, 2, 7, 16)).astype(np.float32)
        with WorkerClient(cmd, timeout=30) as client:
            assert client._slab is None
            for tile in (latent, latent[:, :, :, 3:12]):
                pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, *tile.shape[2:]), "", tile)
                assert_decoded_tile(pred, np.ascontiguousarray(tile))

    def test_without_memfd_every_worker_gets_the_pipe_with_the_same_bits(self, monkeypatch):
        cfg = SamplerConfig(
            canvas_shape=(2, 3, 24, 40), steps=3, window_h=12, window_w=16, overlap=0.5,
            seed=5, workers=2, prior=PriorScheduleConfig(lambda_base=1.5, mode="constant"),
        )
        prior = np.random.default_rng(11).standard_normal(cfg.canvas_shape).astype(np.float32)

        def latent(shared):
            with ExternalDenoiser(ECHO_CMD, size=2, timeout=30) as den:
                assert [c._slab is not None for c in den._clients] == [shared] * 2
                x, _ = run(cfg, den, prior)
            return x.tobytes()

        through_slab = latent(True)
        monkeypatch.delattr(os, "memfd_create")
        assert latent(False) == through_slab

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 1, 5, 4)], ids=["smaller", "larger"])
    def test_a_prediction_of_another_shape_is_a_shape_error(self, tmp_path, shape):
        cmd = worker_script(
            tmp_path,
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            f"serve(denoise=lambda *a: np.zeros({shape}, np.float32))\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            assert client._slab is not None
            with pytest.raises(ShapeError, match=rf"shape \(1, 1, {shape[2]}, {shape[3]}\)"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 4), "", np.ones((1, 1, 4, 4), np.float32))
            assert client.poisoned is not None

    @pytest.mark.parametrize("through", ["slab", "pipe"])
    def test_a_non_finite_request_tile_is_a_worker_error(self, tmp_path, through):
        cmd = worker_script(
            tmp_path,
            "import os\n"
            "from tilefuse import protocol\n"
            + ("del os.environ[protocol.SLAB_ENV]\n" if through == "pipe" else "")
            + "protocol.serve(denoise=lambda *a: a[-1])\n",
        )
        tile = np.ones((1, 1, 2, 3), np.float32)
        tile[0, 0, 1, 2] = np.inf
        with WorkerClient(cmd, timeout=30) as client:
            assert (client._slab is not None) == (through == "slab")
            with pytest.raises(ProtocolError, match="request tile contains non-finite values"):
                client.denoise(0, 0.5, 0.5, Rect(0, 0, 2, 3), "", tile)
            assert client.poisoned is None
            tile[0, 0, 1, 2] = 2.0
            pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, 2, 3), "", tile)
            assert pred.tobytes() == tile.tobytes()

    def test_the_slot_of_a_failed_request_is_freed_after_its_worker_is_reaped(self, tmp_path):
        cmd = worker_script(tmp_path, SLOW_FIRST_REQUEST)
        tile = np.ones((1, 1, 3, 3), np.float32)
        with WorkerPool(cmd, size=1, timeout=1.0) as pool:
            (client,) = pool._clients
            release = pool._slab._release
            seen = []

            def note(slot):
                seen.append(client._proc.returncode)
                release(slot)

            pool._slab._release = note
            with pytest.raises(ProtocolTimeoutError):
                pool.denoise(1, 0.0, 1.0, Rect(0, 0, 3, 3), "", tile)
            assert seen == [-signal.SIGKILL]

    def test_a_failed_request_kept_in_a_future_holds_no_slot(self, tmp_path):
        """The exception of a non-finite slab reply, kept by the Future of
        the thread that asked (a reference cycle), holds neither the slot
        nor its mapping: with the garbage collector off, the slot is free
        at once and closing the pool gives back every slab fd."""
        def memfds():
            return sum(
                os.readlink(f"/proc/self/fd/{fd}").startswith("/memfd:tilefuse-fdp1")
                for fd in os.listdir("/proc/self/fd")
                if os.path.exists(f"/proc/self/fd/{fd}")
            )

        cmd = worker_script(
            tmp_path,
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda *a: np.full(a[-1].shape, np.nan, np.float32))\n",
        )
        tile = np.ones((2, 1, 3, 4), np.float32)
        gc.disable()
        try:
            start = memfds()
            pool = WorkerPool(cmd, size=1, timeout=30)
            assert pool._clients[0]._slab is pool._slab
            with ThreadPoolExecutor(max_workers=1) as ex:
                future = ex.submit(pool.denoise, 0, 0.5, 0.5, Rect(0, 0, 3, 4), "", tile)
                kept = future.exception(timeout=60)
            assert "non-finite" in str(kept)
            assert pool._clients[0].poisoned is not None
            assert pool._slab.slots == len(pool._slab._free) == 1
            pool.close()
            assert memfds() == start
        finally:
            gc.enable()

    def test_a_worker_inherits_its_pool_slab_and_no_other(self):
        with WorkerPool(ECHO_CMD, size=1, timeout=30) as other, \
                WorkerPool(ECHO_CMD, size=2, timeout=30) as pool:
            inode = os.fstat(pool._slab.fd).st_ino
            assert inode != os.fstat(other._slab.fd).st_ino
            for client in pool._clients:
                pid = client._proc.pid
                fds = sorted(map(int, os.listdir(f"/proc/{pid}/fd")))
                assert fds == [0, 1, 2, pool._slab.fd]
                assert os.stat(f"/proc/{pid}/fd/{pool._slab.fd}").st_ino == inode
                with open(f"/proc/{pid}/environ", "rb") as fh:
                    env = fh.read().split(b"\0")
                assert f"{protocol.SLAB_ENV}={pool._slab.fd}:{inode}".encode() in env

    def test_close_gives_back_every_fd(self, rng):
        gc.collect()  # an earlier failed request's slot may wait in a traceback cycle
        start = open_fds()
        pool = WorkerPool(ECHO_CMD, size=2, timeout=30)
        tile = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        kept = pool.denoise(0, 0.5, 0.5, Rect(0, 0, 8, 8), "", tile)
        for _ in range(3):
            pool.denoise(0, 0.5, 0.5, Rect(0, 0, 8, 8), "", tile)
        pool.close()
        assert open_fds() == start + 1  # the kept prediction's mapping
        assert kept.tobytes() == tile.tobytes()
        del kept
        assert open_fds() == start
        with pytest.raises(WorkerExitError):
            pool.denoise(0, 0.5, 0.5, Rect(0, 0, 8, 8), "", tile)
