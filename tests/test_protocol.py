import hashlib
import io
import os
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tilefuse import ExternalDenoiser, PriorScheduleConfig, Rect, SamplerConfig, run
from tilefuse.denoisers import DenoiserRequest, DenoiserResponse
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
        kind, back = unpack_denoise_response(pack_denoise_response("eps", tile))
        assert kind == "eps"
        assert np.array_equal(back, tile)

    def test_bad_kind_byte(self, rng):
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        payload = bytes([9]) + pack_denoise_response("flow", tile)[1:]
        with pytest.raises(MalformedFrameError):
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
        st.sampled_from(["flow", "eps"]),
    )
    def test_denoise_round_trip_through_the_worker_loop(
        self, tile, conditioning, step, t, sigma, corner_and_size, kind
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
            return kind, x

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
        got_kind, pred = unpack_denoise_response(reply[13:])
        assert got_kind == kind and pred.tobytes() == tile.tobytes()


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
        out = self.run_loop(frames, denoise=lambda *a: ("flow", a[-1]))
        assert out[4] == MSG_DENOISE_RESPONSE
        kind, back = unpack_denoise_response(out[13:])
        assert kind == "flow" and np.array_equal(back, tile)

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
            return "eps", x

        out = self.run_loop(frames, denoise=denoise)
        assert seen == [(4, Rect(1, 2, 5, 7), "c")]
        assert out[4] == MSG_DENOISE_RESPONSE
        kind, back = unpack_denoise_response(out[13:])
        assert kind == "eps" and back.tobytes() == tile.tobytes()


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
                kind, pred = client.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 5), "", tile)
                assert kind == "flow"
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
                _, pred = client.denoise(k, 0.5, 0.5, Rect(0, 0, shape[2], shape[3]), "c", tile)
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
            "serve(denoise=lambda s,t,g,r,c,x: ('flow', np.zeros((1,1,2,2), np.float32)))\n",
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
            _, pred = client.denoise(0, 0.0, 1.0, Rect(0, 0, 3, 3), "", tile)
            assert pred.tobytes() == tile.tobytes()

    def test_non_finite_reply_poisons(self, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import numpy as np\n"
            "from tilefuse.protocol import serve\n"
            "serve(denoise=lambda s,t,g,r,c,x: ('flow', np.full(x.shape, np.nan, np.float32)))\n",
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
                _, pred = pool.denoise(0, 0.0, 1.0, Rect(0, 0, 4, 4), "", tile)
                return np.array_equal(pred, tile)

            with ThreadPoolExecutor(max_workers=3) as ex:
                assert all(ex.map(roundtrip, tiles))


class TestExternalDenoiser:
    def test_echo_as_denoiser(self, rng):
        with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
            tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
            req = DenoiserRequest(
                tile=tile, step_index=0, t=0.0, sigma=1.0, rect=Rect(0, 0, 3, 3)
            )
            resp = den(req)
            assert resp.kind == "flow"
            assert np.array_equal(resp.prediction, tile)

    def test_worker_flags_respected(self, rng):
        cmd = ECHO_CMD + ["--kind", "eps", "--scale", "2.0"]
        with ExternalDenoiser(cmd, timeout=30) as den:
            tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
            resp = den(
                DenoiserRequest(tile=tile, step_index=0, t=0.0, sigma=1.0,
                                rect=Rect(0, 0, 2, 2))
            )
            assert resp.kind == "eps"
            assert np.allclose(resp.prediction, 2.0 * tile)

    def test_default_size_is_safe_to_share_between_tile_threads(self):
        # one worker serves four tile threads; replies must not interleave
        def latent(workers):
            cfg = SamplerConfig(canvas_shape=(2, 1, 16, 16), steps=3, mode="md",
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
            return DenoiserResponse(prediction=np.array(req.tile), kind="flow")

        def latent(workers, denoiser=None):
            cfg = SamplerConfig(
                canvas_shape=shape, steps=3, mode="fd", window_h=12, window_w=16,
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


class TestCopyFreeWire:
    def test_sent_bytes_equal_whole_frame_packing(self, rng, tmp_path):
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
            "            out.write(pack_frame(2, pack_denoise_response('flow', tile)))\n"
            "        out.flush()\n",
        ) + [str(dump)]
        tile = rng.standard_normal((3, 2, 5, 9)).astype(np.float32)
        args = (12, 0.375, 0.625, Rect(4, 6, 5, 9), "prompt-β", tile)
        with WorkerClient(cmd, timeout=30) as client:
            _, pred = client.denoise(*args)
        assert pred.tobytes() == tile.tobytes()
        assert dump.read_bytes() == pack_frame(MSG_HELLO, b"") + pack_frame(
            MSG_DENOISE_REQUEST, pack_denoise_request(*args)
        )

    def test_tile_larger_than_pipe_through_pool_from_threads(self):
        shape = (16, 21, 60, 104)  # 8.4 MB, far past a pipe's capacity

        def roundtrip(k):
            tiles = np.random.default_rng(k).standard_normal((2,) + shape)
            for j, tile in enumerate(tiles.astype(np.float32)):
                _, pred = pool.denoise(k, 0.5, 0.5, Rect(0, 0, 60, 104), f"t{j}", tile)
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
            "serve(denoise=lambda s, t, g, r, c, x: ('eps', x),\n"
            "      stdout=Trickle(sys.stdout.buffer))\n",
        )
        with WorkerClient(cmd, timeout=30) as client:
            for shape in [(1, 1, 1, 1), (2, 3, 17, 29), (4, 5, 40, 48)]:
                tile = rng.standard_normal(shape).astype(np.float32)
                kind, pred = client.denoise(0, 0.5, 0.5, Rect(0, 0, *shape[2:]), "", tile)
                assert kind == "eps"
                assert_decoded_tile(pred, tile)

    def test_decoded_predictions_are_owned_aligned_float32(self, rng):
        with ExternalDenoiser(ECHO_CMD, timeout=30) as den:
            for shape in [(1, 1, 1, 1), (3, 2, 7, 5), (4, 3, 16, 24)]:
                tile = rng.standard_normal(shape).astype(np.float32)
                pred = den(
                    DenoiserRequest(tile=tile, step_index=0, t=0.5, sigma=0.5,
                                    rect=Rect(0, 0, *shape[2:]))
                ).prediction
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
    "    return 'flow', tile\n"
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
            "    return 'flow', tile\n"
            "serve(denoise=denoise)\n",
        )
        tile = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        with WorkerClient(cmd, timeout=30) as client:
            with pytest.raises(ProtocolError, match="not this step"):
                client.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert client.poisoned is None
            _, pred = client.denoise(1, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
            assert pred.tobytes() == tile.tobytes()

    def test_pool_never_lends_a_poisoned_client(self, rng, tmp_path):
        cmd = worker_script(
            tmp_path,
            "import time\n"
            "from tilefuse.protocol import serve\n"
            "def denoise(step, t, sigma, rect, cond, tile):\n"
            "    if step == 1:\n"
            "        time.sleep(1.5)\n"
            "    return 'flow', tile\n"
            "serve(denoise=denoise)\n",
        )
        tile = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        rect = Rect(0, 0, 3, 3)
        with WorkerPool(cmd, size=2, timeout=1.0) as pool:
            with pytest.raises(ProtocolTimeoutError):
                pool.denoise(1, 0.0, 1.0, rect, "", tile)
            time.sleep(0.7)  # the late reply is due: a lent-out client would see it
            for _ in range(4):
                _, pred = pool.denoise(0, 0.0, 1.0, rect, "", tile)
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
            "    serve(denoise=lambda *a: ('flow', a[-1]))\n"
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
            "serve(denoise=lambda *a: ('flow', a[-1]))\n",
        )
        start = time.monotonic()
        with WorkerPool(cmd, size=3, timeout=30) as pool:
            elapsed = time.monotonic() - start
            tile = np.ones((1, 1, 2, 2), np.float32)
            _, pred = pool.denoise(0, 0.0, 1.0, Rect(0, 0, 2, 2), "", tile)
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
            "serve(denoise=lambda *a: ('flow', a[-1]))\n",
        )
        start = time.monotonic()
        with pytest.raises(WorkerExitError):
            WorkerPool(cmd + [str(pids)], size=3, timeout=30)
        assert time.monotonic() - start < 10  # the exit is seen, not timed out
        started = recorded_pids(pids)
        assert len(started) == 3
        assert not any(alive(pid) for pid in started)
