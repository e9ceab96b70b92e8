import io
import os
import struct
import sys

import numpy as np
import pytest

from tilefuse import ExternalDenoiser, Rect
from tilefuse.denoisers import DenoiserRequest
from tilefuse.errors import (
    MalformedFrameError,
    ProtocolError,
    ProtocolTimeoutError,
    ShapeError,
    WorkerExitError,
)
from tilefuse.protocol import (
    MSG_DENOISE_REQUEST,
    MSG_DENOISE_RESPONSE,
    MSG_HELLO,
    WorkerClient,
    WorkerPool,
    _PipeReader,
    pack_denoise_request,
    pack_denoise_response,
    pack_embedding,
    pack_frame,
    serve,
    unpack_denoise_request,
    unpack_denoise_response,
    unpack_embedding,
)

ECHO_CMD = [sys.executable, "-m", "tilefuse.echo_worker"]


def worker_script(tmp_path, body):
    """Write a small standalone FDP1 worker script and return its command."""
    path = tmp_path / "worker.py"
    path.write_text(body)
    return [sys.executable, str(path)]


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

    def test_timeout_message_keeps_fractional_seconds(self):
        read_fd, write_fd = os.pipe()
        try:
            with os.fdopen(read_fd, "rb") as silent:
                with pytest.raises(ProtocolTimeoutError, match=r"within 0\.3s"):
                    _PipeReader(silent).read_exact(4, 0.3)
        finally:
            os.close(write_fd)

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
