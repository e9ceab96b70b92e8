"""FDP1: a framed binary protocol for talking to denoiser/embedding workers.

A worker is a persistent child process speaking over stdin/stdout. Every
message is one frame:

    [4-byte magic "FDP1"][1-byte type][8-byte LE payload length][payload]

Types: 0 hello (empty payload, exchanged once at startup, client first),
1 denoise request, 2 denoise response, 3 error (UTF-8 text), 4 embed
request, 5 embed response.

Denoise request payload: step index (u32), t (f32), sigma (f32), window
rect as 4 x u32 (row, col, height, width), conditioning id (u16 length +
bytes), then an FLT1-serialized tile. Denoise response payload: one kind
byte (0 flow, 1 eps) + FLT1 tile. Embed request payload: FLT1 tensor.
Embed response payload: u32 dimension + that many f32 values.

All integers and floats are little-endian. Reads are select()-based so a
hung worker trips the timeout instead of blocking forever (POSIX pipes).
"""

from __future__ import annotations

import os
import queue
import select
import struct
import subprocess
import sys
import time

import numpy as np

from .errors import (
    MalformedFrameError,
    ProtocolError,
    ProtocolTimeoutError,
    ShapeError,
    WorkerExitError,
)
from .tensor import Rect, flt_from_bytes, flt_to_bytes

MAGIC = b"FDP1"
HEADER_LEN = 13
MAX_PAYLOAD = 1 << 31  # sanity cap against corrupt length fields

MSG_HELLO = 0
MSG_DENOISE_REQUEST = 1
MSG_DENOISE_RESPONSE = 2
MSG_ERROR = 3
MSG_EMBED_REQUEST = 4
MSG_EMBED_RESPONSE = 5

KIND_CODES = {"flow": 0, "eps": 1}
KIND_NAMES = {0: "flow", 1: "eps"}

DEFAULT_TIMEOUT = 300.0


def pack_frame(msg_type: int, payload: bytes) -> bytes:
    return MAGIC + bytes([msg_type]) + struct.pack("<Q", len(payload)) + payload


def pack_denoise_request(step, t, sigma, rect: Rect, conditioning: str, tile) -> bytes:
    cond = conditioning.encode("utf-8")
    head = struct.pack(
        "<Iff4IH",
        step,
        t,
        sigma,
        rect.row,
        rect.col,
        rect.height,
        rect.width,
        len(cond),
    )
    return head + cond + flt_to_bytes(tile)


def unpack_denoise_request(payload: bytes):
    fixed = struct.calcsize("<Iff4IH")
    if len(payload) < fixed:
        raise MalformedFrameError(f"denoise request truncated at {len(payload)} bytes")
    step, t, sigma, row, col, height, width, cond_len = struct.unpack(
        "<Iff4IH", payload[:fixed]
    )
    cond = payload[fixed : fixed + cond_len].decode("utf-8")
    tile = flt_from_bytes(payload[fixed + cond_len :], "request tile")
    return step, t, sigma, Rect(row, col, height, width), cond, tile


def pack_denoise_response(kind: str, tile) -> bytes:
    return bytes([KIND_CODES[kind]]) + flt_to_bytes(tile)


def unpack_denoise_response(payload: bytes):
    if not payload or payload[0] not in KIND_NAMES:
        code = payload[0] if payload else None
        raise MalformedFrameError(f"unknown prediction kind byte {code!r}")
    return KIND_NAMES[payload[0]], flt_from_bytes(payload[1:], "response tile")


def pack_embedding(vec: np.ndarray) -> bytes:
    vec = np.asarray(vec, dtype="<f4").ravel()
    return struct.pack("<I", vec.size) + vec.tobytes()


def unpack_embedding(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise MalformedFrameError("embedding payload truncated")
    (dim,) = struct.unpack("<I", payload[:4])
    if dim == 0 or len(payload) != 4 + 4 * dim:
        raise MalformedFrameError(
            f"embedding dimension {dim} does not match payload of {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype="<f4", count=dim, offset=4).astype(np.float32)


class _PipeReader:
    """Exact-length reads over a pipe fd with a deadline."""

    def __init__(self, fileobj):
        self._fd = fileobj.fileno()
        self._buf = bytearray()

    def read_exact(self, n: int, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while len(self._buf) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolTimeoutError(
                    f"worker sent {len(self._buf)} of {n} bytes within {timeout:g}s"
                )
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                raise WorkerExitError("worker closed its output pipe")
            self._buf += chunk
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out


class WorkerClient:
    """One child process; requests are strictly serial per client."""

    def __init__(self, command, timeout: float = DEFAULT_TIMEOUT):
        self.command = list(command)
        self.timeout = float(timeout)
        self._proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,
        )
        self._reader = _PipeReader(self._proc.stdout)
        self._send(MSG_HELLO, b"")
        msg_type, payload = self._recv()
        if msg_type != MSG_HELLO:
            raise MalformedFrameError(f"expected hello, got message type {msg_type}")

    def _send(self, msg_type: int, payload: bytes) -> None:
        try:
            self._proc.stdin.write(pack_frame(msg_type, payload))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerExitError(f"worker pipe closed while sending: {exc}") from exc

    def _recv(self):
        header = self._reader.read_exact(HEADER_LEN, self.timeout)
        if header[:4] != MAGIC:
            raise MalformedFrameError(f"bad frame magic {header[:4]!r}")
        msg_type = header[4]
        (length,) = struct.unpack("<Q", header[5:])
        if length > MAX_PAYLOAD:
            raise MalformedFrameError(f"frame length {length} exceeds cap")
        payload = self._reader.read_exact(length, self.timeout)
        if msg_type == MSG_ERROR:
            raise ProtocolError(f"worker error: {payload.decode('utf-8', 'replace')}")
        return msg_type, payload

    def denoise(self, step, t, sigma, rect: Rect, conditioning: str, tile):
        """Returns (kind, prediction). The prediction must match the tile
        shape bit for bit in layout."""
        self._send(
            MSG_DENOISE_REQUEST,
            pack_denoise_request(step, t, sigma, rect, conditioning, tile),
        )
        msg_type, payload = self._recv()
        if msg_type != MSG_DENOISE_RESPONSE:
            raise MalformedFrameError(
                f"expected denoise response, got message type {msg_type}"
            )
        kind, pred = unpack_denoise_response(payload)
        if pred.shape != tuple(tile.shape):
            raise ShapeError(
                f"worker returned shape {pred.shape} for a {tuple(tile.shape)} tile"
            )
        return kind, pred

    def embed(self, tensor) -> np.ndarray:
        self._send(MSG_EMBED_REQUEST, flt_to_bytes(tensor))
        msg_type, payload = self._recv()
        if msg_type != MSG_EMBED_RESPONSE:
            raise MalformedFrameError(
                f"expected embed response, got message type {msg_type}"
            )
        return unpack_embedding(payload)

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WorkerPool:
    """Fixed set of worker clients, one in-flight request each. Thread-safe:
    callers borrow an idle client for the duration of a call."""

    def __init__(self, command, size: int = 1, timeout: float = DEFAULT_TIMEOUT):
        if size < 1:
            raise ProtocolError(f"pool size must be >= 1, got {size}")
        self._clients = [WorkerClient(command, timeout) for _ in range(size)]
        self._idle = queue.Queue()
        for c in self._clients:
            self._idle.put(c)

    def denoise(self, *args, **kwargs):
        client = self._idle.get()
        try:
            return client.denoise(*args, **kwargs)
        finally:
            self._idle.put(client)

    def embed(self, *args, **kwargs):
        client = self._idle.get()
        try:
            return client.embed(*args, **kwargs)
        finally:
            self._idle.put(client)

    def close(self) -> None:
        for c in self._clients:
            c.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(denoise=None, embed=None, stdin=None, stdout=None) -> None:
    """Run a worker loop on raw byte streams (defaults: this process's
    stdin/stdout). denoise(step, t, sigma, rect, conditioning, tile) returns
    (kind, prediction); embed(tensor) returns a 1-D vector. Returns on EOF.

    Handler exceptions are reported to the peer as error frames; the loop
    keeps serving.
    """
    inp = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer

    def read_exact(n):
        chunks = b""
        while len(chunks) < n:
            block = inp.read(n - len(chunks))
            if not block:
                return None
            chunks += block
        return chunks

    def reply(msg_type, payload):
        out.write(pack_frame(msg_type, payload))
        out.flush()

    while True:
        header = read_exact(HEADER_LEN)
        if header is None:
            return
        if header[:4] != MAGIC:
            reply(MSG_ERROR, b"bad frame magic")
            return
        msg_type = header[4]
        (length,) = struct.unpack("<Q", header[5:])
        payload = read_exact(length)
        if payload is None:
            return
        try:
            if msg_type == MSG_HELLO:
                reply(MSG_HELLO, b"")
            elif msg_type == MSG_DENOISE_REQUEST:
                if denoise is None:
                    raise ProtocolError("worker has no denoise handler")
                step, t, sigma, rect, cond, tile = unpack_denoise_request(payload)
                kind, pred = denoise(step, t, sigma, rect, cond, tile)
                reply(MSG_DENOISE_RESPONSE, pack_denoise_response(kind, pred))
            elif msg_type == MSG_EMBED_REQUEST:
                if embed is None:
                    raise ProtocolError("worker has no embed handler")
                tensor = flt_from_bytes(payload, "embed request")
                reply(MSG_EMBED_RESPONSE, pack_embedding(embed(tensor)))
            else:
                raise ProtocolError(f"unsupported message type {msg_type}")
        except Exception as exc:  # keep serving after handler failures
            reply(MSG_ERROR, str(exc).encode("utf-8"))
