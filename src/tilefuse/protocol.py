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

Tiles cross the pipe without user-space copies. A sender writes a small
prefix (frame header, fixed fields, FLT1 header) and then the tile's own
memory. A receiver reads the exact frame length, never past it, straight
into a fresh buffer placed so that the tile data starts on an ALIGN-byte
boundary, and decodes the tile in place; the arrays it returns are
writable float32. A request whose conditioning id shifts the tile off
float32 alignment costs the worker one copy. These are implementation
choices: the bytes on the wire are the same as with whole-frame packing,
and a worker built on serve() needs no change.

A client whose stream may be out of step after a failure (a timeout, a
malformed frame, the pipe closing mid-frame) is poisoned: its child is
killed and later calls raise WorkerExitError; a WorkerPool stops lending
it out. A worker that sends garbage (a wrong message type or kind byte, a
bad tile, a prediction of the wrong shape) is poisoned the same way. An
error frame from the worker is a complete reply and leaves the client
usable.
"""

from __future__ import annotations

import contextlib
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
    WorkerReportedError,
)
from .tensor import FLT_HEAD_LEN, Rect, flt_from_bytes, flt_parts

MAGIC = b"FDP1"
_HEADER = struct.Struct("<4sBQ")
HEADER_LEN = _HEADER.size  # 13
MAX_PAYLOAD = 1 << 31  # sanity cap against corrupt length fields
ALIGN = 64  # received tile data starts on this byte boundary
_REQUEST_HEAD = struct.Struct("<Iff4IH")

MSG_HELLO = 0
MSG_DENOISE_REQUEST = 1
MSG_DENOISE_RESPONSE = 2
MSG_ERROR = 3
MSG_EMBED_REQUEST = 4
MSG_EMBED_RESPONSE = 5

KIND_CODES = {"flow": 0, "eps": 1}
KIND_NAMES = {0: "flow", 1: "eps"}

DEFAULT_TIMEOUT = 300.0

# Where the FLT1 data starts in each payload that carries a tile (for a
# denoise request, assuming an empty conditioning id).
_DATA_OFFSET = {
    MSG_DENOISE_REQUEST: _REQUEST_HEAD.size + FLT_HEAD_LEN,
    MSG_DENOISE_RESPONSE: 1 + FLT_HEAD_LEN,
    MSG_EMBED_REQUEST: FLT_HEAD_LEN,
}


def _frame_header(msg_type: int, length: int) -> bytes:
    return _HEADER.pack(MAGIC, msg_type, length)


def pack_frame(msg_type: int, payload: bytes) -> bytes:
    return _frame_header(msg_type, len(payload)) + payload


def _write_frame(out, msg_type: int, *parts) -> None:
    """Write one frame to a buffered stream: its header, then each payload
    part as given. A part larger than the stream's buffer goes from its own
    memory to the file, uncopied."""
    out.write(_frame_header(msg_type, sum(len(p) for p in parts)))
    for part in parts:
        out.write(part)
    out.flush()


def _denoise_request_parts(step, t, sigma, rect: Rect, conditioning: str, tile):
    """A denoise request payload as (prefix, tile data view): the fixed
    fields, the conditioning id and the FLT1 header, then the data."""
    cond = conditioning.encode("utf-8")
    flt_head, data = flt_parts(tile)
    head = _REQUEST_HEAD.pack(
        step, t, sigma, rect.row, rect.col, rect.height, rect.width, len(cond)
    )
    return head + cond + flt_head, data


def pack_denoise_request(step, t, sigma, rect: Rect, conditioning: str, tile) -> bytes:
    return b"".join(_denoise_request_parts(step, t, sigma, rect, conditioning, tile))


def unpack_denoise_request(payload):
    fixed = _REQUEST_HEAD.size
    if len(payload) < fixed:
        raise MalformedFrameError(f"denoise request truncated at {len(payload)} bytes")
    step, t, sigma, row, col, height, width, cond_len = _REQUEST_HEAD.unpack(
        payload[:fixed]
    )
    cond = bytes(payload[fixed : fixed + cond_len]).decode("utf-8")
    tile = flt_from_bytes(payload[fixed + cond_len :], "request tile")
    return step, t, sigma, Rect(row, col, height, width), cond, tile


def _denoise_response_parts(kind: str, tile):
    flt_head, data = flt_parts(tile)
    return bytes([KIND_CODES[kind]]) + flt_head, data


def pack_denoise_response(kind: str, tile) -> bytes:
    return b"".join(_denoise_response_parts(kind, tile))


def unpack_denoise_response(payload):
    if not payload or payload[0] not in KIND_NAMES:
        code = payload[0] if payload else None
        raise MalformedFrameError(f"unknown prediction kind byte {code!r}")
    return KIND_NAMES[payload[0]], flt_from_bytes(payload[1:], "response tile")


def _aligned_buffer(length: int, msg_type: int) -> memoryview:
    """A writable length-byte buffer for a msg_type payload, placed so that
    the payload's tile data starts on an ALIGN-byte boundary."""
    raw = np.empty(length + ALIGN, dtype=np.uint8)
    start = -(raw.ctypes.data + _DATA_OFFSET.get(msg_type, 0)) % ALIGN
    return memoryview(raw[start : start + length])


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
    """Exact-length reads over a pipe fd with a deadline. Bytes go straight
    into the caller's buffer and nothing past its end is read, so no part
    of a later frame is held here."""

    def __init__(self, fileobj):
        self._fd = fileobj.fileno()

    def read_into(self, view: memoryview, timeout: float) -> None:
        n = len(view)
        got = 0
        deadline = time.monotonic() + timeout
        while got < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolTimeoutError(
                    f"worker sent {got} of {n} bytes within {timeout:g}s"
                )
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if not ready:
                continue
            count = os.readv(self._fd, [view[got:]])
            if not count:
                raise WorkerExitError("worker closed its output pipe")
            got += count

    def read_exact(self, n: int, timeout: float) -> bytes:
        buf = bytearray(n)
        self.read_into(memoryview(buf), timeout)
        return bytes(buf)


def _spawn(command) -> subprocess.Popen:
    """Start one worker child with pipes on its stdin and stdout."""
    return subprocess.Popen(
        list(command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,
    )


def _end(proc: subprocess.Popen) -> None:
    """EOF on the child's stdin, and a kill if it has not exited within 5 s.
    Safe to call more than once."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class WorkerClient:
    """One child process; requests are strictly serial per client.

    Any failed exchange other than an error frame from the worker poisons
    the client: a timeout, a malformed or unexpected frame, the pipe
    closing, a prediction of the wrong shape. The stream may be out of step
    after it, so the child is killed and every later call raises
    WorkerExitError at once. An error frame leaves the client usable.
    """

    def __init__(self, command, timeout: float = DEFAULT_TIMEOUT, process=None):
        """Start the child, or take `process`, one already started from
        command, and exchange hellos with it."""
        self.command = list(command)
        self.timeout = float(timeout)
        self.poisoned = None  # why the child was killed, once it has been
        self._proc = process if process is not None else _spawn(self.command)
        self._reader = _PipeReader(self._proc.stdout)
        try:
            self._send(MSG_HELLO)
            msg_type, _ = self._recv()
            if msg_type != MSG_HELLO:
                raise MalformedFrameError(f"expected hello, got message type {msg_type}")
        except BaseException as exc:
            self._poison(exc)
            raise

    def _poison(self, exc: BaseException) -> None:
        self.poisoned = f"{type(exc).__name__}: {exc}"
        self._proc.kill()
        self.close()

    @contextlib.contextmanager
    def _exchange(self):
        """Guard one request and its reply; see the class docstring."""
        if self.poisoned is not None:
            raise WorkerExitError(f"worker was stopped after a failure ({self.poisoned})")
        try:
            yield
        except WorkerReportedError:
            raise
        except BaseException as exc:
            self._poison(exc)
            raise

    def _send(self, msg_type: int, *parts) -> None:
        try:
            _write_frame(self._proc.stdin, msg_type, *parts)
        except OSError as exc:
            raise WorkerExitError(f"worker pipe closed while sending: {exc}") from exc

    def _recv(self):
        """Read one frame. The payload is a fresh writable buffer whose tile
        data, if it carries one, starts on an ALIGN-byte boundary."""
        header = self._reader.read_exact(HEADER_LEN, self.timeout)
        magic, msg_type, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise MalformedFrameError(f"bad frame magic {magic!r}")
        if length > MAX_PAYLOAD:
            raise MalformedFrameError(f"frame length {length} exceeds cap")
        payload = _aligned_buffer(length, msg_type)
        self._reader.read_into(payload, self.timeout)
        if msg_type == MSG_ERROR:
            text = bytes(payload).decode("utf-8", "replace")
            raise WorkerReportedError(f"worker error: {text}")
        return msg_type, payload

    def denoise(self, step, t, sigma, rect: Rect, conditioning: str, tile):
        """Returns (kind, prediction). The prediction must match the tile
        shape bit for bit in layout. It is a writable float32 array whose
        data starts on an ALIGN-byte boundary."""
        parts = _denoise_request_parts(step, t, sigma, rect, conditioning, tile)
        with self._exchange():
            self._send(MSG_DENOISE_REQUEST, *parts)
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
        parts = flt_parts(tensor)
        with self._exchange():
            self._send(MSG_EMBED_REQUEST, *parts)
            msg_type, payload = self._recv()
            if msg_type != MSG_EMBED_RESPONSE:
                raise MalformedFrameError(
                    f"expected embed response, got message type {msg_type}"
                )
            return unpack_embedding(payload)

    def close(self) -> None:
        """End the child: EOF on its stdin, and a kill if it has not exited
        within 5 s. Safe to call more than once."""
        _end(self._proc)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class WorkerPool:
    """Fixed set of worker clients, one in-flight request each. Thread-safe:
    callers borrow an idle client for the duration of a call. A poisoned
    client is never lent again; once all are, every call raises
    WorkerExitError at once.

    Every child is started before the first hello is awaited, so the
    children boot in parallel; each hello then has the pool's timeout. A
    start that fails kills every child it started."""

    def __init__(self, command, size: int = 1, timeout: float = DEFAULT_TIMEOUT):
        if size < 1:
            raise ProtocolError(f"pool size must be >= 1, got {size}")
        procs, self._clients = [], []
        try:
            for _ in range(size):
                procs.append(_spawn(command))
            for proc in procs:
                self._clients.append(WorkerClient(command, timeout, proc))
        except BaseException:
            for proc in procs:
                proc.kill()
                _end(proc)
            raise
        self._idle = queue.Queue()
        for c in self._clients:
            self._idle.put(c)

    @contextlib.contextmanager
    def _borrow(self):
        client = self._idle.get()
        if client is None:
            self._idle.put(None)  # pass the news on to the next borrower
            raise WorkerExitError("every worker in the pool was stopped after a failure")
        try:
            yield client
        finally:
            if client.poisoned is None:
                self._idle.put(client)
            elif all(c.poisoned is not None for c in self._clients):
                self._idle.put(None)

    def denoise(self, *args, **kwargs):
        with self._borrow() as client:
            return client.denoise(*args, **kwargs)

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

    def read_into(view):
        got = 0
        while got < len(view):
            count = inp.readinto(view[got:])
            if not count:
                return False
            got += count
        return True

    header = memoryview(bytearray(HEADER_LEN))
    while True:
        if not read_into(header):
            return
        magic, msg_type, length = _HEADER.unpack(header)
        if magic != MAGIC:
            _write_frame(out, MSG_ERROR, b"bad frame magic")
            return
        if length > MAX_PAYLOAD:
            _write_frame(out, MSG_ERROR, b"frame length exceeds cap")
            return
        payload = _aligned_buffer(length, msg_type)
        if not read_into(payload):
            return
        try:
            if msg_type == MSG_HELLO:
                _write_frame(out, MSG_HELLO)
            elif msg_type == MSG_DENOISE_REQUEST:
                if denoise is None:
                    raise ProtocolError("worker has no denoise handler")
                step, t, sigma, rect, cond, tile = unpack_denoise_request(payload)
                kind, pred = denoise(step, t, sigma, rect, cond, tile)
                _write_frame(out, MSG_DENOISE_RESPONSE, *_denoise_response_parts(kind, pred))
            elif msg_type == MSG_EMBED_REQUEST:
                if embed is None:
                    raise ProtocolError("worker has no embed handler")
                tensor = flt_from_bytes(payload, "embed request")
                _write_frame(out, MSG_EMBED_RESPONSE, pack_embedding(embed(tensor)))
            else:
                raise ProtocolError(f"unsupported message type {msg_type}")
        except Exception as exc:  # keep serving after handler failures
            _write_frame(out, MSG_ERROR, str(exc).encode("utf-8"))
