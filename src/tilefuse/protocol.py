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

Tiles cross the pipe without a whole-tile copy. A sender writes a small
prefix (frame header, fixed fields, FLT1 header) and then the tile data. A
client writes a C-contiguous request tile from its own memory and any
other one, such as a strided view of a latent, one channel at a time
through one float32 buffer of a channel that it keeps between requests.
A receiver reads the exact frame length, never past it, straight into a
fresh buffer placed so that the tile data starts on an ALIGN-byte
boundary, and decodes the tile in place; the arrays it returns are
writable float32. A request whose conditioning id shifts the tile off
float32 alignment costs the worker one copy. These are implementation
choices: the bytes on the wire are the same as with whole-frame packing
of a contiguous copy, and a worker built on serve() needs no change.

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
import math
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
from .tensor import FLT_HEAD_LEN, Rect, flt_from_bytes, flt_head, flt_parts, latent_view

MAGIC = b"FDP1"
_HEADER = struct.Struct("<4sBQ")
HEADER_LEN = _HEADER.size  # 13
MAX_PAYLOAD = 1 << 31  # sanity cap against corrupt length fields
ALIGN = 64  # received tile data starts on this byte boundary
_REQUEST_HEAD = struct.Struct("<Iff4IH")
_WIRE_FLOAT = np.dtype("<f4")

MSG_HELLO = 0
MSG_DENOISE_REQUEST = 1
MSG_DENOISE_RESPONSE = 2
MSG_ERROR = 3
MSG_EMBED_REQUEST = 4
MSG_EMBED_RESPONSE = 5

KINDS = ("flow", "eps")  # a prediction kind's wire byte is its index

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


def _write_frame(out, msg_type: int, *parts, channel=None) -> None:
    """Write one frame to a buffered stream: its header, then each payload
    part as given. A bytes-like part larger than the stream's buffer goes
    from its own memory to the file, uncopied. An ndarray part is a float32
    latent view, written by _write_tile through `channel`."""
    out.write(_frame_header(msg_type, sum(memoryview(p).nbytes for p in parts)))
    for part in parts:
        if isinstance(part, np.ndarray):
            _write_tile(out, part, channel)
        else:
            out.write(part)
    out.flush()


def _write_tile(out, tile: np.ndarray, channel: np.ndarray) -> None:
    """Write a float32 latent view as FLT1 data, little-endian float32 in C
    order: a C-contiguous one from its own memory, any other one channel at
    a time through `channel`, a float32 buffer of at least a channel."""
    if tile.flags.c_contiguous and tile.dtype == _WIRE_FLOAT:
        out.write(tile.reshape(-1).view(np.uint8))
        return
    plane = channel[: math.prod(tile.shape[1:])].reshape(tile.shape[1:])
    for c in range(tile.shape[0]):
        np.copyto(plane, tile[c])
        out.write(plane.reshape(-1).view(np.uint8))


def _denoise_request_parts(step, t, sigma, rect: Rect, conditioning: str, tile):
    """A denoise request payload as (prefix, tile): the fixed fields, the
    conditioning id and the FLT1 header, then the tile as a float32 latent
    view, uncopied, for _write_frame."""
    tile = latent_view(tile, "tile")
    cond = conditioning.encode("utf-8")
    head = _REQUEST_HEAD.pack(
        step, t, sigma, rect.row, rect.col, rect.height, rect.width, len(cond)
    )
    return head + cond + flt_head(tile.shape), tile


def pack_denoise_request(step, t, sigma, rect: Rect, conditioning: str, tile) -> bytes:
    prefix, tile = _denoise_request_parts(step, t, sigma, rect, conditioning, tile)
    return b"".join((prefix, flt_parts(tile)[1]))


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
    if kind not in KINDS:
        raise ProtocolError(f"unknown prediction kind {kind!r}")
    flt_head, data = flt_parts(tile)
    return bytes([KINDS.index(kind)]) + flt_head, data


def pack_denoise_response(kind: str, tile) -> bytes:
    return b"".join(_denoise_response_parts(kind, tile))


def unpack_denoise_response(payload):
    code = payload[0] if payload else None
    if code not in range(len(KINDS)):
        raise MalformedFrameError(f"unknown prediction kind byte {code!r}")
    return KINDS[code], flt_from_bytes(payload[1:], "response tile")


def _aligned_buffer(length: int, msg_type: int) -> memoryview:
    """A writable length-byte buffer for a msg_type payload, placed so that
    the payload's tile data starts on an ALIGN-byte boundary."""
    raw = np.empty(length + ALIGN, dtype=np.uint8)
    start = -(raw.ctypes.data + _DATA_OFFSET.get(msg_type, 0)) % ALIGN
    return memoryview(raw[start : start + length])


def _read_frame(read_into):
    """One frame as (msg_type, payload from _aligned_buffer), read through
    read_into(view), which fills the whole view or raises. A bad magic or an
    oversized length raises MalformedFrameError before the payload is read."""
    header = memoryview(bytearray(HEADER_LEN))
    read_into(header)
    magic, msg_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise MalformedFrameError(f"bad frame magic {magic!r}")
    if length > MAX_PAYLOAD:
        raise MalformedFrameError(f"frame length {length} exceeds cap")
    payload = _aligned_buffer(length, msg_type)
    read_into(payload)
    return msg_type, payload


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


def _spawn(command) -> subprocess.Popen:
    """Start one worker child with pipes on its stdin and stdout, in a
    session of its own: a terminal's SIGINT to the parent's process group
    does not reach it, and it ends on EOF when the parent closes its
    stdin."""
    return subprocess.Popen(
        list(command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,
        start_new_session=True,
    )


def _end(*procs: subprocess.Popen) -> None:
    """EOF on every child's stdin first, so they wind down together, then
    each child is waited for, and killed if it has not exited within 5 s.
    Safe to call more than once."""
    for proc in procs:
        with contextlib.suppress(OSError):
            proc.stdin.close()
    for proc in procs:
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
    WorkerExitError at once. An error frame answering a request leaves the
    client usable; one in place of the hello does not.
    """

    def __init__(self, command, timeout: float = DEFAULT_TIMEOUT, process=None):
        """Start the child, or take `process`, one already started from
        command, and exchange hellos with it."""
        self.command = list(command)
        self.timeout = float(timeout)
        self.poisoned = None  # why the child was killed, once it has been
        self._channel = np.empty(0, dtype=_WIRE_FLOAT)  # see _write_tile
        self._proc = process if process is not None else _spawn(self.command)
        self._ask(MSG_HELLO, (), MSG_HELLO, bytes)

    def _poison(self, exc: BaseException) -> None:
        self.poisoned = f"{type(exc).__name__}: {exc}"
        self._proc.kill()
        self.close()

    def _ask(self, msg_type: int, parts, reply_type: int, unpack):
        """Send one request, read its reply and return unpack(payload);
        see the class docstring for what a failure does to the client."""
        if self.poisoned is not None:
            raise WorkerExitError(f"worker was stopped after a failure ({self.poisoned})")
        try:
            self._send(msg_type, *parts)
            got, payload = self._recv()
            if got != reply_type:
                raise MalformedFrameError(f"expected message type {reply_type}, got {got}")
            return unpack(payload)
        except BaseException as exc:
            if msg_type == MSG_HELLO or not isinstance(exc, WorkerReportedError):
                self._poison(exc)
            raise

    def _send(self, msg_type: int, *parts) -> None:
        try:
            _write_frame(self._proc.stdin, msg_type, *parts, channel=self._channel)
        except OSError as exc:
            raise WorkerExitError(f"worker pipe closed while sending: {exc}") from exc

    def _read_into(self, view: memoryview) -> None:
        """Fill view from the worker's stdout, never past its end, in time."""
        fd = self._proc.stdout.fileno()
        got = 0
        deadline = time.monotonic() + self.timeout
        while got < len(view):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolTimeoutError(
                    f"worker sent {got} of {len(view)} bytes within {self.timeout:g}s"
                )
            # select rejects waits past the platform's time_t range
            ready, _, _ = select.select([fd], [], [], min(remaining, 60.0))
            if not ready:
                continue
            count = os.readv(fd, [view[got:]])
            if not count:
                raise WorkerExitError("worker closed its output pipe")
            got += count

    def _recv(self):
        """One frame as (msg_type, payload); an error frame raises instead."""
        msg_type, payload = _read_frame(self._read_into)
        if msg_type == MSG_ERROR:
            text = bytes(payload).decode("utf-8", "replace")
            raise WorkerReportedError(f"worker error: {text}")
        return msg_type, payload

    def denoise(self, step, t, sigma, rect: Rect, conditioning: str, tile):
        """Returns (kind, prediction). The prediction must match the tile
        shape bit for bit in layout. It is a writable float32 array whose
        data starts on an ALIGN-byte boundary. The tile may be any 4-D
        float32 view: it is sent without a whole-tile copy."""
        prefix, tile = _denoise_request_parts(step, t, sigma, rect, conditioning, tile)
        cells = math.prod(tile.shape[1:])
        if self._channel.size < cells:
            self._channel = np.empty(cells, dtype=_WIRE_FLOAT)

        def unpack(payload):
            kind, pred = unpack_denoise_response(payload)
            if pred.shape != tile.shape:
                raise ShapeError(f"worker returned shape {pred.shape} for a {tile.shape} tile")
            return kind, pred

        return self._ask(MSG_DENOISE_REQUEST, (prefix, tile), MSG_DENOISE_RESPONSE, unpack)

    def embed(self, tensor) -> np.ndarray:
        parts = flt_parts(tensor)
        return self._ask(MSG_EMBED_REQUEST, parts, MSG_EMBED_RESPONSE, unpack_embedding)

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
            _end(*procs)
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
        """End every child: EOF to all of them, then WorkerClient.close's
        wait and kill for each."""
        _end(*(c._proc for c in self._clients))

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
                raise EOFError
            got += count

    while True:
        try:
            msg_type, payload = _read_frame(read_into)
        except EOFError:
            return
        except MalformedFrameError as exc:  # the stream is out of step
            _write_frame(out, MSG_ERROR, str(exc).encode("utf-8"))
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
