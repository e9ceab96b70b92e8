"""FDP1: a framed binary protocol for talking to denoiser/embedding workers.

A worker is a persistent child process speaking over stdin/stdout. Every
message is one frame:

    [4-byte magic "FDP1"][1-byte type][8-byte LE payload length][payload]

Types: 0 hello (exchanged once at startup, client first), 1 denoise
request, 2 denoise response, 3 error (UTF-8 text), 4 embed request, 5 embed
response, 6 denoise request in shared memory.

Denoise request payload: step index (u32), t (f32), sigma (f32), window
rect as 4 x u32 (row, col, height, width), conditioning id (u16 length +
bytes), then an FLT1-serialized tile. Denoise response payload: one byte,
always 0 (the tile is a flow prediction), + FLT1 tile. Embed request
payload: FLT1 tensor. Embed response payload: u32 dimension + that many
f32 values.

All integers and floats are little-endian. Reads are select()-based so a
hung worker trips the timeout instead of blocking forever (POSIX pipes).

Tiles cross shared memory where the platform has os.memfd_create. Each
WorkerPool, and each WorkerClient that starts its own worker, makes one
anonymous memfd, the slab. _spawn passes its fd to the worker and names
it, with its inode, in the worker's SLAB_ENV variable. A worker built on
serve() that finds that fd answers the hello with the payload b"slab"
(the ack); every other hello reply is empty. To an acking worker a denoise
request is type 6: the fixed fields and conditioning id of type 1, the
u64 byte offset of a slot of the slab, and the FLT1 header of the tile.
The client copies the tile, strided or not, into a leased slot; the worker
denoises the slot where it lies and writes its prediction back into it,
with no copy when the handler returns the request view. The reply is type
2 with the kind byte and FLT1 header alone. The prediction is the slot's
array, and the slot is leased again only when it and every view of it are
gone, so a caller may keep a prediction across later calls. Slots come
from one free list per slab, which grows only when no free slot fits. A
worker that does not ack, or a platform without memfd_create, gets the
pipe frames below, byte for byte.

Over the pipe, tiles go without a whole-tile copy. A sender writes a small
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

Every check runs whichever way a tile travels: the FLT1 header, the
shape of the prediction, and that both tiles are finite.

A client whose stream may be out of step after a failure (a timeout, a
malformed frame, the pipe closing mid-frame) is poisoned: its child is
killed and later calls raise WorkerExitError; a WorkerPool stops lending
it out. A worker that sends garbage (a wrong message type, a leading byte
other than 0, a bad tile, a prediction of the wrong shape) is poisoned the
same way. The slot of a failed request is freed, and leased again, only
after its worker is reaped, and then at once: the exception does not hold
it. An error frame from the worker is a complete reply and
leaves the client usable.

A worker runs in a session of its own, so a terminal's SIGINT reaches the
parent alone. It ends on EOF, or by a kill 5 s later (_end), and is in
`children` until it is reaped, for the CLI's signal handler.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import queue
import select
import struct
import subprocess
import sys
import threading
import time
import traceback
import weakref

import numpy as np

from .errors import (
    MalformedFrameError,
    ProtocolError,
    ProtocolTimeoutError,
    ShapeError,
    WorkerExitError,
    WorkerReportedError,
)
from .tensor import (
    FLT_HEAD_LEN,
    Rect,
    flt_finite,
    flt_from_bytes,
    flt_head,
    flt_parts,
    flt_shape,
    latent_view,
)

MAGIC = b"FDP1"
_HEADER = struct.Struct("<4sBQ")
HEADER_LEN = _HEADER.size  # 13
MAX_PAYLOAD = 1 << 31  # sanity cap against corrupt length fields
ALIGN = 64  # received tile data starts on this byte boundary
_REQUEST_HEAD = struct.Struct("<Iff4IH")
_OFFSET = struct.Struct("<Q")
_WIRE_FLOAT = np.dtype("<f4")

MSG_HELLO = 0
MSG_DENOISE_REQUEST = 1
MSG_DENOISE_RESPONSE = 2
MSG_ERROR = 3
MSG_EMBED_REQUEST = 4
MSG_EMBED_RESPONSE = 5
MSG_SLAB_DENOISE_REQUEST = 6

SLAB_ENV = "TILEFUSE_FDP1_SLAB"  # "<fd>:<inode>" of the slab a worker inherits
_SLAB_ACK = b"slab"

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


def _request_prefix(step, t, sigma, rect: Rect, conditioning: str, shape, offset=None) -> bytes:
    """A denoise request payload up to its tile data: the fixed fields, the
    conditioning id, the slot offset of a type 6 request, and the FLT1
    header of a tile of shape."""
    cond = conditioning.encode("utf-8")
    head = _REQUEST_HEAD.pack(
        step, t, sigma, rect.row, rect.col, rect.height, rect.width, len(cond)
    )
    slot = b"" if offset is None else _OFFSET.pack(offset)
    return head + cond + slot + flt_head(shape)


def _denoise_request_parts(step, t, sigma, rect: Rect, conditioning: str, tile):
    """A denoise request payload as (prefix, tile): the prefix, then the
    tile as a float32 latent view, uncopied, for _write_frame."""
    tile = latent_view(tile, "tile")
    return _request_prefix(step, t, sigma, rect, conditioning, tile.shape), tile


def pack_denoise_request(step, t, sigma, rect: Rect, conditioning: str, tile) -> bytes:
    prefix, tile = _denoise_request_parts(step, t, sigma, rect, conditioning, tile)
    return b"".join((prefix, flt_parts(tile)[1]))


def unpack_denoise_request(payload, slab=None):
    """(step, t, sigma, rect, conditioning, tile) of a denoise request. With
    slab, the worker's _SlabMap, the payload is a type 6 one: the tile is
    the slot it names, where it lies."""
    fixed = _REQUEST_HEAD.size
    if len(payload) < fixed:
        raise MalformedFrameError(f"denoise request truncated at {len(payload)} bytes")
    step, t, sigma, row, col, height, width, cond_len = _REQUEST_HEAD.unpack(
        payload[:fixed]
    )
    cond = bytes(payload[fixed : fixed + cond_len]).decode("utf-8")
    rest = payload[fixed + cond_len :]
    if slab is None:
        tile = flt_from_bytes(rest, "request tile")
    else:
        tile = flt_finite(slab.tile(rest), "request tile")
    return step, t, sigma, Rect(row, col, height, width), cond, tile


def _denoise_response_parts(tile):
    head, data = flt_parts(tile)
    return b"\x00" + head, data


def pack_denoise_response(tile) -> bytes:
    return b"".join(_denoise_response_parts(tile))


def unpack_denoise_response(payload, slot=None):
    """The prediction of a denoise reply. A reply to a request in shared
    memory (slot, the array of its leased slot) holds the kind byte and the
    FLT1 header alone: the prediction is the slot, which the worker wrote,
    and the header must give the slot's shape."""
    if payload[:1] != b"\x00":
        raise MalformedFrameError(f"unknown prediction kind byte {bytes(payload[:1])!r}")
    if slot is None:
        return flt_from_bytes(payload[1:], "response tile")
    shape = flt_shape(payload[1:], "response tile")
    if shape != slot.shape:
        raise ShapeError(f"worker returned shape {shape} for a {slot.shape} tile")
    if len(payload) != 1 + FLT_HEAD_LEN:
        raise MalformedFrameError(f"a reply in shared memory holds {len(payload)} bytes")
    return flt_finite(slot, "response tile")


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


class _Slab:
    """The shared memory of a pool's tiles: one anonymous memfd, cut into
    page-aligned slots that lie end to end. Thread-safe.

    lease() hands out a free slot that fits, the smallest, as a float32
    array; the slot is free again once that array and every view of it are
    gone. Only when no free slot fits does the slab grow, after it gives up
    one free slot, if any, and returns that slot's memory. So it never
    holds more slots than arrays alive at once. Where memfd_create is
    missing or fails, fd is None and no worker is offered the slab.
    """

    def __init__(self):
        try:
            self.fd = os.memfd_create("tilefuse-fdp1")  # close-on-exec
        except (AttributeError, OSError):
            self.fd = None
        self.size = 0  # bytes; a slot given up leaves a hole that holds no memory
        self.slots = 0
        self._free = []  # (offset, mmap) of every slot not leased
        self._lock = threading.RLock()  # a lease's finalizer may run inside lease()
        self._closed = False

    def lease(self, shape) -> tuple[int, np.ndarray]:
        """(offset, array): a float32 array of shape in a slot of its own."""
        nbytes = 4 * math.prod(shape)
        with self._lock:
            if self._closed:
                raise WorkerExitError("the worker pool was closed")
            fits = [slot for slot in self._free if len(slot[1]) >= nbytes]
            if fits:
                slot = min(fits, key=lambda s: len(s[1]))
                self._free.remove(slot)
            else:
                if self._free:  # none fits: give one up, and its memory
                    self._free.pop()[1].madvise(mmap.MADV_REMOVE)
                    self.slots -= 1
                size = max(1, -(-nbytes // mmap.ALLOCATIONGRANULARITY)) * mmap.ALLOCATIONGRANULARITY
                os.ftruncate(self.fd, self.size + size)
                slot = self.size, mmap.mmap(self.fd, size, offset=self.size)
                self.size += size
                self.slots += 1
        # views of this array keep it alive: numpy collapses their base to it
        array = np.ndarray(shape, np.float32, buffer=slot[1])
        weakref.finalize(array, self._release, slot).atexit = False
        return slot[0], array

    def _release(self, slot) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(slot)

    def close(self) -> None:
        """Close the fd. A slot's mmap, which unmaps it, goes with the last
        reference: a free one's now, a leased one's with its array. Safe to
        call more than once."""
        with self._lock:
            if self._closed or self.fd is None:
                return
            self._closed = True
            self._free.clear()
            os.close(self.fd)


class _SlabMap:
    """A worker's map of the slab _spawn handed it, remapped as it grows."""

    def __init__(self, fd: int):
        self.fd = fd
        self.map = None

    @classmethod
    def inherited(cls):
        """The slab named in SLAB_ENV, or None: no name, or an fd that is
        not open on the inode named."""
        fd, _, inode = os.environ.get(SLAB_ENV, "").partition(":")
        try:
            if os.fstat(int(fd)).st_ino == int(inode):
                return cls(int(fd))
        except (ValueError, OSError):
            pass
        return None

    def tile(self, blob) -> np.ndarray:
        """The slot that blob (a u64 offset and an FLT1 header) names, as a
        writable float32 array of the header's shape."""
        if len(blob) != _OFFSET.size + FLT_HEAD_LEN:
            raise MalformedFrameError(f"a slot reference holds {len(blob)} bytes")
        (offset,) = _OFFSET.unpack(blob[: _OFFSET.size])
        shape = flt_shape(blob[_OFFSET.size :], "request tile")
        end = offset + 4 * math.prod(shape)
        if self.map is None or end > len(self.map):
            size = os.fstat(self.fd).st_size
            if end > size:
                raise MalformedFrameError(f"slot [{offset}, {end}) lies past the slab's {size} bytes")
            self.map = mmap.mmap(self.fd, size)
        return np.ndarray(shape, np.float32, buffer=self.map, offset=offset)


def _write_back(slot: np.ndarray, head: bytes, data) -> None:
    """Put a prediction, as _denoise_response_parts gave it, into the slot
    of its request, unless it is there already. One of another shape is
    left out: the header tells the client."""
    if head[1:] != flt_head(slot.shape):
        return
    dst, src = slot.reshape(-1).view(np.uint8), np.frombuffer(data, np.uint8)
    if src.ctypes.data != dst.ctypes.data:
        np.copyto(dst, src)


children = set()  # every worker child started and not yet reaped by _end


def _spawn(command, slab: _Slab) -> subprocess.Popen:
    """Start one worker child, piped to stdin and stdout, in its own
    session, with the slab's fd and no other beyond stdio and stderr."""
    env, fds = None, ()
    if slab.fd is not None:
        env = {**os.environ, SLAB_ENV: f"{slab.fd}:{os.fstat(slab.fd).st_ino}"}
        fds = (slab.fd,)
    proc = subprocess.Popen(
        list(command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,
        start_new_session=True,
        env=env,
        pass_fds=fds,
    )
    children.add(proc)
    return proc


def _end(*procs: subprocess.Popen) -> None:
    """EOF on every child's stdin first, so they wind down together, then
    every child still running 5 s later is killed, and each is reaped.
    Safe to call more than once."""
    for proc in procs:
        with contextlib.suppress(OSError):
            proc.stdin.close()
    deadline = time.monotonic() + 5.0
    for proc in procs:
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        children.discard(proc)
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

    def __init__(self, command, timeout: float = DEFAULT_TIMEOUT, process=None, slab=None):
        """Start the child with a slab of its own, or take `process`, one
        already started from command with `slab`, and exchange hellos with
        it. Tiles go through the slab if the worker acks it."""
        self.command = list(command)
        self.timeout = float(timeout)
        self.poisoned = None  # why the child was killed, once it has been
        self._channel = np.empty(0, dtype=_WIRE_FLOAT)  # see _write_tile
        self._own_slab = None
        if process is None:
            slab = self._own_slab = _Slab()
            try:
                process = _spawn(self.command, slab)
            except BaseException:
                slab.close()
                raise
        self._proc = process
        self._slab = None
        if self._ask(MSG_HELLO, (), MSG_HELLO, bytes) == _SLAB_ACK:
            self._slab = slab

    def _poison(self, exc: BaseException) -> None:
        self.poisoned = f"{type(exc).__name__}: {exc}"
        self._proc.kill()
        self.close()

    def _check_alive(self) -> None:
        if self.poisoned is not None:
            raise WorkerExitError(f"worker was stopped after a failure ({self.poisoned})")

    def _ask(self, msg_type: int, parts, reply_type: int, unpack):
        """Send one request, read its reply and return unpack(payload);
        see the class docstring for what a failure does to the client."""
        self._check_alive()
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
        """Returns the prediction, which must match the tile shape bit for
        bit in layout. It is a writable float32 array whose data starts on
        an ALIGN-byte boundary. The tile may be any 4-D float32 view. To a
        worker that acked the slab, it is copied once, into a leased slot,
        and the prediction is that slot's array; else it is sent without a
        whole-tile copy."""
        if self._slab is not None:
            tile = latent_view(tile, "tile")
            self._check_alive()
            offset, slot = self._slab.lease(tile.shape)
            np.copyto(slot, tile)
            prefix = _request_prefix(step, t, sigma, rect, conditioning, tile.shape, offset)
            try:
                return self._ask(
                    MSG_SLAB_DENOISE_REQUEST, (prefix,), MSG_DENOISE_RESPONSE,
                    lambda payload: unpack_denoise_response(payload, slot),
                )
            except BaseException as exc:
                # _ask has reaped a poisoned worker by now. The traceback's
                # frames, which a caller may keep in a reference cycle (a
                # pool's Future stores the exception), would hold the slot
                # until the garbage collector ran: the slot is freed here.
                traceback.clear_frames(exc.__traceback__)
                del slot
                raise
        prefix, tile = _denoise_request_parts(step, t, sigma, rect, conditioning, tile)
        cells = math.prod(tile.shape[1:])
        if self._channel.size < cells:
            self._channel = np.empty(cells, dtype=_WIRE_FLOAT)

        def unpack(payload):
            pred = unpack_denoise_response(payload)
            if pred.shape != tile.shape:
                raise ShapeError(f"worker returned shape {pred.shape} for a {tile.shape} tile")
            return pred

        return self._ask(MSG_DENOISE_REQUEST, (prefix, tile), MSG_DENOISE_RESPONSE, unpack)

    def embed(self, tensor) -> np.ndarray:
        parts = flt_parts(tensor)
        return self._ask(MSG_EMBED_REQUEST, parts, MSG_EMBED_RESPONSE, unpack_embedding)

    def close(self) -> None:
        """End the child: EOF on its stdin, and a kill if it has not exited
        within 5 s; then close the slab it started with, if any. Safe to
        call more than once."""
        _end(self._proc)
        if self._own_slab is not None:
            self._own_slab.close()

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
    start that fails kills every child it started. The children share one
    slab, so predictions of all of them draw on one free list of slots."""

    def __init__(self, command, size: int = 1, timeout: float = DEFAULT_TIMEOUT):
        if size < 1:
            raise ProtocolError(f"pool size must be >= 1, got {size}")
        self._slab = _Slab()
        procs, self._clients = [], []
        try:
            for _ in range(size):
                procs.append(_spawn(command, self._slab))
            for proc in procs:
                self._clients.append(WorkerClient(command, timeout, proc, self._slab))
        except BaseException:
            for proc in procs:
                proc.kill()
            _end(*procs)
            self._slab.close()
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
        """End every child: EOF to all, a kill 5 s later for any still
        running; then close the slab."""
        _end(*(c._proc for c in self._clients))
        self._slab.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(denoise=None, embed=None, stdin=None, stdout=None) -> None:
    """Run a worker loop on raw byte streams (defaults: this process's
    stdin/stdout). denoise(step, t, sigma, rect, conditioning, tile) returns
    the flow prediction; embed(tensor) returns a 1-D vector. Returns on EOF.

    Handler exceptions are reported to the peer as error frames; the loop
    keeps serving. A worker that inherited a slab (_spawn) acks it in its
    hello reply and takes type 6 requests: the tile is its slot, and the
    prediction goes back into it (see _write_back).
    """
    inp = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer
    slab = _SlabMap.inherited()

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
                _write_frame(out, MSG_HELLO, b"" if slab is None else _SLAB_ACK)
            elif msg_type == MSG_DENOISE_REQUEST or (
                msg_type == MSG_SLAB_DENOISE_REQUEST and slab is not None
            ):
                if denoise is None:
                    raise ProtocolError("worker has no denoise handler")
                shared = slab if msg_type == MSG_SLAB_DENOISE_REQUEST else None
                step, t, sigma, rect, cond, tile = unpack_denoise_request(payload, shared)
                parts = _denoise_response_parts(denoise(step, t, sigma, rect, cond, tile))
                if shared is not None:
                    _write_back(tile, *parts)
                    parts = parts[:1]
                _write_frame(out, MSG_DENOISE_RESPONSE, *parts)
            elif msg_type == MSG_EMBED_REQUEST:
                if embed is None:
                    raise ProtocolError("worker has no embed handler")
                tensor = flt_from_bytes(payload, "embed request")
                _write_frame(out, MSG_EMBED_RESPONSE, pack_embedding(embed(tensor)))
            else:
                raise ProtocolError(f"unsupported message type {msg_type}")
        except Exception as exc:  # keep serving after handler failures
            _write_frame(out, MSG_ERROR, str(exc).encode("utf-8"))
