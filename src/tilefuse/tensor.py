"""Dense 4-D latent tensors and the spatial primitives built on them.

A latent tensor is a C-contiguous float32 ndarray of shape
(channels, frames, rows, cols), W fastest-varying. All public operations
return new arrays, except that the FLT1 codec (flt_parts, flt_from_bytes)
may share memory with its argument; nothing here mutates its inputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, BoundsError, FileFormatError, ShapeError

FLT_MAGIC = b"FLT1"
FLT_VERSION = 1
FLT_HEAD_LEN = 24  # magic + version + 4 dims


@dataclass(frozen=True)
class Rect:
    """Spatial window in latent cells: top-left corner plus extent."""

    row: int
    col: int
    height: int
    width: int

    def __post_init__(self):
        if self.row < 0 or self.col < 0:
            raise BoundsError(f"negative corner ({self.row}, {self.col})")
        if self.height < 1 or self.width < 1:
            raise ArgumentError(f"empty window {self.height}x{self.width}")

    def validate_within(self, canvas_h: int, canvas_w: int) -> None:
        if self.row + self.height > canvas_h:
            raise BoundsError(
                f"rows [{self.row}, {self.row + self.height}) exceed canvas "
                f"height {canvas_h}"
            )
        if self.col + self.width > canvas_w:
            raise BoundsError(
                f"cols [{self.col}, {self.col + self.width}) exceed canvas "
                f"width {canvas_w}"
            )

    @property
    def row_slice(self) -> slice:
        return slice(self.row, self.row + self.height)

    @property
    def col_slice(self) -> slice:
        return slice(self.col, self.col + self.width)


def as_latent(x, name: str = "tensor") -> np.ndarray:
    """Coerce to the canonical layout: 4-D, float32, C-contiguous."""
    return np.ascontiguousarray(latent_view(x, name))


def latent_view(x, name: str = "tensor") -> np.ndarray:
    """Coerce to 4-D float32, keeping x's strides: a float32 array, read-only
    or strided, comes back as itself, uncopied."""
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ShapeError(f"{name} must be 4-D (C,T,H,W), got {arr.ndim}-D")
    return arr.astype(np.float32, copy=False)


def _count_nonfinite(x: np.ndarray) -> int:
    """The number of inf and NaN cells of x. The test is a sum, which needs
    no temporary the size of x: any inf or NaN makes it non-finite. Only
    then are the bad cells counted, and there may be none: a sum of large
    finite values can overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(x)
    if np.isfinite(total):
        return 0
    return x.size - int(np.count_nonzero(np.isfinite(x)))


def ensure_finite(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """x, if it holds no inf or NaN; see _count_nonfinite."""
    bad = _count_nonfinite(x)
    if bad:
        raise ShapeError(f"{name} contains {bad} non-finite values")
    return x


def crop(canvas: np.ndarray, r: Rect) -> np.ndarray:
    """Extract the spatial window r from a (C,T,H,W) canvas."""
    canvas = as_latent(canvas, "canvas")
    r.validate_within(canvas.shape[2], canvas.shape[3])
    return np.ascontiguousarray(canvas[:, :, r.row_slice, r.col_slice])


def _axis_indices(src_len: int, out_len: int):
    """Endpoint-aligned sample positions for one axis.

    Returns (lo, hi, frac): integer neighbours and the interpolation weight
    of hi. out_len == 1 degenerates to source index 0.
    """
    if out_len == 1 or src_len == 1:
        lo = np.zeros(out_len, dtype=np.intp)
        return lo, lo.copy(), np.zeros(out_len)
    pos = np.arange(out_len) * ((src_len - 1) / (out_len - 1))
    lo = np.floor(pos).astype(np.intp)
    np.clip(lo, 0, src_len - 2, out=lo)
    frac = pos - lo
    return lo, lo + 1, frac


def _lerp(src, axis, lo, hi, w_lo, w_hi, near=None, far=None):
    """w_lo * src[lo] + w_hi * src[hi] along axis, in src's dtype and in
    that order of operations: one axis pass of trilinear_resize. near and
    far, if given, receive the two terms; the result is near."""
    near = np.take(src, lo, axis=axis, out=near, mode="clip")
    near *= w_lo
    far = np.take(src, hi, axis=axis, out=far, mode="clip")
    far *= w_hi
    near += far
    return near


def trilinear_resize(src: np.ndarray, out_t: int, out_h: int, out_w: int) -> np.ndarray:
    """Endpoint-aligned trilinear interpolation over (T,H,W), channel-wise.

    Corners map to corners; resizing to the source dims returns the source
    bit-exactly. Interpolation runs in float64 one output frame at a time,
    so its temporaries are a few frames, not a channel, and the result is
    cast back to float32.
    """
    src = as_latent(src, "source")
    if out_t < 1 or out_h < 1 or out_w < 1:
        raise ArgumentError(f"output dims must be >= 1, got ({out_t},{out_h},{out_w})")
    c, t, h, w = src.shape
    if (t, h, w) == (out_t, out_h, out_w):
        return src.copy()

    t_lo, t_hi, t_frac = _axis_indices(t, out_t)
    passes = []  # the (H, W) passes of one frame
    for axis, (n_src, n_out) in enumerate(((h, out_h), (w, out_w))):
        if n_src == n_out:
            continue
        lo, hi, frac = _axis_indices(n_src, n_out)
        shape = [1, 1]
        shape[axis] = n_out
        frac = frac.reshape(shape)
        passes.append((axis, lo, hi, 1.0 - frac, frac))

    out = np.empty((c, out_t, out_h, out_w), dtype=np.float32)
    for ch, k in np.ndindex(c, out_t):
        # each pass is (1 - frac) * vol[lo] + frac * vol[hi]
        if t == out_t:
            frame = src[ch, k].astype(np.float64)
        else:
            frame = src[ch, t_lo[k]].astype(np.float64)
            frame *= 1.0 - t_frac[k]
            far = src[ch, t_hi[k]].astype(np.float64)
            far *= t_frac[k]
            frame += far
        for axis, lo, hi, w_lo, w_hi in passes:
            frame = _lerp(frame, axis, lo, hi, w_lo, w_hi)
        out[ch, k] = frame
    return out


temporaries = set()  # atomic_write's temporary files, while they may exist


def atomic_write(path, *chunks) -> None:
    """Write the bytes-like chunks, in order and uncopied, to path: first to
    a temporary sibling, which is then renamed over path. A failure at any
    point removes the temporary file and leaves path as it was; an OSError
    is raised again naming path alone."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    temporaries.add(tmp)
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    finally:
        temporaries.discard(tmp)


def write_flt(path, tensor: np.ndarray) -> None:
    """Write a latent tensor in the FLT1 container, by atomic_write."""
    atomic_write(path, *flt_parts(tensor))


def flt_parts(tensor: np.ndarray) -> tuple[bytes, memoryview]:
    """The FLT1 container as its header bytes and a byte view of the
    little-endian data, so a writer can send the data without copying it.
    The view shares memory with the tensor when the tensor is already
    C-contiguous little-endian float32."""
    tensor = as_latent(tensor, "tensor")
    data = tensor.astype("<f4", copy=False).reshape(-1).view(np.uint8)
    return flt_head(tensor.shape), memoryview(data)


def flt_head(shape) -> bytes:
    """The FLT1 header of a tensor of this 4-D shape."""
    return FLT_MAGIC + struct.pack("<5I", FLT_VERSION, *shape)


def flt_shape(blob, name: str = "payload") -> tuple[int, int, int, int]:
    """The shape that the FLT1 header at the start of blob declares. A
    truncated or malformed header, or a zero-sized shape, raises
    FileFormatError."""
    head = FLT_HEAD_LEN
    if len(blob) < head:
        raise FileFormatError(f"{name}: truncated FLT1 header ({len(blob)} bytes)")
    if bytes(blob[:4]) != FLT_MAGIC:
        raise FileFormatError(f"{name}: bad magic {bytes(blob[:4])!r}")
    version, c, t, h, w = struct.unpack("<5I", blob[4:head])
    if version != FLT_VERSION:
        raise FileFormatError(f"{name}: unsupported FLT version {version}")
    if c * t * h * w == 0:
        raise FileFormatError(f"{name}: zero-sized tensor {c}x{t}x{h}x{w}")
    return c, t, h, w


def flt_finite(arr: np.ndarray, name: str = "payload") -> np.ndarray:
    """arr, the data of an FLT1 container, if it holds no inf or NaN; else
    FileFormatError."""
    if _count_nonfinite(arr):
        raise FileFormatError(f"{name} contains non-finite values")
    return arr


def flt_from_bytes(blob, name: str = "payload") -> np.ndarray:
    """Decode an FLT1 container from any bytes-like object.

    A writable buffer whose data is aligned little-endian float32 is used in
    place: the result shares its memory. Anything else, immutable bytes
    included, is copied, so the result is always a writable array. A
    malformed container or non-finite data raises FileFormatError.
    """
    shape = flt_shape(blob, name)
    count = math.prod(shape)
    if len(blob) != FLT_HEAD_LEN + 4 * count:
        raise FileFormatError(
            f"{name}: payload holds {len(blob) - FLT_HEAD_LEN} bytes, header promises "
            f"{4 * count}"
        )
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=FLT_HEAD_LEN).reshape(shape)
    if not (arr.flags.writeable and arr.flags.aligned and arr.dtype == np.float32):
        arr = arr.astype(np.float32)
    return flt_finite(arr, name)


def read_flt(path) -> np.ndarray:
    """Read an FLT1 file into one writable buffer that the result shares,
    sized from the file, so the tensor is not copied once read."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
        blob += fh.read()  # what the size did not cover: a pipe, a file that grew
    return flt_from_bytes(blob, name=os.fspath(path))
