"""Binary netpbm I/O (P5 grayscale, P6 color); read_frame also reads FLT1.

Headers are whitespace-tokenized with '#' comments. 8-bit and 16-bit
(big-endian) sample depths are read; writers emit 8-bit.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FileFormatError
from .tensor import FLT_MAGIC, atomic_write, read_flt


def _tokens(blob: bytes, path: str):
    """Yield header tokens, skipping comments; stop after maxval (3 tokens
    past the magic), reporting the offset where raster data begins."""
    i = 0
    n = len(blob)
    out = []
    while len(out) < 4:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i : i + 1] == b"#":
            while i < n and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FileFormatError(f"{path}: truncated header")
        out.append(blob[start:i])
    if i >= n:
        raise FileFormatError(f"{path}: missing raster data")
    return out, i + 1  # single whitespace byte separates maxval from raster


def read_pnm(path):
    """Read a P5/P6 file. Returns (array, maxval): (H, W) for P5,
    (H, W, 3) for P6; dtype uint8 or uint16 by sample depth."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    (magic, w_tok, h_tok, max_tok), offset = _tokens(blob, path)
    if magic not in (b"P5", b"P6"):
        raise FileFormatError(f"{path}: unsupported magic {magic!r}")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as exc:
        raise FileFormatError(f"{path}: non-numeric header field") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FileFormatError(f"{path}: bad dimensions {width}x{height} maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    raster = blob[offset:]
    if len(raster) < count * dtype.itemsize:
        raise FileFormatError(
            f"{path}: raster holds {len(raster)} bytes, expected {count * dtype.itemsize}"
        )
    data = np.frombuffer(raster, dtype=dtype, count=count)
    if channels == 1:
        img = data.reshape(height, width)
    else:
        img = data.reshape(height, width, 3)
    if maxval > 255:
        return img.astype(np.uint16), maxval
    return img.astype(np.uint8), maxval


def read_frame(path):
    """One image from a file, its format picked by the magic bytes: a P5/P6
    file as read_pnm's array, a (1|3, 1, H, W) FLT1 tensor as an (H, W) or
    (H, W, 3) float32 array."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(FLT_MAGIC))
    if magic[:2] in (b"P5", b"P6"):
        return read_pnm(path)[0]
    if magic != FLT_MAGIC:
        raise FileFormatError(f"{path}: expected P5/P6 netpbm or FLT1, got {magic!r}")
    tensor = read_flt(path)
    c, t, _, _ = tensor.shape
    if t != 1 or c not in (1, 3):
        raise FileFormatError(f"{path}: frame tensors must be (1|3, 1, H, W), got {tensor.shape}")
    return tensor[0, 0] if c == 1 else np.moveaxis(tensor[:, 0], 0, -1)


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise FileFormatError(f"grayscale image must be 2-D, got {img.ndim}-D")
    _write_pnm(path, b"P5", img)


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise FileFormatError(f"color image must be (H, W, 3), got {img.shape}")
    _write_pnm(path, b"P6", img)


def _write_pnm(path, magic: bytes, img: np.ndarray) -> None:
    """An 8-bit netpbm file, by atomic_write; other dtypes are rounded and
    clipped to [0, 255]."""
    arr = np.clip(np.rint(img), 0, 255).astype(np.uint8) if img.dtype != np.uint8 else img
    head = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    atomic_write(path, head, arr.tobytes())
