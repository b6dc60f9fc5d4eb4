"""Minimal PGM (portable graymap) reading and writing.

Reads binary P5 and ASCII P2 at 8 or 16 bits; writes P5. Pixel values are
exposed as floats in [0, 1] (value / maxval) and quantized back on write.
"""

import re

import numpy as np

__all__ = ["read_pgm", "write_pgm"]


def _tokens(data):
    """Yield (token, end offset) per whitespace-separated header token, skipping # comments."""
    for m in re.finditer(rb"#[^\n]*|(\S+)", data):
        if m[1] is not None:
            yield m[1], m.end()
    raise ValueError("truncated PGM header")


def read_pgm(path):
    """Read a PGM file; returns (pixels in [0,1] as float array, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    magic, _ = next(toks)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    width, _ = next(toks)
    height, _ = next(toks)
    (maxval, end) = next(toks)
    width, height, maxval = int(width), int(height), int(maxval)
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM size {width} x {height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"invalid maxval {maxval}")
    count = width * height
    if magic == b"P2":
        toks = data[end:].split()[:count]
        if len(toks) != count:
            raise ValueError("truncated P2 pixel data")
        # Python ints first: a sign or a value past uint32 is named, not an OverflowError
        bad = next((t for t in toks if not 0 <= int(t) <= maxval), None)
        if bad is not None:
            raise ValueError(f"pixel value {bad.decode()} outside [0, maxval = {maxval}]")
        vals = np.array(toks, dtype=np.uint32)
    else:
        # single whitespace byte separates header from raster
        raw = data[end + 1 :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(raw) < need:
            raise ValueError("truncated P5 pixel data")
        vals = np.frombuffer(raw[:need], dtype=dtype).astype(np.uint32)
        if vals.max() > maxval:
            raise ValueError(f"pixel value {vals.max()} outside [0, maxval = {maxval}]")
    return vals.reshape(height, width).astype(float) / maxval, maxval


def write_pgm(path, pixels, maxval=255):
    """Write finite 2-D float pixels in [0, 1] (clipped) as a binary P5 file at the given depth."""
    if (isinstance(maxval, bool) or not isinstance(maxval, (int, np.integer))
            or not 0 < maxval < 65536):
        raise ValueError(f"maxval must be an int in [1, 65535], got {maxval!r}")
    arr = np.asarray(pixels, dtype=float)
    if arr.ndim != 2 or arr.size == 0 or not np.isfinite(arr).all():
        raise ValueError(f"PGM pixels must be a non-empty finite 2-D array, got shape {arr.shape}")
    quant = np.rint(arr.clip(0.0, 1.0) * maxval).astype(">u2" if maxval > 255 else "u1")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.tobytes())
