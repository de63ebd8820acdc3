"""Binary PPM (P6, 8-bit) image reading and writing.

The dataset stores every rendered scene as a P6 file so the corpus stays
dependency-free and diffable with standard tools.  Pixels cross this
boundary as float arrays of shape (H, W, 3) scaled to [0, 1]; quantization
to 8 bits happens only here.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DataError


def write_ppm(path, img: np.ndarray) -> None:
    """Write an (H, W, 3) float array in [0, 1] as a P6 file with maxval 255."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {img.shape}")
    h, w = img.shape[:2]
    raw = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(raw.tobytes())


# The header: "P6", then width, height and maxval, each after whitespace and
# comments and ended by one whitespace byte.  A comment runs from '#' to the
# end of its line and may break a field, as the Netpbm format allows.  The
# fields are matched in turn, so a field that is absent marks where the
# header was cut short.
_FIELD = rb"(?:\s|#[^\n]*\n)*([^\s#](?:[^\s#]|#[^\n]*\n)*)\s"
_HEADER = re.compile(rb"P6(?:%s(?:%s(?:%s)?)?)?" % (_FIELD, _FIELD, _FIELD))
_COMMENT = re.compile(rb"#[^\n]*\n")


def read_ppm(path) -> np.ndarray:
    """Read a P6 file, with one read, into an (H, W, 3) float32 array scaled to [0, 1]."""
    with open(path, "rb", buffering=0) as f:
        data = f.read()
    header = _HEADER.match(data)
    if header is None:
        raise DataError(f"{path}: not a binary ppm (magic {data[:2]!r})")
    fields = []
    for field in header.groups():  # width, height, maxval
        if field is None:
            raise DataError("truncated ppm header")
        try:
            fields.append(int(_COMMENT.sub(b"", field)))
        except ValueError as exc:
            raise DataError(f"{path}: malformed ppm header") from exc
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}, expected 255")
    if w <= 0 or h <= 0:
        raise DataError(f"{path}: bad dimensions {w}x{h}")
    if len(data) - header.end() < w * h * 3:
        raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(data, np.uint8, w * h * 3, header.end()).astype(np.float32)
    arr /= 255.0
    return arr.reshape(h, w, 3)
