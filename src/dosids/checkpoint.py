"""Self-describing binary container for named parameter arrays.

Layout (all integers little-endian):

    magic   8 bytes  b"DOSIDSCK"
    version u32      currently 1
    count   u32      number of arrays
    entry*  count times:
        name_len u16, name utf-8 bytes
        ndim     u8,  dims u32 each
        data     float32, C order

Arrays are written sorted by name and stored as 32-bit floats, so equal
parameter sets always produce byte-identical files and digests.
"""

import hashlib
import os
import struct

import numpy as np

MAGIC = b"DOSIDSCK"
VERSION = 1


def save_arrays(path, arrays: dict[str, np.ndarray]):
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(arrays))
    for name in sorted(arrays):
        data = np.asarray(arrays[name], dtype="<f4")
        if data.ndim:
            data = np.ascontiguousarray(data)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", data.ndim)
        for dim in data.shape:
            blob += struct.pack("<I", dim)
        blob += data.tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    offset = 8

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint ({len(blob)} bytes, "
                             f"needs at least {offset + n})")
        offset += n
        return blob[offset - n:offset]

    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        data = np.frombuffer(take(4 * int(np.prod(shape))), dtype="<f4")
        arrays[name] = data.reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after "
                         f"the last array")
    return arrays


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
