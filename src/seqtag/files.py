"""Atomic writes, and the naming and framing every binary file shares.

A binary file (the corpus and embedding caches, and model checkpoints)
is a 4-byte magic, a little-endian u32 version, a u32 CRC-32 of the
rest of the file, a u64 byte length and that many bytes of UTF-8 JSON
header, then float64 values up to the end. This module alone writes,
reads and checks that layout, and encodes and decodes the header. The
CRC catches any damaged run of up to 32 bits. A cache is named after its
source file and a hash of the source's absolute path, and it records the
source's size and sha256, so a changed source invalidates it (the pruned
set's cache may reuse a sha256 while a stat record holds). Every file is
written through a temporary file and ``os.replace``: a reader never sees
a half-written file, and a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from seqtag.exceptions import DataError


def check_target(path: str | Path) -> None:
    """Raise an OSError naming ``path`` if it is a directory, before any
    write (``os.replace`` would fail at the end, with EBUSY for ".")."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path next to ``path``, in a directory made if missing,
    moved onto ``path`` when the block ends without error and removed in
    any case. An OSError on the way names ``path``, not the temporary."""
    check_target(path)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        try:
            tmp.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # mkdir's report of a file where a directory should be
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR)) from None
        try:
            yield tmp
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from err


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write a whole file through a temporary file and ``os.replace``."""
    with replacing(path) as tmp:
        tmp.write_bytes(data)


def cache_path(cache_dir: str | Path, source: Path, suffix: str, key: str | None = None) -> Path:
    """``<name>.<hash><suffix>`` in ``cache_dir``. The hash is the first 12
    hex digits of the sha256 of the source's absolute path, followed by a
    NUL byte and the UTF-8 ``key`` when one is given, so same-named files
    in different directories keep separate caches."""
    where = os.fsencode(os.path.abspath(source))
    if key is not None:
        where += b"\0" + key.encode("utf-8")
    return Path(cache_dir) / f"{source.name}.{hashlib.sha256(where).hexdigest()[:12]}{suffix}"


def file_fingerprint(path: Path) -> dict:
    """The size and sha256 of a file, hashed block by block as it is read
    (``hashlib.file_digest`` would need Python 3.11)."""
    digest, size = hashlib.sha256(), 0
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 18), b""):
                digest.update(block)
                size += len(block)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from err
    return {"size": size, "sha256": digest.hexdigest()}


def through_cache(cache: Path, meta: dict, read: Callable, parse: Callable, write: Callable):
    """What ``read(cache)`` holds when it was made from a source that
    matched ``meta``; otherwise (no cache, a stale or a damaged one) what
    ``parse()`` returns, written to the cache as ``write(cache, value,
    meta)``. A parse that raises writes nothing."""
    if cache.exists():
        try:
            value, cached_meta = read(cache)
            if cached_meta == meta:
                return value
        except DataError:
            pass
    value = parse()
    write(cache, value, meta)
    return value


def write_cache(path: Path, magic: bytes, version: int, header, values=()) -> None:
    """Write a binary file of the JSON ``header`` and the float64 ``values``
    (none by default). The CRC is known before the first byte is written."""
    blob = json.dumps(header).encode("utf-8")
    body = (struct.pack("<Q", len(blob)), blob, np.ascontiguousarray(values, dtype="<f8"))
    crc = 0
    for piece in body:
        crc = zlib.crc32(piece, crc)
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        for piece in (magic + struct.pack("<II", version, crc), *body):
            fh.write(piece)


def read_cache(path: Path, magic: bytes, version: int, what: str) -> tuple[object, np.ndarray]:
    """The JSON header and the float64 values of a binary file, the kind
    of file that ``what`` names in messages. A wrong magic or version, a
    failing CRC or a header that is not UTF-8 JSON raises DataError."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic) + 8)
        if head[: len(magic)] != magic:
            raise DataError(f"not a {what} file: {path}")
        if len(head) < len(magic) + 8:
            raise DataError(f"{what} {path} is truncated")
        found, crc = struct.unpack("<II", head[len(magic) :])
        if found != version:
            raise DataError(f"unsupported {what} version {found}")
        return read_body(fh, path, what, crc)


def read_body(fh: IO[bytes], path: Path, what: str, crc: int | None) -> tuple[object, np.ndarray]:
    """The JSON header and the float64 values from the position of ``fh``
    to the end of the file, checked against ``crc`` unless it is None. No
    read goes past the end of the file, whatever a damaged length says."""
    size = fh.read(8)
    length = int.from_bytes(size, "little")
    left = os.fstat(fh.fileno()).st_size - fh.tell() - length
    if len(size) < 8 or left < 0:
        raise DataError(f"{what} {path} is truncated")
    blob = fh.read(length)
    if left % 8:
        raise DataError(f"{what} {path} ends in a partial float")
    values = np.fromfile(fh, dtype="<f8", count=left // 8)
    if values.nbytes != left:
        raise DataError(f"{what} {path} is truncated")
    if crc is not None and zlib.crc32(values, zlib.crc32(blob, zlib.crc32(size))) != crc:
        raise DataError(f"{what} {path} fails its checksum")
    try:
        return json.loads(blob.decode("utf-8")), values
    except ValueError as err:  # not UTF-8 or not JSON
        raise DataError(f"corrupt {what} manifest in {path}: {err}") from err
