"""Atomic writes, and the naming and framing every binary file shares.

A binary file (the corpus and embedding caches, and model checkpoints)
is a 4-byte magic, a little-endian u32 version, a u32 CRC-32 of the
rest of the file, then sections of a u64 byte length and that many
bytes, optionally followed by float64 values up to the end. The CRC
catches any damaged run of up to 32 bits. A cache is named after its
source file and a hash of the source's absolute path, and it records
the source's size and sha256, so a changed source invalidates it.
Every file is written through a temporary file and ``os.replace``: a
reader never sees a half-written file, and a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from seqtag.exceptions import DataError


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path next to ``path``, moved onto ``path`` when the
    block ends without error and removed in any case."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def section(payload) -> tuple:
    """The pieces of one section: its u64 byte length, then the payload."""
    return struct.pack("<Q", memoryview(payload).nbytes), payload


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


def write_cache(path: Path, magic: bytes, version: int, pieces: Iterable) -> None:
    """Write a binary file whose body is ``pieces``, bytes-like objects that
    are written and folded into the CRC one at a time, so the body is
    never held whole. The CRC goes into the prefix at the end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(magic + bytes(8))
            crc = 0
            for piece in pieces:
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
            fh.seek(len(magic))
            fh.write(struct.pack("<II", version, crc))


class CacheReader:
    """Reads the sections of one binary file in order, folding every byte
    into a CRC-32. No read goes past the end of the file, whatever a
    damaged length field says."""

    def __init__(self, fh: IO[bytes], left: int, name: str):
        self._fh, self.left, self._name = fh, left, name
        self.crc = 0

    def section(self) -> bytes:
        (size,) = struct.unpack("<Q", self._read(8))
        return self._read(size)

    def floats(self) -> np.ndarray:
        """The rest of the file as little-endian float64 values."""
        size = self.left
        if size % 8:
            raise DataError(f"{self._name} ends in a partial float")
        values = np.fromfile(self._fh, dtype="<f8", count=size // 8)
        if values.nbytes != size:
            raise DataError(f"{self._name} is truncated")
        self.left = 0
        self.crc = zlib.crc32(values, self.crc)
        return values

    def _read(self, size: int) -> bytes:
        if size > self.left:
            raise DataError(f"{self._name} is truncated")
        self.left -= size
        data = self._fh.read(size)
        self.crc = zlib.crc32(data, self.crc)
        return data


@contextlib.contextmanager
def read_cache(path: Path, magic: bytes, version: int, what: str) -> Iterator[CacheReader]:
    """A reader over the sections of a binary file, the kind of file that
    ``what`` names in messages. A wrong magic or version raises
    DataError, and so do, once the block has read every section, bytes
    left over or a failing CRC."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic) + 8)
        if head[: len(magic)] != magic:
            raise DataError(f"not a {what} file: {path}")
        if len(head) < len(magic) + 8:
            raise DataError(f"{what} {path} is truncated")
        found, crc = struct.unpack("<II", head[len(magic) :])
        if found != version:
            raise DataError(f"unsupported {what} version {found}")
        left = os.fstat(fh.fileno()).st_size - len(head)
        reader = CacheReader(fh, left, f"{what} {path}")
        yield reader
        if reader.left:
            raise DataError(f"{what} {path} has {reader.left} bytes past its sections")
        if reader.crc != crc:
            raise DataError(f"{what} {path} fails its checksum")
