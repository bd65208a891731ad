"""Pre-trained word embeddings: loading, caching, concatenation, pruning.

A set is a word list and a matrix whose row i is the vector of word i.
Multiple embedding files are combined by intersecting their
vocabularies and concatenating the per-word vectors, so the combined
dimension is the sum of the source dimensions. A pruned set restricted
to the words of the task corpora is what actually feeds the network.
Given a cache directory, each file is parsed once and read back from a
binary cache (``<name>.<hash>.emb``) while its content is unchanged, and
a pruned set from ``<name>.<hash>.pruned`` while the words reached are too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from seqtag.corpus import Corpus, read_text
from seqtag.exceptions import DataError
from seqtag.files import (
    cache_path,
    file_fingerprint,
    read_cache,
    through_cache,
    write_atomic,
    write_cache,
)

_CACHE_MAGIC = b"SQTE"
_CACHE_VERSION = 1


class EmbeddingFormatError(DataError):
    pass


@dataclass
class EmbeddingSet:
    words: list[str]
    matrix: np.ndarray  # (len(words), dim) float64; row i is the vector of words[i]

    def __len__(self) -> int:
        return len(self.words)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def load_embedding_file(path: str | Path) -> EmbeddingSet:
    """Read one text embedding file: a word plus floats per line.

    A leading "count dim" header line (two integer fields) is detected
    and skipped; its count must equal the number of vector lines and its
    dim their dimension. The dimension must be constant within the file,
    and every component finite. A repeated word keeps the position of its
    first line and the vector of its last.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    words: list[str] = []
    flat = array("d")  # the components of every vector line, in file order
    linenos = array("L")
    header: list[int] | None = None
    dim: int | None = None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2 and _all_ints(parts):
                    header = [int(p) for p in parts]
                    continue
                values = parts[1:]
                if not values:
                    raise EmbeddingFormatError(f"{path}, line {lineno}: no vector components")
                try:
                    flat.extend(map(float, values))
                except ValueError as err:
                    raise EmbeddingFormatError(f"{path}, line {lineno}: bad float") from err
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise EmbeddingFormatError(
                        f"{path}, line {lineno}: dimension {len(values)} != {dim}"
                    )
                words.append(parts[0])
                linenos.append(lineno)
    except UnicodeDecodeError:
        read_text(path)  # raises the DataError that names the bad byte's file offset
        raise
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from err
    if dim is None:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    if header is not None and header != [len(words), dim]:
        raise EmbeddingFormatError(
            f"{path}: header declares {header[0]} vectors of dimension {header[1]}, "
            f"the file holds {len(words)} of dimension {dim}"
        )
    finite = np.isfinite(flat)
    if not finite.all():
        row = int(np.argmin(finite)) // dim
        raise EmbeddingFormatError(f"{path}, line {linenos[row]}: non-finite value")
    matrix = np.frombuffer(flat, dtype=np.float64).reshape(len(words), dim)
    last = {word: row for row, word in enumerate(words)}  # keys in order of first line
    if len(last) < len(words):
        words, matrix = list(last), matrix[list(last.values())]
    return EmbeddingSet(words, matrix)


def _all_ints(parts: list[str]) -> bool:
    try:
        [int(p) for p in parts]
        return True
    except ValueError:
        return False


# -- binary cache -----------------------------------------------------------------
#
# Framed as ``seqtag.files`` describes, with magic "SQTE", a JSON header
# (source size and sha256, ``dim``, and the words in the order of the
# set), then the float64 matrix, one row per word, up to the end of the
# file.


def write_embedding_cache(path: str | Path, emb: EmbeddingSet, source_meta: dict) -> None:
    header = {"source": source_meta, "dim": emb.dim, "words": emb.words}
    write_cache(Path(path), _CACHE_MAGIC, _CACHE_VERSION, header, emb.matrix)


def read_embedding_cache(path: str | Path) -> tuple[EmbeddingSet, dict]:
    """The cached set and its source metadata; a damaged file raises DataError."""
    header, values = read_cache(Path(path), _CACHE_MAGIC, _CACHE_VERSION, "embedding cache")
    try:
        words = header["words"]
        return EmbeddingSet(words, values.reshape(len(words), header["dim"])), header["source"]
    except (ValueError, LookupError, TypeError) as err:
        raise DataError(f"corrupt embedding cache {path}: {err!r}") from err


def load_embedding_file_cached(
    path: str | Path, cache_dir: str | Path | None = None, fingerprint: dict | None = None
) -> EmbeddingSet:
    """``load_embedding_file`` through a binary cache in ``cache_dir``.

    The cache is named after the file and a hash of its absolute path,
    and is used only while the file's size and sha256 (``fingerprint``, if
    known) match the ones it recorded; a stale or damaged cache is parsed
    again and rewritten.
    """
    path = Path(path)
    if cache_dir is None or not path.exists():
        return load_embedding_file(path)
    return through_cache(
        cache_path(cache_dir, path, ".emb"),
        fingerprint or file_fingerprint(path),
        read_embedding_cache,
        lambda: load_embedding_file(path),
        write_embedding_cache,
    )


def build_embedding_set(
    files: Iterable[str | Path],
    cache_dir: str | Path | None = None,
    fingerprints: list[dict] | None = None,
) -> EmbeddingSet:
    """Concatenate embedding files over the intersection of their words."""
    paths = [Path(p) for p in files]
    if not paths:
        raise DataError("no embedding files given")
    known = fingerprints or [None] * len(paths)
    sets = [load_embedding_file_cached(p, cache_dir, f) for p, f in zip(paths, known)]
    if len(sets) == 1:
        return sets[0]

    common = set(sets[0].words)
    for i, emb in enumerate(sets[1:], start=1):
        common.intersection_update(emb.words)
        if not common:
            raise DataError(
                f"empty intersection of embedding vocabularies between {paths[0]} and {paths[i]}"
            )
    words = sorted(common)
    blocks = []
    for emb in sets:
        row = {word: i for i, word in enumerate(emb.words)}
        blocks.append(emb.matrix[[row[word] for word in words]])
    return EmbeddingSet(words, np.hstack(blocks))


def reachable_words(corpora: Iterable[Corpus]) -> set[str]:
    """Every corpus surface and its lowercase form."""
    surfaces = set().union(*(corpus.surfaces() for corpus in corpora))
    return surfaces.union(map(str.lower, surfaces))


def load_pruned_cached(
    files: list, corpora: list[Corpus], cache_dir: str | Path | None, build: Callable
) -> EmbeddingSet:
    """``build(fingerprints)``, the pruned set of ``files`` for ``corpora``, through a
    derived cache named after the files' absolute paths and keyed by their fingerprints
    and the sha256 of the sorted reachable words; ``build(None)`` without a cache."""
    paths = [Path(p) for p in files]
    if not paths or cache_dir is None or not all(map(Path.exists, paths)):
        return build(None)  # a missing file is reported by the build
    reachable = hashlib.sha256(json.dumps(sorted(reachable_words(corpora))).encode("utf-8"))
    meta = {"files": [file_fingerprint(p) for p in paths], "reachable": reachable.hexdigest()}
    cache = cache_path(cache_dir, paths[0], ".pruned", "\0".join(map(os.path.abspath, paths)))
    return through_cache(
        cache, meta, read_embedding_cache, lambda: build(meta["files"]), write_embedding_cache
    )


def prune_embeddings(emb: EmbeddingSet, corpora: Iterable[Corpus]) -> EmbeddingSet:
    """Keep only words that can be reached from any corpus token.

    Lookup normalization applies: a token reaches its exact-match entry
    and its lowercase entry, mirroring how the network resolves words.
    """
    keep = list(map(reachable_words(corpora).__contains__, emb.words))
    kept = list(itertools.compress(range(len(keep)), keep))
    # indexing with a list copies, so the kept rows do not hold on to a whole file's matrix
    return EmbeddingSet(list(itertools.compress(emb.words, keep)), emb.matrix[kept])


def save_embedding_file(emb: EmbeddingSet, path: str | Path) -> None:
    """Persist an (optimized) embedding set in the plain text format."""
    lines = (
        word + "".join(f" {float(v)!r}" for v in vec) + "\n"
        for word, vec in zip(emb.words, emb.matrix)
    )
    write_atomic(path, "".join(lines).encode("utf-8"))
