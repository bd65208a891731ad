"""Pre-trained word embeddings: loading, concatenation, pruning.

Multiple embedding files are combined by intersecting their
vocabularies and concatenating the per-word vectors, so the combined
dimension is the sum of the source dimensions. A pruned set restricted
to the words of the task corpora is what actually feeds the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from seqtag.corpus import Corpus, read_text, write_atomic
from seqtag.exceptions import DataError


class EmbeddingFormatError(DataError):
    pass


@dataclass
class EmbeddingSet:
    dim: int
    vectors: dict[str, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def words(self) -> set[str]:
        return set(self.vectors.keys())


def load_embedding_file(path: str | Path) -> EmbeddingSet:
    """Read one text embedding file: a word plus floats per line.

    A leading "count dim" header line (two integer fields) is detected
    and skipped. The dimension must be constant within the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split()
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2 and _all_ints(parts):
                    continue  # header line
                word, values = parts[0], parts[1:]
                if not values:
                    raise EmbeddingFormatError(f"{path}, line {lineno}: no vector components")
                try:
                    vec = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError as err:
                    raise EmbeddingFormatError(f"{path}, line {lineno}: bad float") from err
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise EmbeddingFormatError(
                        f"{path}, line {lineno}: dimension {vec.size} != {dim}"
                    )
                vectors[word] = vec
    except UnicodeDecodeError:
        read_text(path)  # raises the DataError that names the bad byte's file offset
        raise
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from err
    if dim is None:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    return EmbeddingSet(dim=dim, vectors=vectors)


def _all_ints(parts: list[str]) -> bool:
    try:
        [int(p) for p in parts]
        return True
    except ValueError:
        return False


def build_embedding_set(files: Iterable[str | Path]) -> EmbeddingSet:
    """Concatenate embedding files over the intersection of their words."""
    paths = [Path(p) for p in files]
    if not paths:
        raise DataError("no embedding files given")
    sets = [load_embedding_file(p) for p in paths]
    if len(sets) == 1:
        return sets[0]

    common = set(sets[0].vectors.keys())
    for i, emb in enumerate(sets[1:], start=1):
        common &= emb.words
        if not common:
            raise DataError(
                f"empty intersection of embedding vocabularies between {paths[0]} and {paths[i]}"
            )
    dim = sum(emb.dim for emb in sets)
    vectors = {w: np.concatenate([emb.vectors[w] for emb in sets]) for w in sorted(common)}
    return EmbeddingSet(dim=dim, vectors=vectors)


def prune_embeddings(emb: EmbeddingSet, corpora: Iterable[Corpus]) -> EmbeddingSet:
    """Keep only words that can be reached from any corpus token.

    Lookup normalization applies: a token reaches its exact-match entry
    and its lowercase entry, mirroring how the network resolves words.
    """
    reachable: set[str] = set()
    for corpus in corpora:
        for surface in corpus.surfaces():
            reachable.add(surface)
            reachable.add(surface.lower())
    kept = {w: v for w, v in emb.vectors.items() if w in reachable}
    return EmbeddingSet(dim=emb.dim, vectors=kept)


def save_embedding_file(emb: EmbeddingSet, path: str | Path) -> None:
    """Persist an (optimized) embedding set in the plain text format."""
    lines = (
        word + "".join(f" {float(v)!r}" for v in vec) + "\n" for word, vec in emb.vectors.items()
    )
    write_atomic(path, "".join(lines).encode("utf-8"))
