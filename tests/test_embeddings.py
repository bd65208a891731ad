from pathlib import Path

import numpy as np
import pytest

from seqtag.corpus import parse_conll
from seqtag.embeddings import (
    EmbeddingFormatError,
    EmbeddingSet,
    build_embedding_set,
    load_embedding_file,
    prune_embeddings,
    save_embedding_file,
)
from seqtag.exceptions import DataError

from conftest import write_half_then_fail


def write(path, text):
    path.write_text(text)
    return path


def test_intersection_and_concatenation(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\n")
    f2 = write(tmp_path / "e2.txt", "b 3\nc 4\n")
    emb = build_embedding_set([f1, f2])
    assert emb.words == {"b"}
    assert emb.dim == 2
    assert np.allclose(emb.vectors["b"], [2.0, 3.0])


def test_single_file_identity(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1 2\nb 3 4\n")
    emb = build_embedding_set([f1])
    assert emb.dim == 2
    assert emb.words == {"a", "b"}
    assert np.allclose(emb.vectors["a"], [1.0, 2.0])


def test_empty_intersection_is_error(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\n")
    f2 = write(tmp_path / "e2.txt", "b 2\n")
    with pytest.raises(DataError, match="empty intersection"):
        build_embedding_set([f1, f2])


def test_vocabulary_order_insensitive(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\nc 5\n")
    f2 = write(tmp_path / "e2.txt", "c 4\nb 3\n")
    assert build_embedding_set([f1, f2]).words == build_embedding_set([f2, f1]).words


def test_inconsistent_dimension_is_error(tmp_path):
    f1 = write(tmp_path / "bad.txt", "a 1 2\nb 3\n")
    with pytest.raises(EmbeddingFormatError):
        load_embedding_file(f1)


def test_non_utf8_file_is_data_error_naming_the_byte(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a 0.1\n\xff 0.2\n")
    with pytest.raises(DataError, match=r"bad\.txt: not valid UTF-8 at byte offset 6"):
        load_embedding_file(path)


def test_header_line_is_skipped(tmp_path):
    f1 = write(tmp_path / "hdr.txt", "2 3\na 1 2 3\nb 4 5 6\n")
    emb = load_embedding_file(f1)
    assert emb.words == {"a", "b"}
    assert emb.dim == 3


def test_prune_keeps_only_used_words(tmp_path):
    emb = EmbeddingSet(dim=1, vectors={w: np.array([1.0]) for w in ("a", "b", "c")})
    corpus = parse_conll("a\tX\nc\tX\nz\tX\n", 0, {"t": 1})
    pruned = prune_embeddings(emb, [corpus])
    assert pruned.words == {"a", "c"}


def test_prune_empty_corpus_gives_empty_set():
    emb = EmbeddingSet(dim=1, vectors={"a": np.array([1.0])})
    corpus = parse_conll("", 0, {"t": 1})
    assert prune_embeddings(emb, [corpus]).words == set()


def test_prune_identity_when_all_used(tmp_path):
    emb = EmbeddingSet(dim=1, vectors={"a": np.array([1.0]), "b": np.array([2.0])})
    corpus = parse_conll("a\tX\nb\tX\n", 0, {"t": 1})
    assert prune_embeddings(emb, [corpus]).words == emb.words


def test_prune_respects_lowercase_normalization():
    emb = EmbeddingSet(dim=1, vectors={"fox": np.array([1.0])})
    corpus = parse_conll("Fox\tX\n", 0, {"t": 1})
    assert prune_embeddings(emb, [corpus]).words == {"fox"}


def test_pruned_subset_property(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\nc 3\n")
    emb = build_embedding_set([f1])
    corpus = parse_conll("b\tX\nq\tX\n", 0, {"t": 1})
    assert prune_embeddings(emb, [corpus]).words <= emb.words


def test_directory_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read .*: Is a directory"):
        load_embedding_file(tmp_path)


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    save_embedding_file(EmbeddingSet(dim=1, vectors={"a": np.array([0.5])}), path)
    before = path.read_bytes()

    bigger = EmbeddingSet(dim=1, vectors={w: np.array([1.0]) for w in "abcdef"})
    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError):
            save_embedding_file(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_save_load_roundtrip(tmp_path):
    emb = EmbeddingSet(dim=2, vectors={"a": np.array([0.1, -0.25])})
    path = tmp_path / "out.txt"
    save_embedding_file(emb, path)
    again = load_embedding_file(path)
    assert np.array_equal(again.vectors["a"], emb.vectors["a"])
