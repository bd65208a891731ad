import hashlib
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import seqtag.embeddings
from seqtag.corpus import parse_conll
from seqtag.embeddings import (
    EmbeddingFormatError,
    EmbeddingSet,
    build_embedding_set,
    load_embedding_file,
    load_embedding_file_cached,
    prune_embeddings,
    read_embedding_cache,
    save_embedding_file,
)
from seqtag.exceptions import DataError

from conftest import write_half_then_fail


def write(path, text):
    path.write_text(text)
    return path


def make_set(vectors):
    """An embedding set holding ``vectors`` (word -> vector) in dict order."""
    return EmbeddingSet(list(vectors), np.array(list(vectors.values()), dtype=float))


def vector(emb, word):
    """The row of ``word`` in the set's matrix."""
    return emb.matrix[emb.words.index(word)]


def test_intersection_and_concatenation(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\n")
    f2 = write(tmp_path / "e2.txt", "b 3\nc 4\n")
    emb = build_embedding_set([f1, f2])
    assert set(emb.words) == {"b"}
    assert emb.dim == 2
    assert np.allclose(vector(emb, "b"), [2.0, 3.0])


def test_single_file_identity(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1 2\nb 3 4\n")
    emb = build_embedding_set([f1])
    assert emb.dim == 2
    assert set(emb.words) == {"a", "b"}
    assert np.allclose(vector(emb, "a"), [1.0, 2.0])


def test_empty_intersection_is_error(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\n")
    f2 = write(tmp_path / "e2.txt", "b 2\n")
    with pytest.raises(DataError, match="empty intersection"):
        build_embedding_set([f1, f2])


def test_vocabulary_order_insensitive(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\nc 5\n")
    f2 = write(tmp_path / "e2.txt", "c 4\nb 3\n")
    assert set(build_embedding_set([f1, f2]).words) == set(build_embedding_set([f2, f1]).words)


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
    assert set(emb.words) == {"a", "b"}
    assert emb.dim == 3


def test_prune_keeps_only_used_words(tmp_path):
    emb = make_set({w: np.array([1.0]) for w in ("a", "b", "c")})
    corpus = parse_conll("a\tX\nc\tX\nz\tX\n", 0, {"t": 1})
    pruned = prune_embeddings(emb, [corpus])
    assert set(pruned.words) == {"a", "c"}


def test_prune_keeps_the_order_and_row_of_each_reached_word():
    words = ["the", "Fox", "fox", "dog", "cat", "jumps", "Cat"]
    emb = EmbeddingSet(words, np.arange(14.0).reshape(7, 2))
    corpora = [parse_conll("The\tX\nfox\tX\n", 0, {"t": 1}), parse_conll("Cat\n", 0, {})]
    pruned = prune_embeddings(emb, corpora)
    assert pruned.words == ["the", "fox", "cat", "Cat"]
    assert pruned.matrix.tolist() == emb.matrix[[0, 2, 4, 6]].tolist()
    assert not np.shares_memory(pruned.matrix, emb.matrix)


def test_prune_empty_corpus_gives_empty_set():
    emb = make_set({"a": np.array([1.0])})
    corpus = parse_conll("", 0, {"t": 1})
    assert set(prune_embeddings(emb, [corpus]).words) == set()


def test_prune_identity_when_all_used(tmp_path):
    emb = make_set({"a": np.array([1.0]), "b": np.array([2.0])})
    corpus = parse_conll("a\tX\nb\tX\n", 0, {"t": 1})
    assert set(prune_embeddings(emb, [corpus]).words) == set(emb.words)


def test_prune_respects_lowercase_normalization():
    emb = make_set({"fox": np.array([1.0])})
    corpus = parse_conll("Fox\tX\n", 0, {"t": 1})
    assert set(prune_embeddings(emb, [corpus]).words) == {"fox"}


def test_pruned_subset_property(tmp_path):
    f1 = write(tmp_path / "e1.txt", "a 1\nb 2\nc 3\n")
    emb = build_embedding_set([f1])
    corpus = parse_conll("b\tX\nq\tX\n", 0, {"t": 1})
    assert set(prune_embeddings(emb, [corpus]).words) <= set(emb.words)


def test_directory_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read .*: Is a directory"):
        load_embedding_file(tmp_path)


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    save_embedding_file(make_set({"a": np.array([0.5])}), path)
    before = path.read_bytes()

    bigger = make_set({w: np.array([1.0]) for w in "abcdef"})
    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError):
            save_embedding_file(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_save_load_roundtrip(tmp_path):
    emb = make_set({"a": np.array([0.1, -0.25])})
    path = tmp_path / "out.txt"
    save_embedding_file(emb, path)
    again = load_embedding_file(path)
    assert np.array_equal(vector(again, "a"), vector(emb, "a"))


# -- header and finite checks -------------------------------------------------------


@pytest.mark.parametrize(
    "text,declared,held",
    [
        ("3 2\na 1 2\nb 3 4\n", "3 vectors of dimension 2", "2 of dimension 2"),
        ("2 5\na 1 2\nb 3 4\n", "2 vectors of dimension 5", "2 of dimension 2"),
    ],
    ids=["count", "dim"],
)
def test_header_that_disagrees_with_the_vectors_is_error(tmp_path, text, declared, held):
    path = write(tmp_path / "hdr.txt", text)
    with pytest.raises(EmbeddingFormatError) as info:
        load_embedding_file(path)
    message = str(info.value)
    assert "\n" not in message
    assert str(path) in message and declared in message and held in message


def test_header_less_file_is_unchanged(tmp_path):
    emb = load_embedding_file(write(tmp_path / "plain.txt", "a 1 2\nb 3 4\n"))
    assert emb.words == ["a", "b"]
    assert np.array_equal(vector(emb, "b"), [3.0, 4.0])


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_component_is_error_naming_the_line(tmp_path, value):
    path = write(tmp_path / "e.txt", f"2 2\na 1 2\n\ncat {value} 4\n")
    with pytest.raises(EmbeddingFormatError, match=rf"e\.txt, line 4: non-finite value"):
        load_embedding_file(path)


def test_non_finite_component_of_an_unreachable_word_is_error(tmp_path):
    path = write(tmp_path / "e.txt", "cat 1 2\nzebra nan 4\n")
    corpus = parse_conll("cat\tX\n", 0, {"t": 1})
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
        prune_embeddings(build_embedding_set([path]), [corpus])


def test_repeated_word_keeps_first_position_and_last_vector(tmp_path):
    emb = load_embedding_file(write(tmp_path / "dup.txt", "3 2\na 1 2\nb 3 4\na 5 6\n"))
    assert emb.words == ["a", "b"]
    assert np.array_equal(vector(emb, "a"), [5.0, 6.0])


# -- binary cache -----------------------------------------------------------------------


def emb_cache_name(src):
    """The cache name README documents: the file name, the first 12 hex
    digits of the sha256 of its absolute path, then ``.emb``."""
    digest = hashlib.sha256(os.fsencode(os.path.abspath(src))).hexdigest()[:12]
    return f"{src.name}.{digest}.emb"


@pytest.fixture
def parses(monkeypatch):
    """The paths the text parser was called on."""
    calls = []
    parse = seqtag.embeddings.load_embedding_file

    def counting(path):
        calls.append(Path(path))
        return parse(path)

    monkeypatch.setattr(seqtag.embeddings, "load_embedding_file", counting)
    return calls


def assert_same_set(a, b):
    assert a.dim == b.dim
    assert a.words == b.words
    assert all(vector(a, w).tobytes() == vector(b, w).tobytes() for w in a.words)


def test_warm_load_equals_cold_bitwise(tmp_path, parses):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(50, 5))
    lines = [f"w{i % 40} " + " ".join(map(repr, map(float, row))) for i, row in enumerate(rows)]
    src = write(tmp_path / "vectors.txt", "50 5\n" + "\n".join(lines) + "\n")
    cache_dir = tmp_path / "cache"
    cold = load_embedding_file_cached(src, cache_dir)
    warm = load_embedding_file_cached(src, cache_dir)
    assert parses == [src]
    assert [p.name for p in cache_dir.iterdir()] == [emb_cache_name(src)]
    assert_same_set(warm, cold)
    assert_same_set(warm, load_embedding_file(src))
    assert warm.words[:3] == ["w0", "w1", "w2"]
    assert vector(warm, "w3").tobytes() == np.array(lines[43].split()[1:], float).tobytes()


def test_one_byte_change_of_equal_size_invalidates_the_cache(tmp_path, parses):
    src = write(tmp_path / "e.txt", "a 1 2\nb 3 4\n")
    cache_dir = tmp_path / "cache"
    load_embedding_file_cached(src, cache_dir)
    write(src, "a 1 2\nb 3 5\n")
    changed = load_embedding_file_cached(src, cache_dir)
    assert np.array_equal(vector(changed, "b"), [3.0, 5.0])
    assert parses == [src, src]
    assert_same_set(load_embedding_file_cached(src, cache_dir), changed)
    assert len(parses) == 2


def _resealed(blob: bytes, version: int) -> bytes:
    return blob[:4] + struct.pack("<II", version, zlib.crc32(blob[12:])) + blob[12:]


def test_damaged_cache_is_parsed_again_and_rewritten(tmp_path):
    src = write(tmp_path / "e.txt", "2 2\na 0.5 -1\nb 3 4\n")
    expected = load_embedding_file(src)
    cache_dir = tmp_path / "cache"
    load_embedding_file_cached(src, cache_dir)
    cache = cache_dir / emb_cache_name(src)
    blob = cache.read_bytes()
    damaged = [blob[:n] for n in range(len(blob))]
    damaged += [blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1 :] for i in range(len(blob))]
    damaged += [b"SQTC" + blob[4:], _resealed(blob, 2), _resealed(blob, 0), blob + bytes(8)]
    for case in damaged:
        cache.write_bytes(case)
        assert_same_set(load_embedding_file_cached(src, cache_dir), expected)
        assert cache.read_bytes() == blob  # the re-parse rewrote the cache
    assert sorted(p.name for p in cache_dir.iterdir()) == [emb_cache_name(src)]


def test_read_cache_of_a_damaged_file_is_data_error(tmp_path):
    src = write(tmp_path / "e.txt", "a 1 2\n")
    load_embedding_file_cached(src, tmp_path)
    cache = tmp_path / emb_cache_name(src)
    blob = bytearray(cache.read_bytes())
    blob[-1] ^= 0x80
    cache.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="fails its checksum"):
        read_embedding_cache(cache)


@pytest.mark.parametrize(
    "text", ["a 1 2\nb x 4\n", "a 1 2\nb nan 4\n", "3 2\na 1 2\n", ""], ids=str
)
def test_bad_source_writes_no_cache(tmp_path, text):
    src = write(tmp_path / "e.txt", text)
    cache_dir = tmp_path / "cache"
    with pytest.raises(EmbeddingFormatError):
        load_embedding_file_cached(src, cache_dir)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [src]


def test_same_named_files_keep_separate_embedding_caches(tmp_path, parses):
    sources = []
    for sub, word in (("a", "x"), ("b", "y")):
        (tmp_path / sub).mkdir()
        sources.append(write(tmp_path / sub / "vectors.txt", f"{word} 1 2\n"))
    cache_dir = tmp_path / "cache"
    for _ in range(2):
        for src, word in zip(sources, ("x", "y")):
            assert load_embedding_file_cached(src, cache_dir).words == [word]
    assert parses == sources
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(map(emb_cache_name, sources))


def test_without_a_cache_dir_every_load_parses(tmp_path, parses):
    src = write(tmp_path / "e.txt", "a 1 2\n")
    for _ in range(2):
        load_embedding_file_cached(src)
    assert parses == [src, src]
    assert [p.name for p in tmp_path.iterdir()] == ["e.txt"]


def test_embedding_cache_bytes_are_unchanged(tmp_path):
    """The embedding cache layout, byte for byte, as version 1 has always
    written it for this fixture: more than 1,024 rows, a non-ASCII word
    and three repeated words."""
    src = tmp_path / "vectors.txt"
    lines = [f"w{i % 1027} {i / 8!r} {-i / 3!r} 0.5" for i in range(1030)]
    src.write_bytes(("naïve 1 2 3\n" + "\n".join(lines) + "\n").encode("utf-8"))
    emb = load_embedding_file_cached(src, tmp_path / "cache")
    assert len(emb) == 1028 and emb.dim == 3
    blob = (tmp_path / "cache" / emb_cache_name(src)).read_bytes()
    assert len(blob) == 32965
    assert hashlib.sha256(blob).hexdigest() == (
        "fcd0fb1449c0d15875a8fd50b2613224336ad48b7b7947e2f124904df6f29865"
    )
