import hashlib
import os
from pathlib import Path

import pytest

from seqtag.corpus import (
    ConllParseError,
    Token,
    Vocabulary,
    UNK_INDEX,
    build_char_index,
    build_label_index,
    conll_blocks,
    corpus_to_conll,
    load_corpus_cached,
    parse_conll,
    parse_conll_file,
    read_corpus_cache,
    write_corpus_cache,
)
from seqtag.exceptions import ConfigError, DataError
from seqtag.files import read_cache, write_cache


def cache_name(src, token_col=0, label_cols=None):
    """The cache file name README documents: the file name, the first 12
    hex digits of the sha256 of its absolute path, a NUL byte and the
    column declaration, then ``.cache``."""
    label_cols = label_cols or {"t": 1}
    columns = f"{token_col}" + "".join(f"\t{t}={c}" for t, c in sorted(label_cols.items()))
    key = os.fsencode(os.path.abspath(src)) + b"\0" + columns.encode("utf-8")
    return f"{src.name}.{hashlib.sha256(key).hexdigest()[:12]}.cache"


def test_parse_two_token_sentence():
    corpus = parse_conll("The\tB-NP\nfox\tI-NP\n\n", 0, {"chunk": 1})
    assert len(corpus) == 1
    (sentence,) = corpus.sentences
    assert [t.surface for t in sentence] == ["The", "fox"]
    assert [t.labels["chunk"] for t in sentence] == ["B-NP", "I-NP"]


@pytest.mark.parametrize("token_col, label_cols", [(0, {"t": -2}), (-1, {"t": 1}), (-1, {})])
def test_parse_rejects_negative_columns(token_col, label_cols):
    # Python would index from the end of the row: on two columns, label
    # column -2 reads the tokens and token column -1 the labels
    with pytest.raises(ConfigError, match="column indices count from 0"):
        parse_conll("a\tB\nb\tO\n", token_col, label_cols)


def test_parse_empty_input():
    assert len(parse_conll("", 0, {"t": 1})) == 0


def test_consecutive_blank_lines_collapse():
    corpus = parse_conll("a\tX\n\n\n\nb\tY\n", 0, {"t": 1})
    assert len(corpus) == 2
    assert all(len(s) == 1 for s in corpus.sentences)


def test_space_separated_columns():
    corpus = parse_conll("a X\nb Y\n", 0, {"t": 1})
    assert corpus.sentences[0][1].labels["t"] == "Y"


def test_multi_task_columns():
    corpus = parse_conll("w\tA\tB\n", 0, {"pos": 1, "ner": 2})
    token = corpus.sentences[0][0]
    assert token.labels == {"pos": "A", "ner": "B"}


def test_short_line_reports_line_number():
    with pytest.raises(ConllParseError, match="line 2"):
        parse_conll("a\tX\nb\n", 0, {"t": 1})


def test_conll_blocks_number_each_run_of_token_lines_from_its_first_line():
    lines = ["", "a X", " b Y ", "\t", "", "c", "d"]
    assert list(conll_blocks(lines)) == [(2, ["a X", " b Y "]), (6, ["c", "d"])]
    assert list(conll_blocks(["", " "])) == []
    with pytest.raises(ConllParseError, match="line 6: expected at least 2 columns, found 1"):
        parse_conll("\n".join(lines), 0, {"t": 1})


def test_unlabeled_parse():
    corpus = parse_conll("a\nb\n\nc\n", 0, {})
    assert len(corpus) == 2
    assert corpus.sentences[0][0].labels == {}


def test_roundtrip_is_fixed_point():
    text = "a\tX\tP\nbb\tY\tQ\n\nc\tX\tP\n"
    cols = {"one": 1, "two": 2}
    corpus = parse_conll(text, 0, cols)
    rendered = corpus_to_conll(corpus)
    again = parse_conll(rendered, 0, {"one": 1, "two": 2})
    assert again.sentences == corpus.sentences
    assert corpus_to_conll(again) == rendered


def test_label_counts():
    corpus = parse_conll("a\tX\nb\tX\nc\tY\n", 0, {"t": 1})
    assert corpus.label_counts("t") == {"X": 2, "Y": 1}


def test_vocabulary_lookup_chain():
    vocab = Vocabulary()
    idx = vocab.add_word("Fox")
    low = vocab.add_word("fox")
    assert vocab.lookup_word("Fox") == idx  # exact match wins
    assert vocab.lookup_word("fOx") == low  # lowercase fallback
    assert vocab.lookup_word("missing") == UNK_INDEX


def test_vocabulary_json_roundtrip():
    vocab = Vocabulary()
    vocab.add_word("alpha")
    vocab.add_char("a")
    vocab.label_index["t"] = {"O": 0, "B-X": 1}
    clone = Vocabulary.from_json(vocab.to_json())
    assert clone.word_index == vocab.word_index
    assert clone.char_index == vocab.char_index
    assert clone.labels_of("t") == ["O", "B-X"]


def test_label_index_is_sorted():
    corpus = parse_conll("a\tZ\nb\tA\n", 0, {"t": 1})
    assert build_label_index([corpus], "t") == {"A": 0, "Z": 1}


def test_char_index_covers_surfaces():
    corpus = parse_conll("ab\tX\n", 0, {"t": 1})
    index = build_char_index([corpus])
    assert "a" in index and "b" in index


def test_cache_roundtrip(tmp_path):
    corpus = parse_conll("a\tX\nb\tY\n\nc\tX\n", 0, {"t": 1})
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, corpus, {"size": 1})
    loaded, meta = read_corpus_cache(cache)
    assert loaded.sentences == corpus.sentences
    assert loaded.tasks == corpus.tasks
    assert meta == {"size": 1}


@pytest.mark.parametrize("label_cols", [{}, {"t": 1, "u": 2}])
def test_cache_roundtrip_with_no_or_two_tasks(tmp_path, label_cols):
    """A decoded cache equals a parse of its source, a one-token sentence
    and a repeated label row included, and holds plain tokens."""
    corpus = parse_conll("a\tX\tP\nb\tY\tQ\n\nc\tX\tP\n", 0, label_cols)
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, corpus, {"size": 1})
    loaded, _ = read_corpus_cache(cache)
    assert loaded.sentences == corpus.sentences
    assert [len(s) for s in loaded.sentences] == [2, 1]
    assert loaded.tasks == corpus.tasks
    columns = {"t": "XYX", "u": "PQP"}
    assert [(t.surface, dict(t.labels)) for t in loaded.tokens()] == [
        (surface, {task: columns[task][i] for task in label_cols})
        for i, surface in enumerate("abc")
    ]
    assert all(type(t) is Token for t in loaded.tokens())


def test_tokens_with_equal_label_rows_share_one_read_only_map(tmp_path):
    parsed = parse_conll("a\tX\tP\nb\tX\tP\nc\tX\tQ\n\nd\tX\tP\n", 0, {"t": 1, "u": 2})
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parsed, {"size": 1})
    decoded, _ = read_corpus_cache(cache)
    for corpus in (parsed, decoded):
        a, b, c, d = corpus.tokens()
        assert a.labels is b.labels is d.labels and a.labels is not c.labels
        assert a.labels == {"t": "X", "u": "P"} and c.labels == {"t": "X", "u": "Q"}
        with pytest.raises(TypeError):
            a.labels["t"] = "Y"
        assert b.labels["t"] == "X"


def test_cache_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_bytes(b"WXYZ" + b"\x00" * 16)
    with pytest.raises(DataError):
        read_corpus_cache(bad)


def test_load_corpus_cached_invalidates_on_change(tmp_path):
    src = tmp_path / "data.conll"
    src.write_text("a\tX\n")
    cache_dir = tmp_path / "cache"
    first = load_corpus_cached(src, 0, {"t": 1}, cache_dir)
    assert (cache_dir / cache_name(src)).exists()

    again = load_corpus_cached(src, 0, {"t": 1}, cache_dir)
    assert again.sentences == first.sentences

    src.write_text("b\tY\n")
    changed = load_corpus_cached(src, 0, {"t": 1}, cache_dir)
    assert changed.sentences[0][0].surface == "b"


def test_same_named_files_keep_separate_caches(tmp_path, monkeypatch):
    import seqtag.corpus

    parses = []
    parse = seqtag.corpus.parse_conll_file

    def counting_parse(path, *args):
        parses.append(path)
        return parse(path, *args)

    monkeypatch.setattr(seqtag.corpus, "parse_conll_file", counting_parse)
    sources = []
    for sub, word in (("a", "x"), ("b", "y")):
        (tmp_path / sub).mkdir()
        sources.append(tmp_path / sub / "train.conll")
        sources[-1].write_text(f"{word}\tX\n", encoding="utf-8")
    cache_dir = tmp_path / "cache"
    for _ in range(2):
        for src, word in zip(sources, ("x", "y")):
            corpus = load_corpus_cached(src, 0, {"t": 1}, cache_dir)
            assert corpus.sentences[0][0].surface == word
    assert parses == sources
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(map(cache_name, sources))


def test_one_file_with_two_label_columns_keeps_two_caches(tmp_path, monkeypatch):
    import seqtag.corpus

    parses = []
    parse = seqtag.corpus.parse_conll_file

    def counting_parse(path, *args):
        parses.append(path)
        return parse(path, *args)

    monkeypatch.setattr(seqtag.corpus, "parse_conll_file", counting_parse)
    src = tmp_path / "multi.conll"
    src.write_text("a\tX\tP\nb\tY\tQ\n", encoding="utf-8")
    cache_dir = tmp_path / "cache"
    for _ in range(3):
        for col, labels in ((1, ["X", "Y"]), (2, ["P", "Q"])):
            corpus = load_corpus_cached(src, 0, {"t": col}, cache_dir)
            assert [tok.labels["t"] for tok in corpus.sentences[0]] == labels
    assert parses == [src, src]
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
        cache_name(src, 0, {"t": col}) for col in (1, 2)
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(lengths=[2]),
        lambda h: h.update(surfaces=["a", "b"]),
        lambda h: h["labels"]["t"].append("X"),
        lambda h: h.update(labels={"t": []}),
    ],
    ids=["lengths", "surfaces", "long-labels", "short-labels"],
)
def test_cache_whose_columns_disagree_with_the_lengths_is_data_error(tmp_path, edit):
    """A header with a valid CRC whose columns do not all hold the
    number of tokens its ``lengths`` add up to."""
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parse_conll("a\tX\n", 0, {"t": 1}), {"size": 1})
    header, _ = read_cache(cache, b"SQTC", 3, "corpus cache")
    edit(header)
    write_cache(cache, b"SQTC", 3, header)
    with pytest.raises(DataError, match="corrupt corpus cache"):
        read_corpus_cache(cache)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_corpus_cached(tmp_path / "absent.conll", 0, {"t": 1})


def test_non_utf8_input_raises_data_error_with_offset(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_bytes(b"a\tX\n\xc3\tY\n")
    with pytest.raises(DataError, match="bad.conll: not valid UTF-8 at byte offset 4"):
        parse_conll_file(path, 0, {"t": 1})


@pytest.mark.parametrize("mask", [0xFF, 0x01])
def test_damaged_cache_falls_back_to_parsing(tmp_path, mask):
    src = tmp_path / "data.conll"
    src.write_text("a\tX\nb\tY\n\nc\tX\n", encoding="utf-8")
    expected = parse_conll_file(src, 0, {"t": 1})
    cache_dir = tmp_path / "cache"
    assert load_corpus_cached(src, 0, {"t": 1}, cache_dir) == expected
    cache = cache_dir / cache_name(src)
    blob = cache.read_bytes()
    damaged = [blob[:n] for n in range(len(blob))]
    damaged += [blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:] for i in range(len(blob))]
    for case in damaged:
        cache.write_bytes(case)
        assert load_corpus_cached(src, 0, {"t": 1}, cache_dir) == expected
        assert cache.read_bytes() == blob  # the re-parse rewrote the cache
    assert sorted(p.name for p in cache_dir.iterdir()) == [cache_name(src)]


def test_cache_that_carries_values_is_data_error(tmp_path):
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parse_conll("a\tX\n", 0, {"t": 1}), {"size": 1})
    header, _ = read_cache(cache, b"SQTC", 3, "corpus cache")
    write_cache(cache, b"SQTC", 3, header, [0.0])
    with pytest.raises(DataError, match="corrupt corpus cache"):
        read_corpus_cache(cache)


PINNED_SOURCE = "The\tB-NP\tX\nfox\tI-NP\tY\n\nnaïve\tO\tZ\n".encode("utf-8")
V2_CACHE = Path(__file__).parent / "data" / "corpus_cache_v2.cache"


def test_corpus_cache_bytes_are_unchanged(tmp_path):
    """The corpus cache layout, byte for byte, as the version-3 format
    has always written it for this fixture."""
    src = tmp_path / "x.conll"
    src.write_bytes(PINNED_SOURCE)
    load_corpus_cached(src, 0, {"t": 1, "u": 2}, tmp_path / "cache")
    blob = (tmp_path / "cache" / cache_name(src, 0, {"t": 1, "u": 2})).read_bytes()
    assert len(blob) == 293
    assert hashlib.sha256(blob).hexdigest() == (
        "da92f045a26e591cdfd7cab0afb220975598f674b58b4aafdcf85e5aacf2a1ba"
    )


def test_version_2_cache_is_parsed_again_and_rewritten(tmp_path, monkeypatch):
    """A cache in the format before the columnar header, as version 2
    wrote it for the pinned fixture, is an older cache: the source is
    parsed again and the cache rewritten in the current format."""
    import seqtag.corpus

    blob = V2_CACHE.read_bytes()
    assert len(blob) == 368
    assert hashlib.sha256(blob).hexdigest() == (
        "707096b8bb24de94428dba1fa8fb232655efdb8b636932e50622b93fa21aa7c9"
    )
    src = tmp_path / "x.conll"
    src.write_bytes(PINNED_SOURCE)
    cache = tmp_path / "cache" / cache_name(src, 0, {"t": 1, "u": 2})
    cache.parent.mkdir()
    cache.write_bytes(blob)
    parses = []
    parse = seqtag.corpus.parse_conll_file

    def counting_parse(path, *args):
        parses.append(path)
        return parse(path, *args)

    monkeypatch.setattr(seqtag.corpus, "parse_conll_file", counting_parse)
    corpus = load_corpus_cached(src, 0, {"t": 1, "u": 2}, tmp_path / "cache")
    assert parses == [src]
    assert corpus == parse_conll(PINNED_SOURCE.decode("utf-8"), 0, {"t": 1, "u": 2})
    assert cache.read_bytes()[4:8] == (3).to_bytes(4, "little")
    assert read_corpus_cache(cache)[0] == corpus
