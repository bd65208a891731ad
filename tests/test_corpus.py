import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from seqtag.corpus import (
    ConllParseError,
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
from seqtag.training import subsample


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
    assert list(sentence) == ["The", "fox"]
    assert list(corpus.labels["chunk"][0]) == ["B-NP", "I-NP"]


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
    assert corpus.labels["t"][0][1] == "Y"


def test_multi_task_columns():
    corpus = parse_conll("w\tA\tB\n", 0, {"pos": 1, "ner": 2})
    first = {task: column[0][0] for task, column in corpus.labels.items()}
    assert first == {"pos": "A", "ner": "B"}


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
    assert corpus.labels == {}


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
    and a repeated label row included, and holds tuples of strings."""
    corpus = parse_conll("a\tX\tP\nb\tY\tQ\n\nc\tX\tP\n", 0, label_cols)
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, corpus, {"size": 1})
    loaded, _ = read_corpus_cache(cache)
    assert loaded.sentences == corpus.sentences
    assert [len(s) for s in loaded.sentences] == [2, 1]
    assert loaded.tasks == corpus.tasks
    columns = {"t": "XYX", "u": "PQP"}
    assert loaded.sentences == (("a", "b"), ("c",))
    assert {task: "".join(sum(column, ())) for task, column in loaded.labels.items()} == {
        task: columns[task] for task in label_cols
    }
    for column in (loaded.sentences, *loaded.labels.values()):
        assert type(column) is tuple and all(type(s) is tuple for s in column)
        assert all(type(item) is str for s in column for item in s)


def test_parsed_and_decoded_label_columns_are_read_only_tuples(tmp_path):
    parsed = parse_conll("a\tX\tP\nb\tX\tP\nc\tX\tQ\n\nd\tX\tP\n", 0, {"t": 1, "u": 2})
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parsed, {"size": 1})
    decoded, _ = read_corpus_cache(cache)
    for corpus in (parsed, decoded):
        assert corpus.labels == {"t": (("X", "X", "X"), ("X",)), "u": (("P", "P", "Q"), ("P",))}
        with pytest.raises(TypeError):
            corpus.labels["t"] = (("Y", "Y", "Y"), ("Y",))
        with pytest.raises(TypeError):
            del corpus.labels["u"]
        assert type(corpus.sentences) is tuple
        assert all(type(column) is tuple for column in corpus.labels.values())
        assert corpus.tasks == ("t", "u")


ALIGNED_LENGTHS = [3, 1, 4, 1, 5, 2, 6]


def assert_aligned(corpus):
    """Each task's labels of sentence i are as many as its surfaces, and
    are the ones its own surfaces were written with."""
    assert corpus.tasks == ("t", "u")
    for task in corpus.tasks:
        column = corpus.labels[task]
        assert len(column) == len(corpus.sentences)
        for sentence, labels in zip(corpus.sentences, column):
            assert len(labels) == len(sentence)
            assert labels == tuple(f"{task}{surface}" for surface in sentence)


def test_parse_decode_and_subsample_keep_labels_with_their_sentence(tmp_path):
    text = "\n".join(
        "".join(f"{i}.{j}\tt{i}.{j}\tu{i}.{j}\n" for j in range(n))
        for i, n in enumerate(ALIGNED_LENGTHS)
    )
    parsed = parse_conll(text, 0, {"t": 1, "u": 2})
    assert list(map(len, parsed.sentences)) == ALIGNED_LENGTHS
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parsed, {"size": 1})
    decoded, _ = read_corpus_cache(cache)
    assert decoded == parsed
    sampled = subsample(parsed, 0.6, np.random.default_rng(3))
    assert len(sampled) == 5 and set(sampled.sentences) < set(parsed.sentences)
    assert sampled.sentences != parsed.sentences[:5]  # shuffled, not a prefix
    for corpus in (parsed, decoded, sampled):
        assert_aligned(corpus)


@pytest.mark.parametrize(
    "text, label_cols, size, digest",
    [
        ("a\nbb\tZ\nc\n\n\nd\n\n  \ne\tf\n", {}, 119,
         "3c93922d57fbf20118af493c8d67880e228a8cafb2259430794f13627ce2c163"),
        ("Ä\tB-X\tp\n\nb\tI-X\tq\nc\tO\tq\nd\tO\tp\n\ne\tB-Y\tq\nf\tO\tp\n",
         {"t": 1, "u": 2}, 206,
         "5380ceb31e9998fbacea3efdb2a3302d410258dea92a7b6318ec350375ba53ae"),
        ("x y\n", {"t": 1}, 102,
         "e8a933592d3dac8017e31cd970872b417785c79105c955b3b274c86aa7390578"),
        ("\n\n", {"t": 1}, 95,
         "1a6ed0098ac6ce239896dc9bc231052bfef4cdeed857f2656322f09a2dbfc453"),
    ],
    ids=["unlabeled", "two-tasks", "one-token", "empty"],
)
def test_written_cache_bytes_are_pinned(tmp_path, text, label_cols, size, digest):
    """The bytes ``write_corpus_cache`` gives for a parsed corpus, as the
    version-3 format wrote them when sentences were held token by token:
    no labels, two tasks, one token and no sentence at all."""
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parse_conll(text, 0, label_cols), {"size": 1})
    blob = cache.read_bytes()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, digest)


def test_cache_with_a_negative_sentence_length_is_data_error(tmp_path):
    cache = tmp_path / "c.cache"
    write_corpus_cache(cache, parse_conll("a\tX\nb\tY\nc\tZ\n", 0, {"t": 1}), {"size": 1})
    header, _ = read_cache(cache, b"SQTC", 3, "corpus cache")
    header["lengths"] = [3, -1, 1]  # adds up to the token count
    write_cache(cache, b"SQTC", 3, header)
    with pytest.raises(DataError, match="corrupt corpus cache"):
        read_corpus_cache(cache)


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
    assert changed.sentences[0][0] == "b"


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
            assert corpus.sentences[0][0] == word
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
            assert list(corpus.labels["t"][0]) == labels
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
