"""CoNLL corpus handling: parsing, serialization, vocabularies, caching.

The input format is column-based text. Each non-blank line holds one
token; columns are separated by tabs or spaces. Blank lines delimit
sentences (for document-level tasks a blank-line block is one document).
Multiple consecutive blank lines collapse to a single boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from seqtag.exceptions import ConfigError, DataError
from seqtag.files import cache_path, file_fingerprint, read_cache, through_cache, write_cache

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

_CACHE_MAGIC = b"SQTC"
_CACHE_VERSION = 3


class ConllParseError(DataError):
    pass


Sentence = tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of sentences, held as columns:
    each sentence's surfaces, and per task one tuple of labels for each
    sentence, aligned with its surfaces."""

    sentences: tuple[Sentence, ...]
    labels: Mapping[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def tasks(self) -> tuple[str, ...]:
        return tuple(self.labels)

    @property
    def token_count(self) -> int:
        return sum(map(len, self.sentences))

    def label_counts(self, task: str) -> dict[str, int]:
        """Each label's token count, in order of first occurrence."""
        return dict(Counter(chain.from_iterable(self.labels[task])))

    def surfaces(self) -> set[str]:
        return set(chain.from_iterable(self.sentences))


def parse_conll(text: str, token_col: int, label_cols: Mapping[str, int]) -> Corpus:
    """Parse CoNLL text into a Corpus; ``parse_conll_file`` reads a file.

    ``label_cols`` maps task names to column indices; pass an empty
    mapping for unlabeled input. A line with fewer columns than the
    maximum declared index is a parse error reported with its line
    number; a negative index is a ConfigError. An empty input yields an
    empty corpus.
    """
    for col in (token_col, *label_cols.values()):
        if col < 0:
            raise ConfigError(f"column indices count from 0, got {col}")
    needed = max([token_col, *label_cols.values()]) + 1

    sentences = []
    columns = {task: [] for task in label_cols}
    for first, block in conll_blocks(text.splitlines()):
        rows = [line.split() for line in block]
        if min(map(len, rows)) < needed:
            lineno, cols = next((n, c) for n, c in enumerate(rows, first) if len(c) < needed)
            raise ConllParseError(
                f"line {lineno}: expected at least {needed} columns, found {len(cols)}"
            )
        sentences.append(tuple(map(itemgetter(token_col), rows)))
        for task, col in label_cols.items():
            columns[task].append(tuple(map(itemgetter(col), rows)))
    return Corpus(tuple(sentences), {task: tuple(column) for task, column in columns.items()})


def conll_blocks(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Each run of non-blank lines, as they are, with the 1-based number
    of its first line. Blank and whitespace-only lines separate runs."""
    block: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            block.append(line)
        elif block:
            yield lineno - len(block), block
            block = []
    if block:
        yield lineno + 1 - len(block), block


def parse_conll_file(path: str | Path, token_col: int, label_cols: Mapping[str, int]) -> Corpus:
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    return parse_conll(read_text(path), token_col, label_cols)


def read_text(path: Path) -> str:
    """A whole UTF-8 text file; a directory, an unreadable file or a decode
    failure (named with its byte offset) raises DataError."""
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from err
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(
            f"{path}: not valid UTF-8 at byte offset {err.start} ({err.reason})"
        ) from err


def conll_text(sentences: Iterable[Iterable[Sequence[str]]]) -> str:
    """Tab-separated CoNLL text: one line of cells per token, a blank line
    between sentences; no sentences give the empty string."""
    return "\n".join(
        "".join("\t".join(cells) + "\n" for cells in sentence) for sentence in sentences
    )


def corpus_to_conll(corpus: Corpus, tasks: Iterable[str] | None = None) -> str:
    """Render a corpus as normalized tab-separated CoNLL text."""
    tasks = tuple(tasks) if tasks is not None else corpus.tasks
    columns = zip(corpus.sentences, *(corpus.labels[t] for t in tasks))
    return conll_text(zip(*sentence) for sentence in columns)


# -- vocabulary ----------------------------------------------------------------


@dataclass
class Vocabulary:
    """Dense 0-based index maps for words, characters, and per-task labels.

    Index 0 is the padding entry and index 1 the unknown entry in both
    the word and character maps; those stay stable across save/load.
    """

    word_index: dict[str, int] = field(default_factory=dict)
    char_index: dict[str, int] = field(default_factory=dict)
    label_index: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        for index in (self.word_index, self.char_index):
            if not index:
                index[PAD_TOKEN] = PAD_INDEX
                index[UNK_TOKEN] = UNK_INDEX

    @property
    def word_count(self) -> int:
        return len(self.word_index)

    def add_word(self, word: str) -> int:
        return self.word_index.setdefault(word, len(self.word_index))

    def add_char(self, char: str) -> int:
        return self.char_index.setdefault(char, len(self.char_index))

    def lookup_word(self, surface: str) -> int:
        """Exact match, then lowercase match, then the unknown index."""
        idx = self.word_index.get(surface)
        if idx is not None:
            return idx
        idx = self.word_index.get(surface.lower())
        if idx is not None:
            return idx
        return UNK_INDEX

    def char_ids(self, surface: str) -> list[int]:
        """The character ids of a word, the unknown index for unseen ones."""
        get = self.char_index.get
        return [get(ch, UNK_INDEX) for ch in surface]

    def labels_of(self, task: str) -> list[str]:
        index = self.label_index[task]
        ordered = sorted(index.items(), key=lambda kv: kv[1])
        return [label for label, _ in ordered]

    def to_json(self) -> dict:
        return {
            "word_index": self.word_index,
            "char_index": self.char_index,
            "label_index": self.label_index,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Vocabulary":
        vocab = cls(
            word_index=dict(payload["word_index"]),
            char_index=dict(payload["char_index"]),
            label_index={t: dict(m) for t, m in payload["label_index"].items()},
        )
        for index in (vocab.word_index, vocab.char_index):
            if index.get(PAD_TOKEN) != PAD_INDEX or index.get(UNK_TOKEN) != UNK_INDEX:
                raise DataError("vocabulary is missing stable pad/unk entries")
        for index in (vocab.word_index, vocab.char_index, *vocab.label_index.values()):
            ids = sorted(index.values())
            if ids != list(range(len(ids))) or any(type(i) is not int for i in ids):
                raise DataError("vocabulary has a map that does not number its entries 0..n-1")
        return vocab


def build_label_index(corpora: Iterable[Corpus], task: str) -> dict[str, int]:
    """Label -> index for a task, sorted for stable, seed-free ordering."""
    labels: set[str] = set()
    for corpus in corpora:
        labels.update(corpus.label_counts(task).keys())
    return {label: i for i, label in enumerate(sorted(labels))}


def build_char_index(corpora: Iterable[Corpus]) -> dict[str, int]:
    chars = set("".join(set().union(*(corpus.surfaces() for corpus in corpora))))
    index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for char in sorted(chars):
        index[char] = len(index)
    return index


# -- binary cache ---------------------------------------------------------------
#
# Framed as ``seqtag.files`` describes, with magic "SQTC" and a JSON
# header of columns: the source fingerprint and column declaration, the
# token count of each sentence, every token's surface in corpus order,
# and one label column of the same length per task, in task order. It
# carries no float values.


def write_corpus_cache(path: str | Path, corpus: Corpus, source_meta: dict) -> None:
    header = {
        "source": source_meta,
        "lengths": list(map(len, corpus.sentences)),
        "surfaces": list(chain.from_iterable(corpus.sentences)),
        "labels": {task: list(chain.from_iterable(col)) for task, col in corpus.labels.items()},
    }
    write_cache(Path(path), _CACHE_MAGIC, _CACHE_VERSION, header)


def read_corpus_cache(path: str | Path) -> tuple[Corpus, dict]:
    """The cached corpus and its source metadata; a damaged file raises DataError."""
    header, values = read_cache(Path(path), _CACHE_MAGIC, _CACHE_VERSION, "corpus cache")
    try:
        lengths, surfaces, columns = header["lengths"], header["surfaces"], header["labels"]
        sizes = {sum(lengths), len(surfaces), *map(len, columns.values())}
        if values.size or len(sizes) > 1:
            raise ValueError(f"{values.size} values and columns of {sorted(sizes)} tokens")
        if min(lengths, default=0) < 0:
            raise ValueError(f"a sentence of {min(lengths)} tokens")
        ends = list(accumulate(lengths))
        cuts = list(map(slice, [0, *ends], ends))  # each sentence's tokens in a column
        sentences = tuple(map(tuple(surfaces).__getitem__, cuts))
        labels = {task: tuple(map(tuple(col).__getitem__, cuts)) for task, col in columns.items()}
        return Corpus(sentences, labels), header["source"]
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        raise DataError(f"corrupt corpus cache {path}: {err!r}") from err


def load_corpus_cached(
    path: str | Path,
    token_col: int,
    label_cols: Mapping[str, int],
    cache_dir: str | Path | None = None,
) -> Corpus:
    """Parse a CoNLL file, going through a binary cache when possible.

    The cache file is named after the file and a hash of its absolute
    path and column declaration, so same-named files in different
    directories, and one file read with two column layouts, keep separate
    caches. It is keyed by file size and content hash plus the column
    declaration; any change invalidates it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    if cache_dir is None:
        return parse_conll_file(path, token_col, label_cols)

    columns = f"{token_col}" + "".join(f"\t{t}={c}" for t, c in sorted(label_cols.items()))
    cache = cache_path(cache_dir, path, ".cache", columns)
    meta = file_fingerprint(path)
    meta["token_col"] = token_col
    meta["label_cols"] = {task: idx for task, idx in label_cols.items()}
    return through_cache(
        cache,
        meta,
        read_corpus_cache,
        lambda: parse_conll_file(path, token_col, label_cols),
        write_corpus_cache,
    )
