"""Deterministic synthetic inputs for the benchmark workloads.

Everything here is a pure function of a seed: the same seed writes
byte-identical files. Labels are a function of the word and of the
previous word's class (B- opens a run, I- continues a run of the same
class), so short training runs can learn them.
"""

from __future__ import annotations

import statistics
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = ("X", "Y", "Z")
OUTSIDE_SHARE = 0.7
ZIPF_EXPONENT = 1.1
FUNCTION_WORDS = 20  # the most frequent ranks are always "O", as in real text
EMBEDDING_COVERAGE = 0.97  # the rest of the lexicon is out of vocabulary


@dataclass(frozen=True)
class Lexicon:
    words: tuple[str, ...]  # in frequency-rank order
    classes: tuple[str, ...]  # "O" or one of CLASSES, per word
    probs: np.ndarray  # Zipf sampling probabilities, per word


def make_lexicon(rng: np.random.Generator, size: int, word_len: tuple[int, int]) -> Lexicon:
    """``size`` distinct lowercase words sampled by Zipf rank.

    A word's length is a fixed function of its rank, cycling through
    ``word_len`` (inclusive), so the frequent words are equally long
    under every seed. Past the function words, a word's class is a
    function of its last letter (``OUTSIDE_SHARE`` of the letters mean
    "O"), which a char model can pick up.
    """
    letters = np.array(list(string.ascii_lowercase))
    outside = set(rng.permutation(letters)[: round(OUTSIDE_SHARE * len(letters))])
    class_of = {
        c: "O" if c in outside else CLASSES[i % len(CLASSES)] for i, c in enumerate(letters)
    }
    span = word_len[1] - word_len[0] + 1
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        n = word_len[0] + (5 * len(words)) % span
        word = "".join(letters[rng.integers(0, len(letters), n)])
        if word not in seen:
            seen.add(word)
            words.append(word)
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    classes = tuple("O" if r < FUNCTION_WORDS else class_of[w[-1]] for r, w in enumerate(words))
    return Lexicon(tuple(words), classes, weights / weights.sum())


def sentence_lengths(rng: np.random.Generator, n: int, mean: float, bounds: tuple[int, int]):
    """``n`` lengths at evenly spaced quantiles of a log-normal with the
    given mean, clipped to ``bounds``, in a seeded order. The seed moves
    which sentence is long, not how many are: per-call latency
    percentiles stay comparable across seeds."""
    sigma = 0.5
    normal = statistics.NormalDist(np.log(mean) - sigma**2 / 2, sigma)
    raw = [round(float(np.exp(normal.inv_cdf((i + 0.5) / n)))) for i in range(n)]
    return np.clip(raw, bounds[0], bounds[1])[rng.permutation(n)]


def bio_labels(classes: list[str]) -> list[str]:
    out, prev = [], "O"
    for cls in classes:
        if cls == "O":
            out.append("O")
        else:
            out.append(("I-" if prev == cls else "B-") + cls)
        prev = cls
    return out


def segment_labels(tags: list[str]) -> list[str]:
    """The auxiliary task: BIO segmentation with one collapsed class."""
    return [t if t == "O" else t[0] + "-Arg" for t in tags]


def make_sentences(
    rng: np.random.Generator,
    lexicon: Lexicon,
    tokens: int,
    mean_len: float,
    bounds: tuple[int, int],
) -> list[list[tuple[str, str, str]]]:
    """About ``tokens`` tokens of (word, tag, seg) sentences."""
    sentences = []
    for length in sentence_lengths(rng, max(1, round(tokens / mean_len)), mean_len, bounds):
        ids = rng.choice(len(lexicon.words), size=int(length), p=lexicon.probs)
        tags = bio_labels([lexicon.classes[i] for i in ids])
        sentences.append(list(zip([lexicon.words[i] for i in ids], tags, segment_labels(tags))))
    return sentences


def write_conll(path: Path, sentences, columns: tuple[int, ...]) -> int:
    """Write the chosen columns of each triple; returns the token count."""
    blocks = ["\n".join("\t".join(tok[c] for c in columns) for tok in s) for s in sentences]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8", newline="\n")
    return sum(len(s) for s in sentences)


def write_embeddings(
    path: Path, rng: np.random.Generator, words, lexicon: Lexicon, dim: int, header: bool = False
) -> None:
    """Text embeddings, one word and ``dim`` floats per line. Lexicon
    words of a class are shifted along that class's own axis, as
    pre-trained vectors cluster by meaning."""
    vectors = rng.uniform(-0.5, 0.5, (len(words), dim))
    axis = {cls: i for i, cls in enumerate(("O", *CLASSES))}
    class_of = dict(zip(lexicon.words, lexicon.classes))
    lines = [f"{len(words)} {dim}"] if header else []
    for word, vec in zip(words, vectors):
        if word in class_of:
            vec[axis[class_of[word]] % dim] += 1.0
        lines.append(word + " " + " ".join(f"{v:.5f}" for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def embedding_vocab(rng: np.random.Generator, lexicon: Lexicon, extra: int, tag: str) -> list[str]:
    """A share ``EMBEDDING_COVERAGE`` of the lexicon plus ``extra`` words
    of its own (prefixed by ``tag``, so two files share only lexicon
    words), in a seeded order."""
    keep = [w for w in lexicon.words if rng.random() < EMBEDDING_COVERAGE]
    own = [f"{tag}{i}" for i in range(extra)]
    words = keep + own
    return [words[i] for i in rng.permutation(len(words))]
