"""Shared fixtures: synthetic corpora and small model builders."""

import errno
import hashlib
import zlib

import numpy as np
import pytest

from seqtag.checkpoint import load_model
from seqtag.corpus import Corpus, Vocabulary, build_char_index, build_label_index
from seqtag.config import CharConfig, DropoutConfig, NetworkConfig, TaskSpec
from seqtag.network import Model

# word -> BIO class; labels are a pure function of the surface so a
# small model can reach perfect training accuracy
ENTITY_WORDS = {
    "alpha": "X",
    "beta": "X",
    "gamma": "Y",
    "delta": "Y",
    "omega": "Z",
}
FILLER_WORDS = ["the", "a", "on", "it", "and"]


def synthetic_bio_corpus(n_sentences=50, seed=13, task="tag"):
    """Sentences of filler words and 1-3 token entity segments."""
    rng = np.random.default_rng(seed)
    entities = list(ENTITY_WORDS.keys())
    sentences, labels = [], []
    for _ in range(n_sentences):
        tokens = []  # (surface, label) pairs
        length = int(rng.integers(4, 9))
        while len(tokens) < length:
            if rng.random() < 0.45:
                word = entities[rng.integers(0, len(entities))]
                run = int(rng.integers(1, 3))
                cls = ENTITY_WORDS[word]
                for i in range(run):
                    prefix = "B" if i == 0 else "I"
                    tokens.append((word, f"{prefix}-{cls}"))
            else:
                word = FILLER_WORDS[rng.integers(0, len(FILLER_WORDS))]
                tokens.append((word, "O"))
        surfaces, sentence_labels = zip(*tokens[:length])
        sentences.append(surfaces)
        labels.append(sentence_labels)
    return Corpus(tuple(sentences), {task: tuple(labels)})


def random_word_corpus(n_words=240, seed=11, tasks=("tag", "seg")):
    """Sentences of six random words of 1-15 letters from the synthetic
    corpus's alphabet, gold "O" for every task: too many distinct words
    for one char BiLSTM pass (``network.CHAR_PASS_CHARS``)."""
    rng = np.random.default_rng(seed)
    letters = list("abdeghilmnopt")
    words = ["".join(rng.choice(letters, int(n))) for n in rng.integers(1, 16, n_words)]
    sentences = tuple(tuple(words[i : i + 6]) for i in range(0, n_words, 6))
    return Corpus(sentences, {task: tuple(("O",) * len(s) for s in sentences) for task in tasks})


def relabel(corpus, source_task, target_task, derive):
    """``corpus``'s sentences, labeled for ``target_task`` with ``derive``
    of each ``source_task`` label."""
    column = corpus.labels[source_task]
    return Corpus(corpus.sentences, {target_task: tuple(tuple(map(derive, s)) for s in column)})


def derive_acs_corpus(corpus, source_task="tag", target_task="seg"):
    """Collapse classes: B-*/I-* become B-Arg/I-Arg."""
    return relabel(
        corpus, source_task, target_task, lambda label: "O" if label == "O" else f"{label[0]}-Arg"
    )


def vocab_for(corpora, tasks):
    vocab = Vocabulary()
    for corpus in corpora:
        for surface in sorted(corpus.surfaces()):
            vocab.add_word(surface)
    vocab.char_index = build_char_index(corpora)
    for task, task_corpora in tasks.items():
        vocab.label_index[task] = build_label_index(task_corpora, task)
    return vocab


@pytest.fixture
def bio_corpus():
    return synthetic_bio_corpus()


def small_model(corpus, task="tag", seed=3, head="softmax", **config_kw):
    vocab = vocab_for([corpus], {task: [corpus]})
    defaults = dict(
        cell="lstm",
        shared_layers=[8],
        char=CharConfig(enabled=False),
        dropout=DropoutConfig(),
        tasks=[TaskSpec(name=task, labels=vocab.labels_of(task), head=head)],
        word_dim=8,
    )
    defaults.update(config_kw)
    config = NetworkConfig(**defaults)
    rng = np.random.default_rng(seed)
    return Model(config, vocab, rng), rng


def two_task_model(seed=0, **config_kw):
    """A CRF task "tag" on shared layer 2 and a softmax task "seg" on
    layer 1, over the synthetic corpus. Every tensor is drawn from
    N(0, 1), so the predicted labels vary from token to token."""
    tag = synthetic_bio_corpus(n_sentences=8, seed=seed)
    seg = derive_acs_corpus(tag)
    vocab = vocab_for([tag], {"tag": [tag], "seg": [seg]})
    defaults = dict(
        shared_layers=[6, 5],
        tasks=[
            TaskSpec(name="tag", labels=vocab.labels_of("tag"), termination_layer=2, head="crf"),
            TaskSpec(name="seg", labels=vocab.labels_of("seg"), termination_layer=1),
        ],
        word_dim=5,
    )
    defaults.update(config_kw)
    rng = np.random.default_rng(seed)
    model = Model(NetworkConfig(**defaults), vocab, rng)
    for tensor in model.params.values():
        tensor.data = rng.normal(size=tensor.data.shape)
    return model, tag


def write_half_then_fail(path, data):
    """A stand-in for ``Path.write_bytes`` that writes half of the data
    and then fails as a full disk would."""
    with open(path, "wb") as out:
        out.write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


class DiskFullFile:
    """A file opened for writing that takes ``writes`` writes and then
    fails as a full disk would."""

    def __init__(self, path, mode, writes=2):
        self._fh, self._left = open(path, mode), writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        if not self._left:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= 1
        return self._fh.write(data)


def tensor_digest(path) -> str:
    """The sha256 of a checkpoint's tensors as float64 bytes in registry
    order: a pin that a change of the file format leaves as it is."""
    digest = hashlib.sha256()
    for tensor in load_model(path).params.values():
        digest.update(np.ascontiguousarray(tensor.data, dtype="<f8"))
    return digest.hexdigest()


def reframe_checkpoint(path, edit):
    """Rewrite the checkpoint at ``path`` with the manifest that
    ``edit(manifest_bytes, values)`` returns, where ``values`` are the
    float64 values that ``edit`` may change in place, framed as
    ``save_model`` frames them and with a valid CRC, so that the damage
    reaches the checks behind the framing."""
    blob = path.read_bytes()
    length = int.from_bytes(blob[12:20], "little")
    values = np.frombuffer(blob[20 + length :], dtype="<f8").copy()
    manifest = edit(blob[20 : 20 + length], values)
    body = len(manifest).to_bytes(8, "little") + manifest + values.tobytes()
    path.write_bytes(blob[:8] + zlib.crc32(body).to_bytes(4, "little") + body)
