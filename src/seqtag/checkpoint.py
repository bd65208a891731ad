"""Model checkpoints.

One more file of the framing that ``seqtag.files`` gives every binary
file: magic "SQTG", version 2, a CRC-32, the JSON manifest as its
header (configuration echo, vocabularies, and a tensor registry of
names and shapes), then each tensor's float64 values in registry order
up to the end of the file. Round trips are bit-exact. Version 1 files,
which have no CRC and whose registry also gives byte offsets, still load.
A file loads only when its registry is the one ``registry`` gives for
the model its configuration echo builds.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from seqtag.config import NetworkConfig
from seqtag.corpus import Vocabulary
from seqtag.exceptions import ConfigError, DataError
from seqtag.files import read_body, read_cache, write_cache
from seqtag.network import Model

MAGIC = b"SQTG"
VERSION = 2


class CheckpointError(DataError):
    pass


def registry(model: Model, version: int = VERSION) -> list[dict]:
    """The tensor registry of ``model`` as the writer of ``version`` lays
    it out: each tensor's name and shape in registry order, and for
    version 1 its byte offset, the tensors back to back."""
    entries, offset = [], 0
    for name, tensor in model.params.items():
        entries.append({"name": name, "shape": list(tensor.data.shape)})
        if version == 1:
            entries[-1]["offset"] = offset
            offset += 8 * tensor.data.size
    return entries


def save_model(model: Model, path: str | Path) -> None:
    manifest = {
        "config": model.config.to_json(),
        "vocab": model.vocab.to_json(),
        "tensors": registry(model),
    }
    values = np.concatenate([t.data.ravel() for t in model.params.values()], dtype="<f8")
    write_cache(Path(path), MAGIC, VERSION, manifest, values)


def load_model(path: str | Path) -> Model:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        version, manifest, values = _read(path)
    except DataError as err:
        raise CheckpointError(str(err)) from err
    except OSError as err:
        raise CheckpointError(f"cannot read {path}: {err.strerror or err}") from err
    _check_manifest(manifest, version, path)
    try:
        config = NetworkConfig.from_json(manifest["config"])
        vocab = Vocabulary.from_json(manifest["vocab"])
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as err:
        raise CheckpointError(
            f"corrupt checkpoint manifest in {path}: bad config or vocabulary ({err!r})"
        ) from err
    except DataError as err:  # the vocabulary's own checks
        raise CheckpointError(str(err)) from err
    if sorted(vocab.label_index) != sorted(t.name for t in config.tasks) or any(
        t.labels != vocab.labels_of(t.name) for t in config.tasks
    ):
        raise CheckpointError(
            f"corrupt checkpoint manifest in {path}: the label maps disagree with the tasks"
        )
    try:
        model = Model(config, vocab, None)  # no draws: every tensor is read below
    except ConfigError as err:
        raise CheckpointError(f"checkpoint {path}: {err}") from err

    for found, built in itertools.zip_longest(manifest["tensors"], registry(model, version)):
        if found != built:
            raise CheckpointError(
                f"corrupt checkpoint manifest in {path}: malformed tensor entry {found!r} "
                f"(the configuration has {built!r})"
            )
    sizes = [tensor.data.size for tensor in model.params.values()]
    if sum(sizes) != values.size:
        raise CheckpointError(f"checkpoint {path} has {values.size} values, not {sum(sizes)}")
    ends = np.cumsum(sizes)
    for tensor, end, size in zip(model.params.values(), ends, sizes):
        tensor.data = values[end - size : end].reshape(tensor.data.shape)  # a view, not a copy
    finite = np.isfinite(values)
    if not finite.all():
        name = list(model.params)[np.searchsorted(ends, np.argmin(finite), side="right")]
        raise CheckpointError(f"tensor {name!r} holds non-finite values")
    return model


def _read(path: Path) -> tuple[int, object, np.ndarray]:
    """The format version, the manifest and the float64 values."""
    with open(path, "rb") as fh:
        if fh.read(8) == MAGIC + (1).to_bytes(4, "little"):
            return 1, *read_body(fh, path, "checkpoint", None)
    return VERSION, *read_cache(path, MAGIC, VERSION, "checkpoint")


def _check_manifest(manifest, version: int, path: Path) -> None:
    """Raise unless the manifest has the keys, each of its type, that the
    writer of ``version`` produced; ``load_model`` checks the registry."""

    def fail(what: str):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: {what}")

    keys = {"config": dict, "vocab": dict, "tensors": list}
    if version == 1:
        keys["payload_bytes"] = int
    if not isinstance(manifest, dict):
        fail("not a JSON object")
    for key, kind in keys.items():
        if key not in manifest:
            fail(f"missing key {key!r}")
        if not isinstance(manifest[key], kind) or isinstance(manifest[key], bool):
            fail(f"{key!r} is not a {kind.__name__}")
    for key in sorted(manifest.keys() - keys.keys()):
        fail(f"unexpected key {key!r}")
