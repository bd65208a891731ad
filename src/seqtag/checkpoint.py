"""Model checkpoints.

One more file of the framing that ``seqtag.files`` gives every binary
file: magic "SQTG", version 2, a CRC-32, the JSON manifest as its
header (configuration echo, vocabularies, and a tensor registry of
names and shapes), then each tensor's float64 values in registry order
up to the end of the file. Round trips are bit-exact. Version 1 files,
which have no CRC and whose registry also gives byte offsets, still load.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from seqtag.corpus import Vocabulary
from seqtag.exceptions import ConfigError, DataError
from seqtag.files import read_body, read_cache, write_cache
from seqtag.network import Model, NetworkConfig

MAGIC = b"SQTG"
VERSION = 2


class CheckpointError(DataError):
    pass


def save_model(model: Model, path: str | Path) -> None:
    manifest = {
        "config": model.config.to_json(),
        "vocab": model.vocab.to_json(),
        "tensors": [{"name": n, "shape": list(t.data.shape)} for n, t in model.params.items()],
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
    sizes = _check_manifest(manifest, version, path)
    if sum(sizes) != values.size:
        raise CheckpointError(f"checkpoint {path} has {values.size} values, not {sum(sizes)}")

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

    declared, built = {entry["name"] for entry in manifest["tensors"]}, set(model.params)
    if declared != built:
        raise CheckpointError(
            f"tensor registry disagrees with the configuration "
            f"(missing: {sorted(built - declared)}, unexpected: {sorted(declared - built)})"
        )
    ends = np.cumsum(sizes)
    for entry, end, size in zip(manifest["tensors"], ends, sizes):
        name, shape = entry["name"], tuple(entry["shape"])
        tensor = model.params[name]
        if tensor.data.shape != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape} in the checkpoint "
                f"but {tensor.data.shape} in the configuration"
            )
        tensor.data = values[end - size : end].reshape(shape)  # a view, not a copy
    finite = np.isfinite(values)
    if not finite.all():
        name = manifest["tensors"][np.searchsorted(ends, np.argmin(finite), side="right")]["name"]
        raise CheckpointError(f"tensor {name!r} holds non-finite values")
    return model


def _read(path: Path) -> tuple[int, object, np.ndarray]:
    """The format version, the manifest and the float64 values."""
    with open(path, "rb") as fh:
        if fh.read(8) == MAGIC + (1).to_bytes(4, "little"):
            return 1, *read_body(fh, path, "checkpoint", None)
    return VERSION, *read_cache(path, MAGIC, VERSION, "checkpoint")


def _check_manifest(manifest, version: int, path: Path) -> list[int]:
    """The number of values of each registry entry. A manifest whose
    layout is not the one the writer of ``version`` produced raises."""

    def fail(what: str):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: {what}")

    keys = {"config": dict, "vocab": dict, "tensors": list}
    fields = {"name", "shape"}
    if version == 1:
        keys["payload_bytes"], fields = int, fields | {"offset"}
    if not isinstance(manifest, dict):
        fail("not a JSON object")
    for key, kind in keys.items():
        if key not in manifest:
            fail(f"missing key {key!r}")
        if not isinstance(manifest[key], kind) or isinstance(manifest[key], bool):
            fail(f"{key!r} is not a {kind.__name__}")
    for key in sorted(manifest.keys() - keys.keys()):
        fail(f"unexpected key {key!r}")
    sizes, offset = [], 0  # version 1 wrote the tensors back to back
    for entry in manifest["tensors"]:
        if not (
            isinstance(entry, dict)
            and entry.keys() == fields
            and isinstance(entry["name"], str)
            and isinstance(entry["shape"], list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and entry.get("offset", offset) == offset
        ):
            fail(f"malformed tensor entry {entry!r}")
        sizes.append(math.prod(entry["shape"]))
        offset += 8 * sizes[-1]
    return sizes
