"""Model checkpoints.

One file: magic bytes "SQTG", a little-endian u32 format version, a
u64-length-prefixed JSON manifest (configuration echo, vocabularies,
and a tensor registry of name/shape/byte offset), then the payload of
raw little-endian IEEE-754 float64 values per tensor in registry
order. Round trips are bit-exact, so a loaded model reproduces
predictions exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from seqtag.corpus import Vocabulary, read_bytes
from seqtag.exceptions import ConfigError, DataError
from seqtag.files import write_atomic
from seqtag.network import Model, NetworkConfig

MAGIC = b"SQTG"
VERSION = 1


class CheckpointError(DataError):
    pass


def save_model(model: Model, path: str | Path) -> None:
    registry = []
    payload = bytearray()
    for name, tensor in model.params.items():
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        registry.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(arr.tobytes())
    manifest = {
        "config": model.config.to_json(),
        "vocab": model.vocab.to_json(),
        "tensors": registry,
        "payload_bytes": len(payload),
    }
    blob = json.dumps(manifest).encode("utf-8")
    write_atomic(path, b"".join((MAGIC, struct.pack("<IQ", VERSION, len(blob)), blob, payload)))


def load_model(path: str | Path) -> Model:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    blob = read_bytes(path)
    if blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    if len(blob) < 16:
        raise CheckpointError(f"truncated checkpoint: {path}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    manifest_end = 16 + manifest_len
    if len(blob) < manifest_end:
        raise CheckpointError(f"truncated checkpoint manifest: {path}")
    try:
        manifest = json.loads(blob[16:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: {err}") from err
    _check_manifest(manifest, path)
    payload = blob[manifest_end:]
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError(
            f"payload length {len(payload)} disagrees with manifest "
            f"({manifest['payload_bytes']} bytes declared)"
        )

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
    model = Model(config, vocab, None)  # no draws: every tensor is read below

    declared = {entry["name"] for entry in manifest["tensors"]}
    built = set(model.params.keys())
    if declared != built:
        missing = sorted(built - declared)
        extra = sorted(declared - built)
        raise CheckpointError(
            f"tensor registry disagrees with the configuration "
            f"(missing: {missing}, unexpected: {extra})"
        )
    for entry in manifest["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        tensor = model.params[name]
        if tensor.data.shape != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {shape} in the checkpoint "
                f"but {tensor.data.shape} in the configuration"
            )
        start = entry["offset"]
        end = start + 8 * tensor.data.size
        if end > len(payload):
            raise CheckpointError(f"tensor {name!r} exceeds the payload")
        data = np.frombuffer(payload[start:end], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        tensor.data = data
    return model


def _check_manifest(manifest, path: Path) -> None:
    """Reject a manifest whose top-level layout is not the one save_model writes."""

    def fail(what: str):
        raise CheckpointError(f"corrupt checkpoint manifest in {path}: {what}")

    if not isinstance(manifest, dict):
        fail("not a JSON object")
    for key, kind in (("config", dict), ("vocab", dict), ("tensors", list), ("payload_bytes", int)):
        if key not in manifest:
            fail(f"missing key {key!r}")
        if not isinstance(manifest[key], kind) or isinstance(manifest[key], bool):
            fail(f"{key!r} is not a {kind.__name__}")
    for entry in manifest["tensors"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and type(entry.get("offset")) is int
            and entry["offset"] >= 0
        ):
            fail(f"malformed tensor entry {entry!r}")
