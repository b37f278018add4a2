"""Binary checkpoint format, byte-exact across save/load round trips.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic   b"NRPA"
    version u32 (currently 1)
    dims    11 x u32: vocab_size, n_users, n_items, word_dim, id_dim,
            num_filters, attn_dim, window, fm_dim, review_len, num_reviews
    meta    u32 byte length + UTF-8 JSON (activation plus run metadata)
    tensors row-major f64 payloads in model.param_layout order: the
            parameter buffer ModelParams.flat, written whole
"""

import dataclasses
import json
import os
import struct

import numpy as np

from .model import ACTIVATIONS, Dims, ModelParams, param_count

MAGIC = b"NRPA"
VERSION = 1

_DIM_FIELDS = tuple(f.name for f in dataclasses.fields(Dims))


# magic, version, the dims, metadata length
_HEADER = struct.Struct(f"<4sI{len(_DIM_FIELDS)}II")


class CheckpointError(ValueError):
    pass


def save_params(params: ModelParams, path, metadata: dict | None = None) -> None:
    meta = dict(metadata or {})
    meta["conv_activation"] = params.conv_activation
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, *(getattr(params.dims, f) for f in _DIM_FIELDS),
                              len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(params.flat.astype("<f8", copy=False).data)


def load_params(path):
    """Returns (ModelParams, metadata dict).

    The header, the file length it implies and the metadata are checked
    before the payload is read, so a truncated, padded or corrupted file
    raises CheckpointError naming it instead of allocating from bogus dims.
    A metadata "config" that is not an object, or whose exclude_target is
    not a boolean, is rejected, and so is a header dim that contradicts the
    same field of it; the tensor payload carries no checksum.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != MAGIC:
            raise CheckpointError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header, {len(head)} of "
                                  f"{_HEADER.size} bytes")
        _, version, *dim_values, meta_len = _HEADER.unpack(head)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            dims = Dims(*dim_values)
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad header dims: {exc}") from exc
        size = param_count(dims)
        expected = _HEADER.size + meta_len + 8 * size
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            raise CheckpointError(f"{path}: truncated, header implies {expected} bytes, "
                                  f"file has {actual}")
        if actual > expected:
            raise CheckpointError(f"{path}: {actual - expected} trailing bytes")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        # review_len and num_reviews size no tensor, so the file length cannot
        # catch a flip in them; the training config saved beside them can
        config = meta.get("config", {})
        if not isinstance(config, dict):
            raise CheckpointError(f"{path}: metadata config is not a JSON object")
        if not isinstance(config.get("exclude_target", True), bool):
            raise CheckpointError(f"{path}: metadata config's exclude_target "
                                  f"{config['exclude_target']!r} is not a boolean")
        for field in _DIM_FIELDS:
            if field in config and config[field] != getattr(dims, field):
                raise CheckpointError(f"{path}: header {field} "
                                      f"{getattr(dims, field)} disagrees with the "
                                      f"metadata config's {config[field]!r}")
        activation = meta.get("conv_activation", "relu")
        if activation not in ACTIVATIONS:
            raise CheckpointError(f"{path}: unknown conv_activation {activation!r}")

        flat = np.empty(size, dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:
            raise CheckpointError(f"{path}: truncated while reading the tensors")
    return ModelParams(dims, flat.astype(np.float64, copy=False), activation), meta
