"""Binary checkpoint format, byte-exact across save/load round trips.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic   b"NRPA"
    version u32 (currently 1)
    dims    11 x u32: vocab_size, n_users, n_items, word_dim, id_dim,
            num_filters, attn_dim, window, fm_dim, review_len, num_reviews
    meta    u32 byte length + UTF-8 JSON (activation plus run metadata)
    tensors row-major f64 payloads in ModelParams.tensors() order
"""

import json
import math
import struct

import numpy as np

from .model import Dims, FMParams, ModelParams, SideParams

MAGIC = b"NRPA"
VERSION = 1

_DIM_FIELDS = ("vocab_size", "n_users", "n_items", "word_dim", "id_dim",
               "num_filters", "attn_dim", "window", "fm_dim", "review_len",
               "num_reviews")


# magic, version, the dims, metadata length
_HEADER = struct.Struct("<4sI11II")


class CheckpointError(ValueError):
    pass


def _tensor_shapes(d: Dims):
    taps = d.window * d.word_dim
    side = [
        ("conv_w", (d.num_filters, taps)),
        ("conv_b", (d.num_filters,)),
        ("word_query_w", (d.attn_dim, d.id_dim)),
        ("word_query_b", (d.attn_dim,)),
        ("word_attn", (d.attn_dim, d.num_filters)),
        ("review_query_w", (d.attn_dim, d.id_dim)),
        ("review_query_b", (d.attn_dim,)),
        ("review_attn", (d.attn_dim, d.num_filters)),
    ]
    shapes = [
        ("word_emb", (d.vocab_size, d.word_dim)),
        ("user_id_emb", (d.n_users, d.id_dim)),
        ("item_id_emb", (d.n_items, d.id_dim)),
    ]
    shapes += [(f"user.{n}", s) for n, s in side]
    shapes += [(f"item.{n}", s) for n, s in side]
    shapes += [("fm.bias", ()), ("fm.linear", (2 * d.num_filters,)),
               ("fm.factors", (2 * d.num_filters, d.fm_dim))]
    return shapes


def save_params(params: ModelParams, path, metadata: dict | None = None) -> None:
    meta = dict(metadata or {})
    meta["conv_activation"] = params.conv_activation
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, *(getattr(params.dims, f) for f in _DIM_FIELDS),
                              len(meta_bytes)))
        fh.write(meta_bytes)
        for _, arr in params.tensors():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path):
    """Returns (ModelParams, metadata dict).

    The file length implied by the header is checked before any tensor is
    read, so a truncated, padded or corrupted file raises CheckpointError
    naming it instead of allocating from bogus dims.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header, {len(blob)} of "
                              f"{_HEADER.size} bytes")
    _, version, *dim_values, meta_len = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    dims = Dims(*dim_values)
    try:
        dims.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header dims: {exc}") from exc
    shapes = _tensor_shapes(dims)
    offset = _HEADER.size + meta_len
    expected = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(blob) < expected:
        raise CheckpointError(f"{path}: truncated, header implies {expected} bytes, "
                              f"file has {len(blob)}")
    if len(blob) > expected:
        raise CheckpointError(f"{path}: {len(blob) - expected} trailing bytes")
    try:
        meta = json.loads(blob[_HEADER.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    activation = meta.get("conv_activation", "relu")
    if activation not in ("relu", "tanh"):
        raise CheckpointError(f"{path}: unknown conv_activation {activation!r}")

    tensors = {}
    for name, shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).copy()
        offset += count * 8

    def side(tag):
        return SideParams(**{n: tensors[f"{tag}.{n}"] for n in (
            "conv_w", "conv_b", "word_query_w", "word_query_b", "word_attn",
            "review_query_w", "review_query_b", "review_attn")})

    params = ModelParams(
        dims=dims,
        word_emb=tensors["word_emb"],
        user_id_emb=tensors["user_id_emb"],
        item_id_emb=tensors["item_id_emb"],
        user=side("user"),
        item=side("item"),
        fm=FMParams(tensors["fm.bias"], tensors["fm.linear"], tensors["fm.factors"]),
        conv_activation=activation,
    )
    return params, meta
