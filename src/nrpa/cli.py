"""Command-line surface: prepare, train, eval, ablate, sweep, inspect.

Exit codes are a stable scripting contract: 0 success, 2 usage/input error,
3 runtime or numeric failure, running out of memory included. All randomness
flows from the seed in the config or the --seed flag; no command reads
ambient entropy.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, checkpoint, evaluation, training
from .data import (ProfileStore, build_profiles, load_prepared, parse_reviews,
                   prepare_dataset, save_prepared)
from .model import AblationSpec, Dims, forward, param_count
from .training import TrainConfig, TrainingDiverged


class UsageError(Exception):
    """Input/config problems; reported on stderr with exit code 2."""


def load_config(path) -> TrainConfig:
    """Flat `key = value` config file in UTF-8, with a leading byte-order mark
    dropped; unknown and repeated keys are hard errors."""
    known = {f.name: f for f in dataclasses.fields(TrainConfig)}
    seen = {}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: config key {key!r} given twice, "
                             f"on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        ftype = known[key].type
        try:
            if ftype is bool:
                if raw.lower() in ("true", "yes", "1"):
                    value = True
                elif raw.lower() in ("false", "no", "0"):
                    value = False
                else:
                    raise ValueError(f"not a boolean: {raw!r}")
            elif ftype is int:
                value = int(raw)
            elif ftype is float:
                value = float(raw)
            else:
                value = raw
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        values[key] = value
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# files are hashed in blocks of this many bytes, so memory stays flat
_FINGERPRINT_BLOCK = 1 << 20


def _fingerprint(data_dir) -> str:
    """sha256 over each file's name and bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(data_dir).iterdir()):
        if p.is_file():
            h.update(p.name.encode("utf-8"))
            with open(p, "rb") as fh:
                while block := fh.read(_FINGERPRINT_BLOCK):
                    h.update(block)
    return h.hexdigest()


def _load_dataset(data_dir, splits=()):
    """The prepared dataset at data_dir, whose split.json must leave each of
    the named splits non-empty."""
    try:
        ds = load_prepared(data_dir)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load prepared dataset at {data_dir}: {exc}") from exc
    for name in splits:
        if not getattr(ds.split, name):
            raise UsageError(f"{Path(data_dir) / 'split.json'}: the {name} split is empty")
    return ds


def _check_memory(where, dims: Dims, param_buffers: int = 1):
    """Rejects dims whose param_buffers parameter-sized buffers (one to
    evaluate a checkpoint, training.PARAM_BUFFERS to train) or profile stores
    alone exceed physical memory, before anything is allocated. Sizes are
    Python ints; the message names the dim that sizes them most, the one
    whose reduction to 1 shrinks them most."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    what_params = "parameters" if param_buffers == 1 else \
        f"{param_buffers} parameter-sized training buffers"
    for what, nbytes in ((what_params, lambda d: param_buffers * 8 * param_count(d)),
                         ("profile stores", lambda d: ProfileStore.nbytes(
                             d.n_users + d.n_items, d.num_reviews, d.review_len))):
        size = nbytes(dims)
        if size > physical:
            key = min((f.name for f in dataclasses.fields(Dims)),
                      key=lambda name: nbytes(dataclasses.replace(dims, **{name: 1})))
            raise UsageError(f"{where}: {key} = {getattr(dims, key)} makes the {what} "
                             f"{size:,} bytes, more than the {physical:,} bytes of "
                             f"physical memory")


def _profiles(ds, args, dims: Dims, where, param_buffers: int = 1, id_dims=None):
    """Profile stores of ds for a model at dims, which come from the config or
    the checkpoint named where. The model must have ds's vocabulary and
    owners, profiles no longer than the stored reviews, and param_buffers
    parameter-sized buffers (at each of sweep's id_dims, if given) and the
    stores small enough for physical memory."""
    got = (dims.vocab_size, dims.n_users, dims.n_items)
    want = (len(ds.vocab), ds.n_users, ds.n_items)
    if got != want:
        raise UsageError(f"checkpoint dims {got} do not match dataset dims {want} "
                         f"(vocab, users, items)")
    if dims.review_len > ds.review_len:
        raise UsageError(f"{where}: review_len {dims.review_len} exceeds the "
                         f"prepared review_len {ds.review_len} of {args.data}")
    if id_dims is not None:
        where = f"{where} with --dims {args.dims}"
    for id_dim in id_dims or (dims.id_dim,):
        _check_memory(where, dataclasses.replace(dims, id_dim=id_dim), param_buffers)
    return build_profiles(ds.split.train, dims.review_len, dims.num_reviews,
                          ds.n_users, ds.n_items)


def _load_checkpoint(args, ds):
    """(params, exclude_target, profile stores) of args.checkpoint on ds."""
    try:
        params, meta = checkpoint.load_params(args.checkpoint)
    except (OSError, checkpoint.CheckpointError) as exc:
        raise UsageError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    stores = _profiles(ds, args, params.dims, args.checkpoint)
    return params, meta.get("config", {}).get("exclude_target", True), stores


def parse_ablation(spec: str) -> AblationSpec:
    """Comma list of user|item|word|review=uniform (or =personalized)."""
    sites = {"user": "user_attention", "item": "item_attention",
             "word": "word_level", "review": "review_level"}
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, mode = part.partition("=")
        if key not in sites or mode not in ("uniform", "personalized"):
            raise UsageError(f"bad ablation term {part!r}; "
                             f"expected user|item|word|review=uniform")
        kwargs[sites[key]] = mode
    return AblationSpec(**kwargs)


def _make_out_dir(path):
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc}") from exc


def _check_out_file(path):
    """Rejects, before any work is done, an output file path that is a
    directory, whose directory does not exist, or that the OS cannot stat."""
    try:
        writable = path is None or (not Path(path).is_dir() and Path(path).parent.is_dir())
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    if not writable:
        raise UsageError(f"cannot write {path}: it is a directory or its directory "
                         f"does not exist")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_prepare(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            records, skipped = parse_reviews(fh, args.format)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read input {args.input}: {exc}") from exc
    if len(records) < 10:
        raise UsageError(f"only {len(records)} usable records in {args.input}; need >= 10")
    _make_out_dir(args.out)
    ds = prepare_dataset(records, args.seed, args.min_count)
    save_prepared(ds, args.out)
    stats = ds.stats()
    print(f"skipped lines: {skipped}")
    print("users items ratings density")
    print(f"{stats['users']:,} {stats['items']:,} {stats['ratings']:,} "
          f"{stats['density']:.3f}")
    print(f"split sizes: {len(ds.split.train)}/{len(ds.split.validation)}/"
          f"{len(ds.split.test)} (seed {ds.split.seed})")
    print(f"vocabulary: {len(ds.vocab)} entries")
    return 0


def _config_profiles(args, splits, id_dims=None):
    """(config, dataset, profile stores) for train, ablate and sweep, which
    need the named splits non-empty and training.PARAM_BUFFERS buffers."""
    cfg = load_config(args.config)
    ds = _load_dataset(args.data, splits)
    stores = _profiles(ds, args, cfg.dims(len(ds.vocab), ds.n_users, ds.n_items),
                       args.config, training.PARAM_BUFFERS, id_dims)
    return cfg, ds, stores


def _train_and_score(ds, stores, variants, split, out, header, line):
    """Trains each (label, config, ablation) variant and scores its best
    parameters on split under its ablation; writes header and one
    `label,score` row per variant to out, then prints line.format(label,
    score) per variant."""
    rows = []
    for label, cfg, ablation in variants:
        params, _ = training.train(cfg, ds, stores, ablation)
        rows.append((label, evaluation.evaluate(params, split, stores, ablation,
                                                exclude_target=cfg.exclude_target)))
    _write_csv(out, header, rows)
    for row in rows:
        print(line.format(*row))


def cmd_train(args) -> int:
    cfg, ds, stores = _config_profiles(args, ("train", "validation"))
    out = Path(args.out)
    _make_out_dir(out)
    started = time.time()
    params, history = training.train(cfg, ds, stores)

    ckpt_path = out / "checkpoint.nrpa"
    checkpoint.save_params(params, ckpt_path, {"config": dataclasses.asdict(cfg)})
    _write_csv(out / "history.csv", ("epoch", "train_loss", "val_mse"),
               map(dataclasses.astuple, history))
    manifest = {
        "config": dataclasses.asdict(cfg),
        "dataset_fingerprint": _fingerprint(args.data),
        "seed": cfg.seed,
        "blas_threads": BLAS_THREADS,
        "checkpoint": str(ckpt_path),
        "metrics": {"history": str(out / "history.csv")},
        "started_at": started,
        "finished_at": time.time(),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    best = min(history, key=lambda r: r.val_mse)
    print(f"trained {len(history)} epochs; best val_mse={best.val_mse!r} "
          f"at epoch {best.epoch}")
    return 0


def cmd_eval(args) -> int:
    out_csv = args.out or str(Path(args.checkpoint).parent / f"eval_{args.split}.csv")
    _check_out_file(out_csv)
    _check_out_file(args.trace)
    split_name = "validation" if args.split == "val" else "test"
    ds = _load_dataset(args.data, (split_name,))
    params, exclude, stores = _load_checkpoint(args, ds)
    ablation = parse_ablation(args.ablation) if args.ablation else AblationSpec()

    with (open(args.trace, "w", encoding="utf-8") if args.trace
          else nullcontext()) as sink:
        score = evaluation.evaluate(params, getattr(ds.split, split_name), stores,
                                    ablation, exclude_target=exclude, clip=args.clip,
                                    trace_sink=sink)
    print(f"mse={score!r}")
    _write_csv(out_csv, ("split", "ablation", "mse"),
               [(args.split, args.ablation or "none", score)])
    return 0


def cmd_ablate(args) -> int:
    _check_out_file(args.out)
    cfg, ds, stores = _config_profiles(args, ("train", "validation", "test"))
    variants = [(name, cfg, ablation) for name, ablation in evaluation.ABLATION_VARIANTS]
    _train_and_score(ds, stores, variants, ds.split.test, args.out, ("variant", "mse"),
                     "{}: mse={!r}")
    return 0


def cmd_sweep(args) -> int:
    try:
        dims = [int(x) for x in args.dims.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --dims list {args.dims!r}: {exc}") from exc
    if not dims:
        raise UsageError("--dims list is empty")
    if min(dims) < 1:
        raise UsageError(f"bad --dims list {args.dims!r}: id_dim must be >= 1, "
                         f"got {min(dims)}")
    _check_out_file(args.out)
    cfg, ds, stores = _config_profiles(args, ("train", "validation"), dims)
    # scored again on validation, the best parameters give min(history.val_mse)
    variants = [(d, dataclasses.replace(cfg, id_dim=d), AblationSpec()) for d in dims]
    _train_and_score(ds, stores, variants, ds.split.validation, args.out,
                     ("d_id", "val_mse"), "d_id={}: val_mse={!r}")
    return 0


def _owner_index(keys, key, side) -> int:
    """key's index in keys, a users.tsv or items.tsv list; index 0 is
    reserved, so a key is looked up from index 1."""
    try:
        return keys.index(key, 1)
    except ValueError:
        raise UsageError(f"unknown {side} {key!r}") from None


def cmd_inspect(args) -> int:
    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    ds = _load_dataset(args.data)
    params, exclude, stores = _load_checkpoint(args, ds)
    user = _owner_index(ds.user_keys, args.user, "user")
    item = _owner_index(ds.item_keys, args.item, "item")
    rating, u_cache, i_cache = forward(user, item, stores[0], stores[1], params,
                                       exclude_target=exclude)
    print(f"prediction: {rating!r}")

    for side, store, owner, cache in (("user", stores[0], user, u_cache),
                                      ("item", stores[1], item, i_cache)):
        alpha, beta = cache.alpha[0], cache.beta[0]
        keys = ds.item_keys if side == "user" else ds.user_keys
        print(f"{side} reviews by weight:")
        order = np.argsort(-beta)
        for j in order:
            if beta[j] == 0.0:
                continue
            partner = keys[store.partner[owner, j]]
            toks = store.tokens[owner, j]
            weights = alpha[j]
            top = np.argsort(-weights)[:args.top]
            words = " ".join(
                f"{ds.vocab.id_to_token[toks[w]]}:{weights[w]:.3f}"
                for w in top if weights[w] > 0)
            print(f"  review[{j}] beta={beta[j]:.4f} about={partner}: {words}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nrpa",
                                description="review-based rating prediction with "
                                            "personalized hierarchical attention")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="tokenize, split and index a raw corpus")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", required=True, choices=["amazon-json", "csv"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--min-count", type=int, default=1, dest="min_count")
    sp.set_defaults(func=cmd_prepare)

    sp = sub.add_parser("train", help="train on a prepared dataset")
    sp.add_argument("--data", required=True)
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on a split")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", required=True, choices=["val", "test"])
    sp.add_argument("--ablation", default=None)
    sp.add_argument("--clip", action="store_true")
    sp.add_argument("--out", default=None)
    sp.add_argument("--trace", default=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="train and score every attention variant")
    sp.add_argument("--data", required=True)
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("sweep", help="id-embedding dimension sweep")
    sp.add_argument("--data", required=True)
    sp.add_argument("--config", required=True)
    sp.add_argument("--dims", default="8,16,32,64,128")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("inspect", help="show attention weights for one pair")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--user", required=True)
    sp.add_argument("--item", required=True)
    sp.add_argument("--top", type=int, default=5)
    sp.set_defaults(func=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
