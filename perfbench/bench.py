"""One benchmark run of one workload: the path a user of `nrpa` runs.

1. generate the workload's corpus as a CSV (untimed);
2. prepare: `parse_reviews` -> `prepare_dataset` -> `save_prepared`, the
   `nrpa prepare` path;
3. set-up: `load_prepared` -> `build_profiles` -> `init_params` ->
   `AdamState.for_params`, what `nrpa train` pays before its first batch;
4. train: `backward` + `adam_step` over batches in seeded shuffle order, as
   `training.train` does; `fixed_steps` steps come before val_mse is taken;
5. eval: `evaluate` on a fixed slice of the validation split;
6. checkpoint: `save_params` + `load_params` round trips.

A first untimed pass runs each phase once and checks the outputs; every
check counts as one operation. Then the phases repeat, interleaved by their
share of `--seconds`, until the time is up and each has its minimum number
of repetitions (see `run`). Every timing is the sum of the fastest time
of each of its stages (see `best`).

With --trace 1 the same run records spans around the calls into each
module's public functions and reports per-layer metrics instead. Timed
training steps then alternate between traced and untraced, so the tracing
overhead is measured inside one process under the same conditions.
"""

import argparse
import csv
import dataclasses
import io
import json
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from nrpa import checkpoint, data, evaluation, model, training
from nrpa.cli import load_config
from nrpa.rng import SplitMix64

from corpus import generate_csv
from envinfo import environment
from spans import TimedStore, Tracer, totals_by_root
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SHARES = {"prepare": 0.35, "setup": 0.15, "train": 0.3, "eval": 0.12, "checkpoint": 0.08}
# timed repetitions each phase gets at least; two training steps give a
# traced run one traced and one untraced step. On `wide-vocab` the first
# pass takes most of `--seconds`, so these counts set how many repetitions
# the fastest times are taken from.
MIN_REPS = {"prepare": 7, "setup": 4, "train": 2, "eval": 20, "checkpoint": 8}
AGREEMENT_RTOL = 1e-10   # evaluate vs predict_batch MSE, relative
PROBE_PAIRS = 32         # pairs scored to compare a loaded checkpoint

END_TO_END_UNITS = {
    "setup_s": "s",
    "prepare_records_per_s": "records/s",
    "train_pairs_per_s": "pairs/s",
    "eval_pairs_per_s": "pairs/s",
    "checkpoint_s": "s",
    "peak_rss_mb": "MB",
    "val_mse": "rating_sq",
}

# per-layer metric -> unit; times are per training step, per scored pair or
# per call, as README.md lists
PER_LAYER_UNITS = {
    "data.parse_s": "s", "data.prepare_dataset_s": "s", "data.save_prepared_s": "s",
    "data.load_prepared_s": "s", "data.build_profiles_s": "s",
    "data.gather_s": "s", "data.gather_calls": "count",
    "data.gather_s.eval": "s", "data.gather_calls.eval": "count",
    "model.init_params_s": "s",
    "model.encode_side_s.user": "s", "model.encode_side_s.item": "s",
    "model.predict_batch_self_s": "s",
    "model.forward_s": "s", "model.forward_calls": "count",
    "training.backward_self_s": "s", "training.adam_step_s": "s",
    "training.adam_init_s": "s",
    "evaluation.evaluate_self_s": "s",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s",
    "model.real_token_ratio.user": "ratio", "model.real_token_ratio.item": "ratio",
    "model.real_review_ratio.user": "ratio", "model.real_review_ratio.item": "ratio",
    "model.rows_per_vocab": "ratio", "training.touched_vocab_ratio": "ratio",
    "training.param_mb": "MB",
    "trace.overhead_ratio": "ratio", "trace.step_accounted_ratio": "ratio",
}

# root span name -> per-layer metric, for calls timed once per repetition
PER_CALL = {
    "data.parse": "data.parse_s", "data.prepare_dataset": "data.prepare_dataset_s",
    "data.save_prepared": "data.save_prepared_s", "data.load_prepared": "data.load_prepared_s",
    "data.build_profiles": "data.build_profiles_s", "model.init_params": "model.init_params_s",
    "training.adam_init": "training.adam_init_s", "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s",
}
# span name -> per-layer metric, self time per training step
PER_STEP = {
    "data.gather": "data.gather_s", "model.encode_side.user": "model.encode_side_s.user",
    "model.encode_side.item": "model.encode_side_s.item",
    "model.predict_batch": "model.predict_batch_self_s",
    "training.backward": "training.backward_self_s", "training.adam_step": "training.adam_step_s",
}
# span name -> per-layer metric, self time per scored pair
PER_PAIR = {
    "model.forward": "model.forward_s", "evaluation.evaluate": "evaluation.evaluate_self_s",
    "data.gather": "data.gather_s.eval",
}


class Checks:
    """Output checks; each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def best(samples: list) -> float:
    """The fastest time of each stage over the repetitions, summed.

    On a shared host, other tenants slow this process down in spells that
    last from a fraction of a second to whole runs, so the share of slowed
    repetitions, and with it their median, changes from run to run.
    Interference only ever adds time; the fastest time is the cost of the
    code with the least of it, and it is the steadiest across runs
    (README.md gives the spreads). Taking it per stage lets a quiet moment
    in one stage count although another stage of the same repetition was
    slowed.
    """
    return sum(min(stage) for stage in zip(*samples))


def median_total(samples: list) -> float:
    return statistics.median(sum(rep) for rep in samples)


def epoch_batches(train_set: list, rng: SplitMix64, size: int):
    """Batches in `training.train`'s order: reshuffle in place every epoch."""
    while True:
        rng.shuffle(train_set)
        for lo in range(0, len(train_set), size):
            yield train_set[lo:lo + size]


def corpus_csv(w: Workload, seed: int) -> bytes:
    if w.corpus is not None:
        return generate_csv(w.corpus, seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for r in evaluation.make_synthetic_corpus(seed, w.synthetic_users, w.synthetic_items):
        writer.writerow((r.user_key, r.item_key, repr(r.rating), r.text))
    return out.getvalue().encode("utf-8")


class Counters:
    """Exact counts taken from what the timing proxies saw in traced steps."""

    def __init__(self):
        self.sums = {}
        self.touched = []

    def add(self, key, num, den):
        n, d = self.sums.get(key, (0, 0))
        self.sums[key] = (n + int(num), d + int(den))

    def take_step(self, proxies, vocab_size: int) -> None:
        ids = []
        for proxy in proxies:
            for toks, tmask, rmask in proxy.log:
                self.add(f"model.real_token_ratio.{proxy.side}", tmask.sum(), tmask.size)
                self.add(f"model.real_review_ratio.{proxy.side}", rmask.sum(), rmask.size)
                ids.append(toks[tmask])
            proxy.log.clear()
        touched = np.unique(np.concatenate(ids))
        self.touched.append(np.count_nonzero(touched != data.PAD_ID) / vocab_size)

    def ratios(self) -> dict:
        out = {k: n / d for k, (n, d) in self.sums.items()}
        out["training.touched_vocab_ratio"] = float(np.mean(self.touched))
        return out


def layer_metrics(tracer: Tracer, counters: Counters, cfg, vocab_size: int, eval_pairs: int,
                  params_mb: float, traced_rates: list, untraced_rates: list) -> dict:
    spans = tracer.spans
    out = {}
    for name, metric in PER_CALL.items():
        out[metric] = statistics.median(
            end - start for n, start, end, parent in spans if n == name and parent < 0)

    steps = totals_by_root(spans, "train.step")
    for name, metric in PER_STEP.items():
        out[metric] = sum(g.get(name, (0.0, 0))[0] for _, g in steps) / len(steps)
    out["data.gather_calls"] = sum(g.get("data.gather", (0, 0))[1] for _, g in steps) / len(steps)
    out["trace.step_accounted_ratio"] = statistics.mean(
        1.0 - g["train.step"][0] / (spans[root][2] - spans[root][1]) for root, g in steps)

    evals = totals_by_root(spans, "evaluation.evaluate")
    pairs = eval_pairs * len(evals)
    for name, metric in PER_PAIR.items():
        out[metric] = sum(g.get(name, (0.0, 0))[0] for _, g in evals) / pairs
    out["model.forward_calls"] = sum(g.get("model.forward", (0, 0))[1] for _, g in evals) / pairs
    out["data.gather_calls.eval"] = sum(g.get("data.gather", (0, 0))[1] for _, g in evals) / pairs

    out.update(counters.ratios())
    out["model.rows_per_vocab"] = cfg.batch_size * cfg.num_reviews \
        * (cfg.review_len + cfg.window - 1) / vocab_size
    out["training.param_mb"] = params_mb
    out["trace.overhead_ratio"] = statistics.median(traced_rates) / statistics.median(untraced_rates)
    return out


class Run:
    """One run's state. Each unit method runs and times one repetition of a
    phase; `run` orders them."""

    def __init__(self, w: Workload, seed: int, traced: bool, work: Path):
        self.w = w
        self.seed = seed
        self.cfg = dataclasses.replace(load_config(ROOT / w.config), **dict(w.overrides))
        self.traced = traced
        self.tracer = Tracer()
        self.checks = Checks()
        self.counters = Counters()
        self.csv_path = work / "corpus.csv"
        self.prepared = work / "prepared"
        self.ckpt = work / "checkpoint.nrpa"
        self.meta = {"config": dataclasses.asdict(self.cfg)}
        self.samples = {phase: [] for phase in SHARES}   # stage seconds per timed repetition
        self.timing = False  # the first pass warms every phase up untimed
        self.train_rates = {False: [], True: []}         # pairs/s by whether traced
        self.train_per_pair = []  # backward and adam_step seconds per pair, untraced steps
        self.steps = 0
        self.version = 0                                  # bumped when params change
        self.last_eval = None
        self.ds = self.stores = self.proxies = self.params = self.adam = None
        self.val = self.mse_val = self.batches = None

    def record(self, phase: str, *marks: float) -> None:
        """One timed repetition's stage times, from the `perf_counter` marks
        at its start, between its stages and at its end."""
        if self.timing:
            marks += (time.perf_counter(),)
            self.samples[phase].append([b - a for a, b in zip(marks, marks[1:])])

    def tracing(self):
        """Spans in timed repetitions of a traced run; the untimed first
        pass is not traced."""
        return self.tracer.patched() if self.traced and self.timing else nullcontext()

    def prepare(self):
        with self.tracing():
            t0 = time.perf_counter()
            with open(self.csv_path, "rb") as fh:
                records, skipped = data.parse_reviews(fh, "csv")
            t1 = time.perf_counter()
            ds = data.prepare_dataset(records, self.seed)
            t2 = time.perf_counter()
            data.save_prepared(ds, self.prepared)
            self.record("prepare", t0, t1, t2)
        return len(records), skipped, ds

    def setup(self, saved_count: int, saved_vocab: list):
        # the previous state goes first, so memory holds one model at a time
        self.ds = self.stores = self.proxies = self.params = self.adam = self.val = None
        cfg = self.cfg
        with self.tracing():
            t0 = time.perf_counter()
            ds = data.load_prepared(self.prepared)
            t1 = time.perf_counter()
            stores = data.build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                                         ds.n_users, ds.n_items)
            t2 = time.perf_counter()
            dims = cfg.dims(len(ds.vocab), ds.n_users, ds.n_items)
            params = model.init_params(dims, cfg.seed, cfg.conv_activation)
            adam = training.AdamState.for_params(params)
            self.record("setup", t0, t1, t2)
        self.checks.check(len(ds.interactions) == saved_count
                          and ds.vocab.id_to_token == saved_vocab,
                          "load_prepared returns the saved interactions and vocabulary")
        self.ds, self.stores, self.params, self.adam = ds, stores, params, adam
        self.proxies = (TimedStore(stores[0], self.tracer, "user"),
                        TimedStore(stores[1], self.tracer, "item"))
        self.val = ds.split.validation[:self.w.eval_pairs]
        self.mse_val = ds.split.validation[:self.w.mse_pairs]
        if self.batches is None:
            self.batches = epoch_batches(list(ds.split.train),
                                         SplitMix64(cfg.seed).derive(1), cfg.batch_size)
        self.version += 1

    def train(self):
        """One step; after warm-up, timed steps alternate traced and
        untraced in a traced run."""
        timed = self.steps >= self.w.warmup_steps
        traced = self.traced and timed and (self.steps - self.w.warmup_steps) % 2 == 0
        batch = next(self.batches)
        with self.tracer.patched() if traced else nullcontext():
            t0 = time.perf_counter()
            root = self.tracer.open("train.step") if traced else None
            value, grads = training.backward(batch, self.params,
                                             self.proxies if traced else self.stores,
                                             self.cfg.l2_weight)
            t1 = time.perf_counter()
            training.adam_step(self.params, grads, self.adam, self.cfg.learning_rate)
            if root is not None:
                self.tracer.close(root)
            t2 = time.perf_counter()
            dt = t2 - t0
        del grads
        self.checks.check(np.isfinite(value), f"loss of step {self.steps} is finite")
        if traced:
            self.counters.take_step(self.proxies, len(self.ds.vocab))
        if timed:
            self.samples["train"].append([dt])
            self.train_rates[traced].append(len(batch) / dt)
            if not traced:
                self.train_per_pair.append([(t1 - t0) / len(batch), (t2 - t1) / len(batch)])
        self.steps += 1
        self.version += 1

    def eval(self, pairs=None) -> float:
        """`evaluate` on the timed slice, or untimed on `pairs`."""
        with self.tracing():
            t0 = time.perf_counter()
            score = evaluation.evaluate(self.params, pairs or self.val,
                                        self.proxies if self.traced else self.stores,
                                        exclude_target=self.cfg.exclude_target)
            if pairs is None:
                self.record("eval", t0)
        for proxy in self.proxies:
            proxy.log.clear()
        self.checks.check(np.isfinite(score), "validation MSE is finite")
        if pairs is None:
            if self.last_eval is not None and self.last_eval[0] == self.version:
                self.checks.check(score == self.last_eval[1],
                                  "evaluate of unchanged parameters is bit-identical")
            self.last_eval = (self.version, score)
        return score

    def checkpoint(self):
        # a new file each time, as `nrpa train` writes into a fresh directory;
        # overwriting would add freeing the old file's cached pages
        self.ckpt.unlink(missing_ok=True)
        with self.tracing():
            t0 = time.perf_counter()
            checkpoint.save_params(self.params, self.ckpt, self.meta)
            t1 = time.perf_counter()
            loaded, _ = checkpoint.load_params(self.ckpt)
            self.record("checkpoint", t0, t1)
        return loaded

    def predict(self, params, pairs):
        users = np.array([i.user for i in pairs])
        items = np.array([i.item for i in pairs])
        preds, _, _ = model.predict_batch(params, self.stores[0], self.stores[1], users,
                                          items, self.cfg.exclude_target)
        return preds


def run(w: Workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """One run; returns the full result record (metrics, checks, corpus, env).

    The first pass runs each phase once (training `fixed_steps` steps),
    untimed but for training steps after `warmup_steps`, and checks the
    outputs; val_mse comes from it, scored on `mse_pairs` validation pairs.
    Then phases repeat, the one furthest below its share of the time going
    next, until `seconds` have passed; after that only phases short of their
    minimum count run. Interleaving spreads each metric's samples over the
    whole run, so a slow spell on a shared machine touches all of them a
    little instead of one of them wholly.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as tmp:
        r = Run(w, seed, traced, Path(tmp))
        r.csv_path.write_bytes(corpus_csv(w, seed))
        checks = r.checks
        start = time.perf_counter()

        n_records, skipped, ds = r.prepare()
        expected = w.corpus.records if w.corpus else n_records
        checks.check(skipped == 0 and n_records == expected,
                     f"parse_reviews kept {n_records} of {expected} records, skipped {skipped}")
        saved_count, saved_vocab = len(ds.interactions), list(ds.vocab.id_to_token)
        lo, hi = w.vocab_range
        checks.check(lo <= len(saved_vocab) <= hi,
                     f"vocabulary size {len(saved_vocab)} outside [{lo}, {hi}]")
        corpus = {"records": n_records, "vocab_size": len(saved_vocab),
                  "mean_review_tokens": float(np.mean([len(i.tokens) for i in ds.interactions])),
                  "users": ds.n_users - 1, "items": ds.n_items - 1}
        del ds

        r.setup(saved_count, saved_vocab)
        while r.steps < w.fixed_steps:
            r.train()
        val_mse = r.eval(r.mse_val)
        preds = r.predict(r.params, r.mse_val)
        checks.check(np.all(np.isfinite(preds)), "predict_batch predictions are finite")
        batch_mse = evaluation.mse(preds, [i.rating for i in r.mse_val])
        checks.check(abs(batch_mse - val_mse) <= AGREEMENT_RTOL * abs(val_mse),
                     f"evaluate MSE {val_mse!r} vs predict_batch MSE {batch_mse!r}")

        loaded = r.checkpoint()
        probe = r.val[:PROBE_PAIRS]
        checks.check(np.array_equal(r.predict(r.params, probe), r.predict(loaded, probe)),
                     "loaded checkpoint gives bit-identical predictions")
        resaved = r.ckpt.with_name("resaved.nrpa")
        checkpoint.save_params(loaded, resaved, r.meta)
        checks.check(resaved.read_bytes() == r.ckpt.read_bytes(),
                     "loaded checkpoint re-saves byte-identically")
        del loaded
        params_mb = sum(a.nbytes for _, a in r.params.tensors()) / 2**20
        vocab_size = len(r.ds.vocab)

        units = {"prepare": r.prepare, "setup": lambda: r.setup(saved_count, saved_vocab),
                 "train": r.train, "eval": r.eval, "checkpoint": r.checkpoint}
        r.timing = True
        spent = dict.fromkeys(SHARES, 0.0)  # wall seconds, checks included
        deadline = start + seconds
        while True:
            short = [p for p in SHARES if len(r.samples[p]) < MIN_REPS[p]]
            late = time.perf_counter() >= deadline
            if late and not short:
                break
            phase = min(short if late else SHARES, key=lambda p: spent[p] / SHARES[p])
            t0 = time.perf_counter()
            units[phase]()
            spent[phase] += time.perf_counter() - t0

    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "corpus": corpus, "train_steps": r.steps, "val_mse": val_mse,
        "samples": {"prepare_s": r.samples["prepare"], "setup_s": r.samples["setup"],
                    "train_pairs_per_s": r.train_rates[False],
                    "traced_train_pairs_per_s": r.train_rates[True],
                    "eval_s": r.samples["eval"], "checkpoint_s": r.samples["checkpoint"]},
        "attempted": checks.attempted, "failures": checks.failures,
    }
    if traced:
        result["metrics"] = layer_metrics(r.tracer, r.counters, r.cfg, vocab_size, len(r.val),
                                          params_mb, r.train_rates[True], r.train_rates[False])
        result["spans"] = r.tracer.spans
    else:
        result["metrics"] = {
            "setup_s": best(r.samples["setup"]),
            "prepare_records_per_s": n_records / best(r.samples["prepare"]),
            "train_pairs_per_s": 1.0 / best(r.train_per_pair),
            "eval_pairs_per_s": len(r.val) / best(r.samples["eval"]),
            "checkpoint_s": best(r.samples["checkpoint"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "val_mse": val_mse,
        }
        # the same timings as medians, for comparison; they are not reported
        result["medians"] = {
            "setup_s": median_total(r.samples["setup"]),
            "prepare_records_per_s": n_records / median_total(r.samples["prepare"]),
            "train_pairs_per_s": statistics.median(r.train_rates[False]),
            "eval_pairs_per_s": len(r.val) / median_total(r.samples["eval"]),
            "checkpoint_s": median_total(r.samples["checkpoint"]),
        }
    return result


def main(argv, pinned: dict, out_dir: Path = ROOT / "bench-results") -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="nrpa benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    result["env"] = environment(ROOT, pinned)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("corpus " + json.dumps(result["corpus"], sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32s} {result['metrics'][name]:.6g} {unit}")
    for what in result["failures"]:
        print(f"FAILED CHECK: {what}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not result["failures"] else 1
