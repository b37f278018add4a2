#!/usr/bin/env python3
"""Print each executable line of src/nrpa that no production run reaches.

    python scripts/production_lines.py

Under sys.settrace, this runs in one process, from the tree it sits in:

- every `nrpa` command through nrpa.cli.main, on a small synthetic corpus:
  prepare from CSV and from amazon-json, train (once more with the tanh
  convolution and exclude_target false), eval (plain, and with --trace,
  --clip and --ablation), ablate, sweep and inspect;
- perfbench's bench.run on the smoke variant of each workload, traced and
  untraced, as perfbench's own tests run it (perfbench is only imported).

A statement counts as reached when any line of its head runs: a simple
statement's lines, or a compound statement's lines up to its body, with its
decorators. Docstrings and `try:` heads hold no code of their own and are
not counted. The report lists each unreached statement as
`path:line: text`, then their number. What it lists is code that only tests
or rejected inputs reach. Takes about five seconds.
"""

import ast
import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
SRC = TREE / "src" / "nrpa"

# configs/synthetic.cfg's model at fewer epochs, so early stopping can end a run
CONFIG = """\
word_dim = 16
id_dim = 16
num_filters = 16
attn_dim = 16
window = 3
fm_dim = 8
review_len = 12
num_reviews = 10
learning_rate = 5e-3
batch_size = 100
max_epochs = 8
patience = 2
l2_weight = 1e-6
seed = 103
exclude_target = true
"""
# the other value of each setting that chooses a code path
OTHER_CONFIG = CONFIG.replace("exclude_target = true",
                              "exclude_target = false\nconv_activation = tanh")


def statement_spans(path: Path):
    """(first line, last line, statement) of every counted statement of the
    module at path: a simple statement's lines, a compound statement's head
    (its decorators through the line before its body), an except clause's
    head. Docstrings and `try:` heads are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)) or node in docstrings \
                or isinstance(node, ast.Try):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield first, max(first, last), node


def main() -> int:
    sys.path[:0] = [str(TREE / "src"), str(TREE / "perfbench")]
    reached = set()  # (file name, line) of every line event and call in src/nrpa
    prefix = str(SRC) + "/"

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    sys.settrace(trace_calls)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            run_commands(Path(tmp))
            run_benchmark(Path(tmp))
    finally:
        sys.settrace(None)

    unreached = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = str(path.resolve())
        for first, last, node in sorted(statement_spans(path), key=lambda s: s[:2]):
            if not any((name, line) in reached for line in range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(TREE)}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} statements of src/nrpa reached by no run")
    return 0


def run_commands(tmp: Path) -> None:
    """Every nrpa command in-process, each of which must exit 0."""
    from nrpa.cli import main as nrpa
    from nrpa.evaluation import make_synthetic_corpus

    records = make_synthetic_corpus(101, 60, 30, reviews_per_user=10)
    with open(tmp / "corpus.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([r.user_key, r.item_key, repr(r.rating), r.text]
                                 for r in records)
    with open(tmp / "corpus.json", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"reviewerID": r.user_key, "asin": r.item_key,
                                  "overall": r.rating, "reviewText": r.text}) + "\n"
                      for r in records)
    (tmp / "run.cfg").write_text(CONFIG, encoding="utf-8")
    (tmp / "other.cfg").write_text(OTHER_CONFIG, encoding="utf-8")
    data, ckpt = str(tmp / "csv"), str(tmp / "run" / "checkpoint.nrpa")
    commands = [
        ["prepare", "--input", str(tmp / "corpus.json"), "--format", "amazon-json",
         "--out", str(tmp / "json"), "--seed", "102"],
        ["prepare", "--input", str(tmp / "corpus.csv"), "--format", "csv",
         "--out", data, "--seed", "102", "--min-count", "1"],
        ["train", "--data", data, "--config", str(tmp / "run.cfg"), "--out", str(tmp / "run")],
        ["train", "--data", data, "--config", str(tmp / "other.cfg"),
         "--out", str(tmp / "other")],
        ["eval", "--checkpoint", ckpt, "--data", data, "--split", "val"],
        ["eval", "--checkpoint", ckpt, "--data", data, "--split", "test", "--clip",
         "--trace", str(tmp / "trace.jsonl"), "--ablation", "word=uniform",
         "--out", str(tmp / "eval.csv")],
        ["ablate", "--data", data, "--config", str(tmp / "run.cfg"),
         "--out", str(tmp / "ablation.csv")],
        ["sweep", "--data", data, "--config", str(tmp / "run.cfg"), "--dims", "4,8",
         "--out", str(tmp / "sweep.csv")],
        ["inspect", "--checkpoint", ckpt, "--data", data, "--user", "u0", "--item",
         records[0].item_key, "--top", "3"],
    ]
    for argv in commands:
        if nrpa(argv) != 0:
            raise SystemExit(f"nrpa {' '.join(argv)} did not exit 0")


def run_benchmark(tmp: Path) -> None:
    """bench.run on each workload's smoke variant, untraced and traced."""
    import bench
    import workloads

    for name in sorted(workloads.WORKLOADS):
        for traced in (False, True):
            result = bench.run(workloads.smoke(workloads.WORKLOADS[name]), 3, 0.0, traced,
                               tmp / "bench")
            if result["failures"]:
                raise SystemExit(f"bench.run on {name} failed: {result['failures']}")


if __name__ == "__main__":
    sys.exit(main())
