#!/usr/bin/env python3
"""Run the README's synthetic experiment from this tree and hash what it writes.

    python scripts/readme_experiment.py OUT

OUT must not exist yet. The steps run as subprocesses with OUT as their
working directory, so every path they are given, and every path they write
into an output, is relative to OUT. Each step imports the `nrpa` package of
the tree this script sits in:

    make_synthetic_corpus.py --seed 101
    nrpa prepare --seed 102 --min-count 1
    nrpa train and nrpa ablate with configs/synthetic.cfg
    nrpa eval --split test --trace
    nrpa eval --split test --ablation word=uniform

Each step's stdout goes to OUT/stdout/<step>.txt. OUT/SHA256SUMS then lists
the sha256 of every file under OUT, in `sha256sum` format and path order,
with run/manifest.json hashed without its two timestamps. Two trees that
compute the same numbers write the same SHA256SUMS, so comparing two trees
is one `diff` of their SHA256SUMS files. Exits 1 naming the step that fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

# (step name, argv after the interpreter), run in order with cwd OUT
STEPS = (
    ("corpus", [str(TREE / "scripts" / "make_synthetic_corpus.py"),
                "--out", "synth.csv", "--seed", "101"]),
    ("prepare", ["-m", "nrpa.cli", "prepare", "--input", "synth.csv", "--format", "csv",
                 "--out", "synth", "--seed", "102", "--min-count", "1"]),
    ("train", ["-m", "nrpa.cli", "train", "--data", "synth",
               "--config", str(TREE / "configs" / "synthetic.cfg"), "--out", "run"]),
    ("ablate", ["-m", "nrpa.cli", "ablate", "--data", "synth",
                "--config", str(TREE / "configs" / "synthetic.cfg"),
                "--out", "ablation.csv"]),
    ("eval", ["-m", "nrpa.cli", "eval", "--checkpoint", "run/checkpoint.nrpa",
              "--data", "synth", "--split", "test", "--trace", "run/trace.jsonl"]),
    ("eval_word_uniform", ["-m", "nrpa.cli", "eval", "--checkpoint", "run/checkpoint.nrpa",
                           "--data", "synth", "--split", "test",
                           "--ablation", "word=uniform",
                           "--out", "run/eval_test_word_uniform.csv"]),
)

# manifest.json keys that record when the run happened, not what it computed
TIMESTAMPS = ("started_at", "finished_at")


def digest(path: Path) -> str:
    """sha256 of the file at path; of manifest.json, of its JSON without
    TIMESTAMPS, re-serialized as `nrpa train` writes it."""
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key in TIMESTAMPS:
            del manifest[key]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="output directory, created here")
    args = ap.parse_args()
    out = args.out.resolve()
    out.mkdir(parents=True)
    (out / "stdout").mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(TREE / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    for name, argv in STEPS:
        done = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        (out / "stdout" / f"{name}.txt").write_text(done.stdout, encoding="utf-8")
        if done.returncode != 0:
            print(f"step {name} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
            return 1
    files = sorted(p for p in out.rglob("*") if p.is_file())
    lines = [f"{digest(p)}  {p.relative_to(out).as_posix()}\n" for p in files]
    (out / "SHA256SUMS").write_text("".join(lines), encoding="utf-8")
    print(f"wrote {out / 'SHA256SUMS'} over {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
