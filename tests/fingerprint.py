"""Fingerprint every output of the `sing` command line on a fixed synthetic corpus.

    PYTHONPATH=src python tests/fingerprint.py OUT_DIR
    PYTHONPATH=src python tests/fingerprint.py --values OUT_DIR
    PYTHONPATH=src python tests/fingerprint.py --compare OLD.txt NEW.txt
    PYTHONPATH=src python tests/fingerprint.py --against REF OUT_DIR

Writes synthetic MIDI files (made with `sing.midi_io.to_midi`) under
OUT_DIR, runs every verb on them in process, and prints one
`sha256  path` line per file under OUT_DIR, the path relative to it. A
`report.csv` is hashed over its loss columns only, since its last column
is wall time. The run is deterministic and offline and takes a few
seconds, so two checkouts whose outputs agree byte for byte print the
same lines:

    PYTHONPATH=<old>/src python tests/fingerprint.py /tmp/old > old.txt
    PYTHONPATH=<new>/src python tests/fingerprint.py /tmp/new > new.txt
    diff old.txt new.txt

`--values` prints numbers where a change may move the last bits: one
`key value` line per `report.csv` loss, per norm and maximum of each
checkpoint tensor, and per `evaluate` score; every other file keeps its
hash, and each `.proll` also gets a `:samples` line listing the pitches
on at each sample. `--compare` reads two such listings and passes (exit 0)
when both have the same keys, equal hashes and sample lists, and every
number within `oracles.RTOL` relative of the other; it prints each line
that moved and by how much, and for a `.proll` the first sample that
differs and how many do. `--against REF OUT_DIR` is all of that in one
command: it runs this script with `--values` on the `src/` of git
revision REF (unpacked from `git archive` under OUT_DIR/base) and on the
working tree's `src/`, writes the listings to OUT_DIR/base.txt and
OUT_DIR/head.txt, and exits as `--compare` of the two does.

The corpus covers every planning case: `batch-plan` slices the pieces
longer than 36 samples, pads, truncates, keeps exact lengths and excludes
segments; the script fails if one of them goes missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sing.batching import load_plan, segment_lengths
from sing.cli import main
from sing.midi_io import PianoRoll, load_proll, to_midi
from sing.model import ModelConfig, load_model

from oracles import RTOL

PIECE_LENGTHS = (20, 22, 23, 24, 25, 26, 27, 28, 30, 31, 33, 36, 40, 62, 75, 800)
MAX_LEN = 36
GRID = ("--grid-k", "3", "--grid-count", "4", "--max-len", str(MAX_LEN), "--max-edit", "0.05")
MODEL = ("--hidden", "6", "--seed-len", "4", "--top-k", "8", "--max-notes", "2")
# per_pitch mixes attention and LSTM outputs pitch by pitch, so it needs hidden 128
MODELS = {
    "dense": (),
    "per_pitch": ("--combiner", "per_pitch", "--hidden", "128"),
    "ablated": ("--ablated",),
}


def _sing(*argv: str | Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"fingerprint: sing {' '.join(map(str, argv))} exited {code}")


def write_midi(directory: Path) -> None:
    """One MIDI file per piece length: a chord held for three samples under
    a melody note that changes every sample, so the median onset interval
    is one sample and the lengths survive `preprocess`."""
    rng = np.random.default_rng(0)
    directory.mkdir(parents=True)
    for i, n in enumerate(PIECE_LENGTHS):
        chords = [rng.choice(np.arange(48, 72), size=3, replace=False) for _ in range(4)]
        data = np.zeros((128, n), dtype=np.uint8)
        for s in range(n):
            data[chords[(s // 3) % 4], s] = 1
            data[72 + s % 5, s] = 1
        roll = PianoRoll(data=data, tempo=120.0, source_id=f"piece{i:02d}")
        (directory / f"piece{i:02d}.mid").write_bytes(to_midi(roll))


def _check_plan_cases(prolls: Path, plan_path: Path) -> None:
    plan = load_plan(plan_path)
    segments = sum(len(segment_lengths(load_proll(p).n_samples, MAX_LEN))
                   for p in prolls.glob("*.proll"))
    cases = {
        "sliced": any(a.segment_index > 0 for a in plan.assignments),
        "pad": any(a.source_length < a.target_length for a in plan.assignments),
        "truncate": any(a.source_length > a.target_length for a in plan.assignments),
        "excluded": len(plan.assignments) < segments,
    }
    missing = [case for case, seen in cases.items() if not seen]
    if missing:
        raise SystemExit(f"fingerprint: the plan lost its {', '.join(missing)} case(s)")


def run(out: Path) -> list[str]:
    """Run every verb under out (which must not exist); the hash lines."""
    make(out)
    return hashes(out)


def outputs(out: Path) -> list[Path]:
    return sorted(p for p in Path(out).rglob("*") if p.is_file())


def hashes(out: Path) -> list[str]:
    """`sha256  path` lines over the outputs under out."""
    return [f"{digest(path)}  {path.relative_to(out).as_posix()}" for path in outputs(out)]


def make(out: Path) -> None:
    """Run every verb on the synthetic corpus under out, which must not exist."""
    out = Path(out)
    write_midi(out / "midi")
    prolls, plan = out / "prolls", out / "plan.txt"
    _sing("preprocess", "--in", out / "midi", "--out", prolls)
    _sing("batch-plan", "--in", prolls, "--out", plan, *GRID, "--batch-cap", "3", "--seed", "1")
    _check_plan_cases(prolls, plan)

    template = out / "template.ssm"
    # 150 samples: `generate` crosses two ATTENTION_BLOCK_ROWS (64-row) block boundaries
    (out / "spec.txt").write_text(
        "length=150\nbackground=0.1\nblock=0,75,0.9\nblock=75,150,0.6\n"
    )
    _sing("synth-ssm", "--in", out / "spec.txt", "--out", template)
    _sing("render-ssm", "--in", template, "--out", out / "template.pgm")
    _sing("render-ssm", "--in", prolls / "piece14.ssm", "--out", out / "piece14.pgm")

    for name, flags in MODELS.items():
        for val in ((), ("--val", prolls)):
            run_dir = out / f"train_{name}{'_val' if val else ''}"
            _sing("train", "--in", prolls, "--plan", plan, "--out", run_dir, "--epochs", "2",
                  "--lr", "0.01", "--seed", "2", *MODEL, *flags, *val)
        checkpoint = out / f"train_{name}" / "best.ckpt"
        generator = "ablated" if name == "ablated" else "sing"
        _sing("evaluate", "--in", prolls, "--out", out / f"eval_{name}.csv", "--generator",
              generator, "--checkpoint", checkpoint, *GRID, "--seed", "3")
        _sing("generate", "--checkpoint", checkpoint, "--in", prolls / "piece00.proll",
              "--template", template, "--out", out / f"gen_{name}", "--seed", "4")
    _sing("evaluate", "--in", prolls, "--out", out / "eval_random.csv", "--generator", "random",
          "--model-config", out / "train_dense" / "model_config.txt", *GRID, "--seed", "3")


def digest(path: Path) -> str:
    if path.name != "report.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    losses = "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())
    return hashlib.sha256(losses.encode()).hexdigest()


def values(out: Path) -> list[str]:
    """`key value` lines over the outputs under out: report.csv losses,
    checkpoint tensor norms and maxima, evaluate scores, other files' hashes."""
    lines = []
    for path in outputs(out):
        name = path.relative_to(out).as_posix()
        if path.name == "report.csv":
            for row in csv.DictReader(path.read_text().splitlines()):
                lines += [f"{name}:{row['epoch']}:{col} {row[col]}"
                          for col in ("train_loss", "val_loss")]
        elif path.suffix == ".ckpt":
            cfg = ModelConfig.from_text((path.parent / "model_config.txt").read_text())
            params = load_model(path, cfg).params
            for tensor in sorted(params.values):
                for prefix, group in (("", params.values), ("adam/m/", params.m),
                                      ("adam/v/", params.v)):
                    array = group[tensor]
                    lines.append(f"{name}:{prefix}{tensor}:norm {float(np.linalg.norm(array))!r}")
                    lines.append(f"{name}:{prefix}{tensor}:max {float(array.max())!r}")
            lines.append(f"{name}:adam/step {params.step}")
        elif path.name.startswith("eval_") and path.suffix == ".csv":
            rows = list(csv.reader(path.read_text().splitlines()))[1:]
            lines += [f"{name}:{piece}:{index} {value}" for piece, index, value in rows]
        else:
            lines.append(f"{name} sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}")
            if path.suffix == ".proll":
                lines.append(f"{name}:samples {sample_record(load_proll(path))}")
    return lines


def sample_record(roll: PianoRoll) -> str:
    """The pitches on at each sample: `60.64/61//...`, a silent sample empty."""
    return "/".join(".".join(map(str, np.flatnonzero(column))) for column in roll.data.T)


def sample_difference(old: str, new: str) -> str:
    """Where two `sample_record`s part: the first sample that differs and the count."""
    a, b = old.split("/"), new.split("/")
    differ = [t for t, (x, y) in enumerate(zip(a, b)) if x != y]
    differ += range(min(len(a), len(b)), max(len(a), len(b)))
    return f"sample {differ[0]} is the first of {len(differ)} of {max(len(a), len(b))} that differ"


def compare(old: list[str], new: list[str]) -> tuple[list[str], bool]:
    """Report lines for two `values` listings, and whether they agree:
    the same keys, equal hashes, every number within RTOL relative."""
    before, after = (dict(line.rsplit(" ", 1) for line in lines) for lines in (old, new))
    report, worst, ok = [], 0.0, before.keys() == after.keys()
    for key in sorted(before.keys() ^ after.keys()):
        report.append(f"FAIL only in {'old' if key in before else 'new'}: {key}")
    for key in sorted(before.keys() & after.keys()):
        a, b = before[key], after[key]
        if a == b:
            continue
        if key.endswith(":samples"):
            report.append(f"FAIL {key}: {sample_difference(a, b)}")
            ok = False
            continue
        if a.startswith("sha256:") or b.startswith("sha256:"):
            report.append(f"FAIL {key} differs")
            ok = False
            continue
        x, y = float(a), float(b)
        if x == y:  # 0.0 against -0.0
            change = 0.0
        elif math.isfinite(x - y):
            change = abs(x - y) / max(abs(x), abs(y))
        else:  # nan or inf against another value
            change = math.inf
        worst = max(worst, change)
        ok = ok and change <= RTOL
        report.append(f"{'moved' if change <= RTOL else 'FAIL'} {change:.1e} {key} {a} -> {b}")
    moved = sum(before.get(key) != value for key, value in after.items())
    report.append(f"{moved} of {len(after)} lines moved, largest relative change "
                  f"{worst:.1e}: {'within' if ok else 'NOT within'} rtol {RTOL:g}")
    return report, ok


def against(ref: str, out: Path) -> int:
    """`--values` on git revision ref's src/ and on the working tree's, each
    in a process of its own, listed to out/base.txt and out/head.txt; then
    `--compare` of the two."""
    root = Path(__file__).resolve().parent.parent
    (out / "base").mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(root), "archive", ref, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out / "base")], input=archive, check=True)
    for label, src in (("base", out / "base" / "src"), ("head", root / "src")):
        with open(out / f"{label}.txt", "w") as listing:
            subprocess.run([sys.executable, __file__, "--values", str(out / f"out-{label}")],
                           env={**os.environ, "PYTHONPATH": str(src)}, stdout=listing, check=True)
    return command(["--compare", str(out / "base.txt"), str(out / "head.txt")])


def command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--values", action="store_true", help="print values, not hashes")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --values listings")
    parser.add_argument("--against", metavar="REF",
                        help="compare the --values listings of git revision REF and of src/")
    parser.add_argument("out", nargs="?", type=Path, help="output directory (must not exist)")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (Path(p).read_text().splitlines() for p in args.compare)
        report, ok = compare(old, new)
        print("\n".join(report))
        return 0 if ok else 1
    if args.out is None or args.out.exists():
        parser.error("OUT_DIR is required and must not exist")
    if args.against:
        return against(args.against, args.out)
    make(args.out)
    print("\n".join((values if args.values else hashes)(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(command(sys.argv[1:]))
