"""Hash every output of the `sing` command line on a fixed synthetic corpus.

    PYTHONPATH=src python tests/fingerprint.py OUT_DIR

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

The corpus covers every planning case: `batch-plan` slices the pieces
longer than 36 samples, pads, truncates, keeps exact lengths and excludes
segments; the script fails if one of them goes missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from sing.batching import load_plan, segment_lengths
from sing.cli import main
from sing.midi_io import PianoRoll, load_proll, to_midi

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
    return [f"{digest(path)}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def digest(path: Path) -> str:
    if path.name != "report.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    losses = "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())
    return hashlib.sha256(losses.encode()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2 or Path(sys.argv[1]).exists():
        sys.exit("usage: fingerprint.py OUT_DIR  (OUT_DIR must not exist)")
    print("\n".join(run(Path(sys.argv[1]))))
