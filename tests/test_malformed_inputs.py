"""Every artifact the command line reads, mutated, ends in exit 0 or in exit 1
with exactly one `error:` line: never a traceback.

Each artifact kind (.proll, .ssm, .ckpt, plan, model_config.txt, --config
and synth spec) starts from a valid file. Hypothesis mutates its bytes
(truncate, flip, insert) or one of its values (`nan`, `-1`, `1e308`,
`3000`, a full-width `３`), and a verb that reads it runs through
`cli.main`. Each run holds an address-space limit about 1 GiB above the
process's size, so an input that asks for more memory than that (a plan
target or synth length near the 16,384-sample cap builds n x n matrices)
ends in `error: out of memory (<verb>)` instead of taking the machine's
memory. `train` runs one epoch at hidden size 6: its `--epochs` and
`--hidden` flags override a mutated --config's values, which are still
parsed and checked.
"""

from __future__ import annotations

import contextlib
import io
import re
import resource
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sing.batching import Assignment, BatchPlan, save_plan
from sing.cli import main
from sing.midi_io import PianoRoll, save_proll
from sing.model import Model, ModelConfig, save_model
from sing.nn import CKPT_MAGIC
from sing.structure import SynthSpec, save_ssm, synth_ssm

HIDDEN, SEED_LEN, N = 6, 4, 24
VALUES = ["nan", "-1", "1e308", "3000", "３"]
HEADROOM = 1 << 30  # bytes of address space a run may add to the process


def roll(root: int) -> PianoRoll:
    data = np.zeros((128, N), dtype=np.uint8)
    data[root] = 1
    data[root + 4 + np.arange(N) % 2, np.arange(N)] = 1
    return PianoRoll(data=data, tempo=120.0)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Valid inputs of every kind: a corpus, a plan, a checkpoint and its config."""
    root = tmp_path_factory.mktemp("base")
    (root / "corpus").mkdir()
    for i, pitch in enumerate((48, 55, 60)):
        save_proll(roll(pitch), root / "corpus" / f"piece{i}.proll")
    save_plan(BatchPlan(assignments=[Assignment(f"piece{i}", 0, N, N) for i in range(3)],
                        batches=[[0, 1], [2]]), root / "plan.txt")
    cfg = ModelConfig(hidden_size=HIDDEN, seed_len=SEED_LEN)
    (root / "ckpt").mkdir()
    save_model(Model(cfg, rng=np.random.default_rng(0)), root / "ckpt" / "best.ckpt")
    (root / "ckpt" / "model_config.txt").write_text(cfg.to_text())
    save_ssm(synth_ssm(SynthSpec(length=20, blocks=[(0, 10, 0.8)], background=0.1)),
             root / "t.ssm")
    (root / "config.txt").write_text(
        "grid.k = 2\ngrid.count = 4\ngrid.max_len = 24\nedit.max_fraction = 0.04\n"
        "batch.cap = 2\nmodel.hidden_size = 6\nmodel.combiner_mode = dense\n"
        "model.seed_len = 4\nmodel.top_k = 50\nmodel.max_notes = 3\nmodel.pitch_lo = 20\n"
        "model.pitch_hi = 107\ntrain.p_feedback = 0.8\ntrain.lr = 0.001\ntrain.epochs = 1\n")
    (root / "spec.txt").write_text("length=20\nbackground=0.1\nblock=0,10,0.8\nblock=5,15,0.3\n")
    return root


def ckpt_fields(data: bytes) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """(offset, struct format) of each header field and of each value of a checkpoint."""
    headers, values, pos = [(8, "<I"), (12, "<I")], [], len(CKPT_MAGIC) + 8
    while pos < len(data):
        (name_len,) = struct.unpack_from("<I", data, pos)
        rows, cols = struct.unpack_from("<II", data, pos + 4 + name_len)
        headers += [(pos, "<I"), (pos + 4 + name_len, "<I"), (pos + 8 + name_len, "<I")]
        pos += 12 + name_len
        values += [(pos + 8 * k, "<d") for k in range(rows * max(cols, 1))]
        pos += 8 * rows * max(cols, 1)
    return headers, values


def fields(kind: str, data: bytes) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """(header fields, value fields) of an artifact, as ckpt_fields gives them; text has neither."""
    if kind == "proll":  # count, pitch count, tempo, then one byte per (sample, pitch)
        return [(8, "<I"), (12, "<I"), (16, "<d")], [(k, "B") for k in range(24, len(data))]
    if kind == "ssm":  # n, then n * n float32
        return [(8, "<I")], [(k, "<f") for k in range(12, len(data), 4)]
    return ckpt_fields(data) if kind == "ckpt" else ([], [])


def packed(fmt: str, value: str) -> bytes:
    """value written into a field of format fmt, as near as the field can hold it."""
    if value == "３":
        return value.encode()
    number = float(value)
    if fmt in ("<I", "B"):  # unsigned: -1 wraps, nan and 1e308 saturate
        top = (1 << struct.calcsize(fmt) * 8) - 1
        whole = top if not np.isfinite(number) or number > top else int(number) & top
        return struct.pack(fmt, whole)
    with np.errstate(over="ignore"):  # 1e308 is inf as a float32
        return np.array(number, dtype=fmt).tobytes()


@st.composite
def mutations(draw, data: bytes, headers: list[tuple[int, str]],
              values: list[tuple[int, str]]) -> bytes:
    """data with bytes truncated, flipped or inserted, or with one value replaced:
    a field of values or headers (binary data), else a number in the text."""
    # a byte anywhere, or one inside a header field, which uniform draws seldom hit
    inside = [at + k for at, fmt in headers for k in range(struct.calcsize(fmt))]
    anywhere = st.integers(0, len(data) - 1)
    position = st.one_of(anywhere, st.sampled_from(inside)) if inside else anywhere
    how = draw(st.sampled_from(["truncate", "flip", "insert", "value"]))
    if how == "truncate":
        return data[: draw(position)]
    if how == "flip":
        at = draw(position)
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if how == "insert":
        at = draw(position)
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    value = draw(st.sampled_from(VALUES))
    if headers:
        at, fmt = draw(st.one_of(st.sampled_from(headers), st.sampled_from(values)))
        raw = packed(fmt, value)
        return data[:at] + raw + data[at + len(raw) :]
    numbers = list(re.finditer(rb"\d+(?:\.\d+)?(?:e-?\d+)?", data))
    number = draw(st.sampled_from(numbers))
    return data[: number.start()] + value.encode() + data[number.end() :]


SOURCE = {"proll": "corpus/piece0.proll", "ssm": "t.ssm", "ckpt": "ckpt/best.ckpt",
          "plan": "plan.txt", "model_config": "ckpt/model_config.txt",
          "config": "config.txt", "spec": "spec.txt"}


def command_lines(run: Path) -> dict[str, list[list[str]]]:
    """For each artifact kind, the command lines that read it from the inputs in run."""
    ckpt, corpus = str(run / "ckpt" / "best.ckpt"), str(run / "corpus")
    config = str(run / "config.txt")
    generate = ["generate", "--checkpoint", ckpt, "--in", str(run / SOURCE["proll"]),
                "--template", str(run / "t.ssm"), "--out", str(run / "gen")]
    grid = ["--grid-k", "2", "--grid-count", "4", "--max-len", "24"]
    batch_plan = ["batch-plan", "--in", corpus, "--out", str(run / "new_plan.txt")]
    train = ["train", "--in", corpus, "--plan", str(run / "plan.txt"), "--out", str(run / "out"),
             "--epochs", "1", "--hidden", str(HIDDEN), "--seed-len", str(SEED_LEN)]
    return {
        "proll": [generate, [*batch_plan, *grid]],
        "ssm": [generate, ["render-ssm", "--in", str(run / "t.ssm"), "--out", str(run / "t.pgm")]],
        "ckpt": [generate],
        "plan": [train],
        "model_config": [generate, ["evaluate", "--in", corpus, "--checkpoint", ckpt,
                                    "--out", str(run / "eval.csv"), *grid]],
        "config": [[*train, "--config", config], [*batch_plan, "--config", config]],
        "spec": [["synth-ssm", "--in", str(run / "spec.txt"), "--out", str(run / "s.ssm")]],
    }


@contextlib.contextmanager
def address_space_headroom(extra: int):
    """Lower this process's soft address-space limit to its size plus extra."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            address_space_headroom(HEADROOM):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", list(SOURCE))
def test_mutated_artifact_ends_in_success_or_one_error_line(kind, base):
    data = (base / SOURCE[kind]).read_bytes()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated=mutations(data, *fields(kind, data)), which=st.integers(0, 1))
    def check(mutated, which):
        with tempfile.TemporaryDirectory(dir=base.parent) as tmp:
            run = Path(tmp) / "run"
            shutil.copytree(base, run)
            (run / SOURCE[kind]).write_bytes(mutated)
            choices = command_lines(run)[kind]
            argv = choices[which % len(choices)]
            code, err = run_cli(argv)
        lines = err.splitlines()
        assert code in (0, 1), (argv, code, err)
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        else:
            assert not any(line.startswith("error:") for line in lines), (argv, err)

    check()


def test_plan_target_beyond_its_edit_bound_ends_in_one_error_line(base, tmp_path):
    """A 24-sample segment planned to 3,000 samples, 99% padding, is refused
    when the plan is read, by the line that asks for it, before any training."""
    run = tmp_path / "run"
    shutil.copytree(base, run)
    plan = run / SOURCE["plan"]
    text = plan.read_text()
    assert text.splitlines()[:4] == ["edit: 0.04", "piece0,0,24,24", "piece1,0,24,24",
                                     "piece2,0,24,24"]
    plan.write_text(text.replace("piece2,0,24,24", "piece2,0,24,3000"))
    code, err = run_cli(command_lines(run)["plan"][0])
    assert code == 1
    assert err.splitlines() == [
        f"error: {plan}: line 4: 'piece2' segment 0: target 3000 edits more than 0.04 of source 24"]
    assert not (run / "out").exists()
