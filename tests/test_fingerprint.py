"""tests/fingerprint.py is deterministic, hashes every output it makes, and
its values listing and compare step agree with its hashes."""

import subprocess
from pathlib import Path

import numpy as np
import pytest

import fingerprint
from sing.midi_io import load_proll


def expected_paths() -> list[str]:
    pieces = [f"piece{i:02d}" for i in range(len(fingerprint.PIECE_LENGTHS))]
    paths = [f"midi/{p}.mid" for p in pieces]
    paths += [f"prolls/{p}.{ext}" for p in pieces for ext in ("proll", "ssm")]
    paths += ["plan.txt", "spec.txt", "template.ssm", "template.pgm", "piece14.pgm",
              "eval_random.csv"]
    for name in fingerprint.MODELS:
        paths += [f"eval_{name}.csv", f"gen_{name}.proll", f"gen_{name}.mid"]
        for run in (f"train_{name}", f"train_{name}_val"):
            paths += [f"{run}/{f}" for f in ("model_config.txt", "report.csv", "epoch_0.ckpt",
                                              "epoch_1.ckpt", "best.ckpt")]
    return sorted(paths)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two output directories of one checkout, and the first one's hash lines."""
    a, b = tmp_path_factory.mktemp("a") / "out", tmp_path_factory.mktemp("b") / "out"
    first = fingerprint.run(a)
    return a, b, first, fingerprint.run(b)


def test_two_runs_print_the_same_line_for_every_output(two_runs):
    _, _, first, second = two_runs
    assert second == first
    assert [line.split("  ", 1)[1] for line in first] == expected_paths()


def test_values_are_deterministic_and_cover_every_output(two_runs):
    a, b, _, _ = two_runs
    values = fingerprint.values(a)
    assert fingerprint.values(b) == values
    assert fingerprint.compare(values, values) == (
        [f"0 of {len(values)} lines moved, largest relative change 0.0e+00: within rtol 1e-12"], True)
    files = sorted({line.split(" ", 1)[0].split(":", 1)[0] for line in values})
    assert files == expected_paths()
    keys = [line.split(" ", 1)[0] for line in values]
    assert "train_dense/report.csv:1:val_loss" in keys
    assert "train_dense/best.ckpt:adam/v/lstm.W_x:max" in keys
    assert "eval_dense.csv:mean:sing" in keys
    assert any(line.startswith("gen_dense.proll sha256:") for line in values)
    record = dict(line.split(" ", 1) for line in values)["gen_dense.proll:samples"]
    roll = load_proll(a / "gen_dense.proll")
    assert record == fingerprint.sample_record(roll)
    assert [[int(p) for p in sample.split(".") if p] for sample in record.split("/")] == [
        list(np.flatnonzero(column)) for column in roll.data.T]


def test_compare_passes_within_rtol_and_names_what_moved():
    old = ["r.csv:0:train_loss 2.0", "c.ckpt:lstm.b:max 0.5", "g.proll sha256:ab"]
    report, ok = fingerprint.compare(old, ["r.csv:0:train_loss 2.000000000001", *old[1:]])
    assert ok and report[0].startswith("moved 5.0e-13 r.csv:0:train_loss 2.0 -> ")
    assert report[-1].startswith("1 of 3 lines moved")
    report, ok = fingerprint.compare(old, ["r.csv:0:train_loss 2.00000001", *old[1:]])
    assert not ok and report[0].startswith("FAIL 5.0e-09 r.csv:0:train_loss")


@pytest.mark.parametrize("new", [
    ["r.csv:0:train_loss 2.0", "c.ckpt:lstm.b:max 0.5", "g.proll sha256:cd"],  # a hash differs
    ["r.csv:0:train_loss 2.0", "c.ckpt:lstm.b:max 0.5"],  # a file is missing
    ["r.csv:0:train_loss nan", "c.ckpt:lstm.b:max 0.5", "g.proll sha256:ab"],  # a NaN appears
])
def test_compare_fails_on_hash_key_or_nan(new):
    old = ["r.csv:0:train_loss 2.0", "c.ckpt:lstm.b:max 0.5", "g.proll sha256:ab"]
    report, ok = fingerprint.compare(old, new)
    assert not ok and report[0].startswith("FAIL")


@pytest.mark.parametrize("new, difference", [
    ("60.64/61/70/62/64", "sample 2 is the first of 2 of 5 that differ"),  # two draws flip
    ("60.64/61//62", "sample 4 is the first of 1 of 5 that differ"),  # one sample short
    ("60/61//62/63", "sample 0 is the first of 1 of 5 that differ"),
])
def test_compare_names_the_first_sample_that_differs(new, difference):
    old = ["g.proll sha256:ab", "g.proll:samples 60.64/61//62/63", "r.csv:0:train_loss 2.0"]
    report, ok = fingerprint.compare(old, ["g.proll sha256:cd", f"g.proll:samples {new}", old[2]])
    assert not ok
    assert report[:2] == ["FAIL g.proll differs", f"FAIL g.proll:samples: {difference}"]
    assert report[2].startswith("2 of 3 lines moved")


def test_report_is_hashed_over_its_loss_columns(tmp_path):
    a, b = tmp_path / "a" / "report.csv", tmp_path / "b" / "report.csv"
    for path, seconds in ((a, "0.051"), (b, "0.074")):
        path.parent.mkdir()
        path.write_text(f"epoch,train_loss,val_loss,seconds\n0,2.5,2.25,{seconds}\n")
    assert fingerprint.digest(a) == fingerprint.digest(b)
    b.write_text("epoch,train_loss,val_loss,seconds\n0,2.5,2.5,0.051\n")
    assert fingerprint.digest(a) != fingerprint.digest(b)


def test_against_lists_a_revision_and_the_working_tree_and_compares_them(tmp_path):
    """`--against REF OUT_DIR` unpacks REF's src/, writes both listings and
    exits as `--compare` of them does."""
    if subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                      cwd=Path(fingerprint.__file__).parent).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    out = tmp_path / "fp"
    code = fingerprint.command(["--against", "HEAD", str(out)])
    assert (out / "base" / "src" / "sing" / "structure.py").is_file()
    base, head = ((out / name).read_text().splitlines() for name in ("base.txt", "head.txt"))
    assert [line.split(" ", 1)[0] for line in base] == [line.split(" ", 1)[0] for line in head]
    assert code == (0 if fingerprint.compare(base, head)[1] else 1)
    with pytest.raises(SystemExit):
        fingerprint.command(["--against", "HEAD", str(out)])  # OUT_DIR exists
