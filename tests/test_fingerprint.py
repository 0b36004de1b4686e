"""tests/fingerprint.py is deterministic and hashes every output it makes."""

import fingerprint


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


def test_two_runs_print_the_same_line_for_every_output(tmp_path):
    first = fingerprint.run(tmp_path / "a")
    assert fingerprint.run(tmp_path / "b") == first
    assert [line.split("  ", 1)[1] for line in first] == expected_paths()


def test_report_is_hashed_over_its_loss_columns(tmp_path):
    a, b = tmp_path / "a" / "report.csv", tmp_path / "b" / "report.csv"
    for path, seconds in ((a, "0.051"), (b, "0.074")):
        path.parent.mkdir()
        path.write_text(f"epoch,train_loss,val_loss,seconds\n0,2.5,2.25,{seconds}\n")
    assert fingerprint.digest(a) == fingerprint.digest(b)
    b.write_text("epoch,train_loss,val_loss,seconds\n0,2.5,2.5,0.051\n")
    assert fingerprint.digest(a) != fingerprint.digest(b)
