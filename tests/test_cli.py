import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smf
import sing
from sing import cli, evaluation
from sing.batching import load_plan
from sing.cli import _CONFIG_KEYS, main
from sing.midi_io import MAX_SAMPLES, PianoRoll, load_proll, save_proll, to_midi
from sing.model import Model, ModelConfig, load_model, save_model
from sing.structure import SelfSimilarityMatrix, SynthSpec, load_ssm, save_ssm, synth_ssm


def write_corpus_midi(directory, n_pieces=3, n=40, seed=0):
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_pieces):
        root = int(rng.integers(40, 70))
        data = np.zeros((128, n), dtype=np.uint8)
        for s in range(n):
            data[root + (s % 3) * 4, s] = 1
            data[root + 7, s] = 1
        roll = PianoRoll(data=data, tempo=120.0, source_id=f"piece{i}")
        (directory / f"piece{i}.mid").write_bytes(to_midi(roll))


def write_corpus_prolls(directory, n_pieces=4, n=24, seed=0):
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_pieces):
        root = int(rng.integers(40, 70))
        data = np.zeros((128, n), dtype=np.uint8)
        for s in range(n):
            data[root, s] = 1
            data[root + 4 + (s % 2), s] = 1
        save_proll(PianoRoll(data=data, tempo=120.0), directory / f"piece{i}.proll")


def write_untrained_model(directory, **overrides):
    """An initialized checkpoint plus its model_config.txt; returns the .ckpt path."""
    cfg = ModelConfig(**overrides)
    directory.mkdir(parents=True, exist_ok=True)
    save_model(Model(cfg, rng=np.random.default_rng(0)), directory / "best.ckpt")
    (directory / "model_config.txt").write_text(cfg.to_text())
    return directory / "best.ckpt"


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def flag_help(text: str, flag: str) -> str:
    """The options-section entry of one flag, whitespace collapsed."""
    flat = " ".join(text.split())
    start = flat.rindex(f" {flag} ")
    end = flat.find(" --", start + 1)
    return flat[start:] if end < 0 else flat[start:end]


class TestSynthAndRender:
    def test_pipeline_produces_visible_block(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("length=8\nbackground=0.0\nblock=0,4,0.8\n")
        assert main(["synth-ssm", "--in", str(spec), "--out", str(tmp_path / "x.ssm")]) == 0
        assert main(["render-ssm", "--in", str(tmp_path / "x.ssm"),
                     "--out", str(tmp_path / "x.pgm")]) == 0
        img = (tmp_path / "x.pgm").read_bytes()
        header, pixels = img.split(b"255\n", 1)
        assert header == b"P5\n8 8\n"
        grid = np.frombuffer(pixels, dtype=np.uint8).reshape(8, 8)
        assert grid[0, 0] == 255  # diagonal white
        assert grid[0, 1] == 204  # 0.8 block
        assert grid[0, 7] == 0  # background

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["render-ssm", "--in", str(tmp_path / "nope.ssm"),
                     "--out", str(tmp_path / "x.pgm")])
        assert code == 1
        assert "nope.ssm" in capsys.readouterr().err


class TestPreprocess:
    def test_three_files_three_outputs(self, tmp_path):
        write_corpus_midi(tmp_path / "midi", n_pieces=3)
        assert main(["preprocess", "--in", str(tmp_path / "midi"),
                     "--out", str(tmp_path / "rolls")]) == 0
        assert len(list((tmp_path / "rolls").glob("*.proll"))) == 3
        assert len(list((tmp_path / "rolls").glob("*.ssm"))) == 3

    def test_corrupt_file_excluded_not_fatal(self, tmp_path):
        write_corpus_midi(tmp_path / "midi", n_pieces=2)
        (tmp_path / "midi" / "junk.mid").write_bytes(b"not a midi file")
        assert main(["preprocess", "--in", str(tmp_path / "midi"),
                     "--out", str(tmp_path / "rolls")]) == 0
        assert len(list((tmp_path / "rolls").glob("*.proll"))) == 2

    def test_file_naming_an_over_long_piece_excluded(self, tmp_path, caplog):
        write_corpus_midi(tmp_path / "midi", n_pieces=1)
        (tmp_path / "midi" / "huge.mid").write_bytes(smf.single_note_file(tpq=1, off=0x0FFFFFFF))
        assert main(["preprocess", "--in", str(tmp_path / "midi"),
                     "--out", str(tmp_path / "rolls")]) == 0
        assert [p.name for p in (tmp_path / "rolls").glob("*.proll")] == ["piece0.proll"]
        assert "excluded huge.mid" in caplog.text

    def test_two_files_of_one_stem_are_an_error_and_write_nothing(self, tmp_path, capsys):
        write_corpus_midi(tmp_path / "midi", n_pieces=2)
        (tmp_path / "midi" / "piece0.MIDI").write_bytes((tmp_path / "midi" / "piece1.mid").read_bytes())
        code = main(["preprocess", "--in", str(tmp_path / "midi"),
                     "--out", str(tmp_path / "rolls")])
        assert code == 1
        midi = tmp_path / "midi"
        assert single_error_line(capsys) == (
            f"error: {midi / 'piece0.MIDI'} and {midi / 'piece0.mid'} would both write piece0.proll")
        assert not (tmp_path / "rolls").exists()

    def test_roll_and_ssm_agree(self, tmp_path):
        write_corpus_midi(tmp_path / "midi", n_pieces=1)
        main(["preprocess", "--in", str(tmp_path / "midi"), "--out", str(tmp_path / "rolls")])
        roll = load_proll(next((tmp_path / "rolls").glob("*.proll")))
        matrix = load_ssm(next((tmp_path / "rolls").glob("*.ssm")))
        assert matrix.n == roll.n_samples


class TestEndToEnd:
    def _train(self, tmp_path, out_name, seed=5, extra=()):
        corpus = tmp_path / "corpus"
        if not corpus.exists():
            write_corpus_prolls(corpus, n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        if not plan.exists():
            assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                         "--grid-k", "2", "--grid-count", "4", "--max-len", "24",
                         "--batch-cap", "2", "--seed", str(seed)]) == 0
        args = ["train", "--in", str(corpus), "--plan", str(plan),
                "--out", str(tmp_path / out_name), "--epochs", "2", "--hidden", "6",
                "--seed-len", "4", "--seed", str(seed), "--lr", "0.01"]
        args += list(extra)
        assert main(args) == 0
        return tmp_path / out_name

    def test_train_writes_checkpoints_and_report(self, tmp_path):
        out = self._train(tmp_path, "ckpt")
        assert (out / "epoch_0.ckpt").exists()
        assert (out / "epoch_1.ckpt").exists()
        assert (out / "best.ckpt").exists()
        assert (out / "model_config.txt").exists()
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "epoch,train_loss,val_loss,seconds"
        assert len(report) == 3

    def test_generate_deterministic_for_fixed_seed(self, tmp_path):
        out = self._train(tmp_path, "ckpt")
        corpus = tmp_path / "corpus"
        seed_piece = str(next(corpus.glob("*.proll")))
        template = tmp_path / "template.ssm"
        spec = tmp_path / "spec.txt"
        spec.write_text("length=20\nbackground=0.1\nblock=0,10,0.9\n")
        main(["synth-ssm", "--in", str(spec), "--out", str(template)])
        for tag in ("a", "b"):
            assert main(["generate", "--checkpoint", str(out / "best.ckpt"),
                         "--in", seed_piece, "--template", str(template),
                         "--out", str(tmp_path / f"gen_{tag}"), "--seed", "77"]) == 0
        assert (tmp_path / "gen_a.proll").read_bytes() == (tmp_path / "gen_b.proll").read_bytes()
        assert (tmp_path / "gen_a.mid").read_bytes() == (tmp_path / "gen_b.mid").read_bytes()
        roll = load_proll(tmp_path / "gen_a.proll")
        assert roll.n_samples == 20

    def test_evaluate_writes_csv(self, tmp_path):
        out = self._train(tmp_path, "ckpt")
        result = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(tmp_path / "corpus"),
                     "--out", str(result), "--generator", "sing",
                     "--checkpoint", str(out / "best.ckpt"),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24",
                     "--seed", "3"]) == 0
        lines = result.read_text().strip().splitlines()
        assert lines[0] == "piece_id,generation_index,std_mse"
        assert lines[-1].startswith("mean,sing,")

    def test_evaluate_random_needs_no_checkpoint(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus_prolls(corpus, n_pieces=3, n=24)
        result = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(corpus), "--out", str(result),
                     "--generator", "random", "--grid-k", "2", "--grid-count", "4",
                     "--max-len", "24", "--seed", "3"]) == 0
        assert "mean,random," in result.read_text()

    def test_generate_prefixes_that_differ_after_a_dot_write_apart(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "model", hidden_size=6, seed_len=4)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        gen = tmp_path / "gen"
        for take in ("take.1", "take.2"):
            assert main(["generate", "--checkpoint", str(ckpt),
                         "--in", str(tmp_path / "corpus" / "piece0.proll"),
                         "--template", str(tmp_path / "t.ssm"), "--out", str(gen / take)]) == 0
            assert capsys.readouterr().out == (
                f"generate: wrote {gen / take}.proll and {gen / take}.mid\n")
        assert sorted(path.name for path in gen.iterdir()) == [
            "take.1.mid", "take.1.proll", "take.2.mid", "take.2.proll"]

    def test_random_baseline_on_a_range_narrower_than_max_notes(self, tmp_path):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        model_cfg = ModelConfig(seed_len=6, max_notes=3, pitch_lo=60, pitch_hi=61)
        (tmp_path / "model.txt").write_text(model_cfg.to_text())
        result = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(result),
                     "--generator", "random", "--model-config", str(tmp_path / "model.txt"),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24"]) == 0
        assert "mean,random," in result.read_text()

    def test_generator_checkpoint_mismatch_rejected(self, tmp_path, capsys):
        out = self._train(tmp_path, "ckpt")  # attention model
        code = main(["evaluate", "--in", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "eval.csv"), "--generator", "ablated",
                     "--checkpoint", str(out / "best.ckpt")])
        assert code == 1
        assert "ablated" in capsys.readouterr().err


class TestOneSourcePerSetting:
    def test_removed_flags_are_gone(self, capsys):
        for verb, gone in {
            "train": ["--max-len"],
            "generate": ["--ablated"],
            "evaluate": ["--seed-len", "--top-k", "--max-notes", "--pitch-lo", "--pitch-hi",
                         "--ablated", "--batch-cap"],
        }.items():
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            text = capsys.readouterr().out
            for flag in gone:
                assert f"{flag} " not in text, (verb, flag)

    def test_random_generator_reads_model_config(self, tmp_path, monkeypatch):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        model_cfg = ModelConfig(seed_len=6, top_k=5, max_notes=1, pitch_lo=60, pitch_hi=64)
        (tmp_path / "model.txt").write_text(model_cfg.to_text())
        seen, real = [], evaluation.random_baseline

        def spy(n, cfg, rng):
            seen.append(cfg)
            return real(n, cfg, rng)

        monkeypatch.setattr(evaluation, "random_baseline", spy)
        assert main(["evaluate", "--in", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "eval.csv"), "--generator", "random",
                     "--model-config", str(tmp_path / "model.txt"), "--grid-k", "2",
                     "--grid-count", "4", "--max-len", "24"]) == 0
        assert seen and all(cfg == model_cfg for cfg in seen)

    @pytest.mark.parametrize(
        "line",
        ["piece0,0,30,20", "piece0,0,30,30", "piece0,0,10,10"],
    )
    def test_plan_segment_that_does_not_fit_fails_before_writing(self, tmp_path, capsys, line):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        plan = tmp_path / "plan.txt"
        plan.write_text(f"{line}\nbatch: 0\n")
        out = tmp_path / "ckpt"
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--out", str(out), "--epochs", "1", "--hidden", "6", "--seed-len", "4"])
        assert code == 1
        assert "'piece0'" in single_error_line(capsys)
        assert not out.exists()

    def test_plan_segment_no_longer_than_seed_fails_before_writing(self, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=8)
        plan = tmp_path / "plan.txt"
        plan.write_text("piece0,0,8,8\nbatch: 0\n")
        out = tmp_path / "ckpt"
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--out", str(out), "--epochs", "1", "--hidden", "6"])
        assert code == 1
        assert "piece0[0] has 8 samples" in single_error_line(capsys)
        assert not out.exists()

    def test_plan_naming_an_unknown_piece(self, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        plan = tmp_path / "plan.txt"
        plan.write_text("nosuch,0,24,24\nbatch: 0\n")
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--out", str(tmp_path / "ckpt"), "--epochs", "1", "--hidden", "6"])
        assert code == 1
        assert single_error_line(capsys) == "error: plan references unknown piece 'nosuch'"


class TestArgumentHandling:
    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_lists_documented_defaults(self, capsys):
        for verb, expectations in {
            "train": ["0.8", "0.001", "128", "10", "50", "20", "107"],
            "batch-plan": ["10", "16", "700", "100", "0.04"],
            "evaluate": ["3"],
        }.items():
            with pytest.raises(SystemExit) as exc:
                main([verb, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "--seed" in text
            for token in expectations:
                assert f"default: {token}" in text, (verb, token)

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_that_is_no_non_negative_integer_is_rejected_while_parsing(
            self, seed, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        with pytest.raises(SystemExit) as exc:
            main(["batch-plan", "--in", str(tmp_path / "corpus"),
                  "--out", str(tmp_path / "plan.txt"), "--seed", seed])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"sing batch-plan: error: argument --seed: expected a non-negative integer, "
            f"got '{seed}'")
        assert not (tmp_path / "plan.txt").exists()

    def test_val_help_states_one_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        assert flag_help(capsys.readouterr().out, "--val").strip() == (
            "--val VAL validation .proll directory (default: training corpus)")

    def test_empty_val_means_the_training_corpus(self, tmp_path):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=2, n=24)
        plan = tmp_path / "plan.txt"
        plan.write_text("piece0,0,24,24\nbatch: 0\n")
        val_losses = []
        for k, val in enumerate([[], ["--val", ""]]):
            out = tmp_path / f"ckpt{k}"
            assert main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                         "--out", str(out), "--epochs", "1", "--hidden", "6", *val]) == 0
            with open(out / "report.csv", newline="") as handle:
                val_losses.append([row["val_loss"] for row in csv.DictReader(handle)])
        assert val_losses[0] == val_losses[1]

    def test_config_file_overrides_defaults_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("batch.cap = 7\ngrid.count = 5\n")
        corpus = tmp_path / "corpus"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        assert main(["batch-plan", "--config", str(cfg), "--in", str(corpus),
                     "--out", str(plan), "--grid-k", "2", "--max-len", "24",
                     "--batch-cap", "2"]) == 0
        # cap 2 from the flag (overriding config's 7): 4 pieces -> 2 batches
        text = plan.read_text()
        assert sum(1 for line in text.splitlines() if line.startswith("batch:")) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("nonsense.key = 3\n")
        assert main(["render-ssm", "--config", str(cfg), "--in", "x", "--out", "y"]) == 1
        assert "nonsense.key" in capsys.readouterr().err

    def test_sing_log_env_controls_verbosity(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("SING_LOG", "info")
        write_corpus_midi(tmp_path / "midi", n_pieces=1)
        with caplog.at_level(logging.INFO):
            assert main(["preprocess", "--in", str(tmp_path / "midi"),
                         "--out", str(tmp_path / "rolls")]) == 0

    @pytest.mark.parametrize("value", ["basic_format", "_styles"])
    def test_sing_log_naming_no_level_falls_back_to_warning(self, tmp_path, value):
        """In a fresh interpreter: under pytest the root logger already has a
        handler, so basicConfig would ignore the level it is given."""
        script = ("import logging; from sing.cli import main; "
                  "code = main(['render-ssm', '--in', 'missing.ssm', '--out', 'x.pgm']); "
                  "print(code, logging.getLogger().level)")
        env = {**os.environ, "SING_LOG": value, "PYTHONPATH": str(Path(sing.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.stderr == "error: missing.ssm: No such file or directory\n"
        assert result.stdout.split() == ["1", str(logging.WARNING)]

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        """A valid spec whose 16384 x 16384 matrix (2 GiB) does not fit the
        1.5 GiB address space that the child process gives itself."""
        (tmp_path / "spec.txt").write_text("length=16384\n")
        script = ("import resource, sys; limit = 3 << 29; "
                  "resource.setrlimit(resource.RLIMIT_AS, "
                  "(limit, resource.getrlimit(resource.RLIMIT_AS)[1])); "
                  "from sing.cli import main; "
                  "sys.exit(main(['synth-ssm', '--in', 'spec.txt', '--out', 'big.ssm']))")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(sing.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr == "error: out of memory (synth-ssm)\n"
        assert not (tmp_path / "big.ssm").exists()


class TestAblatedFlag:
    def test_evaluate_ablated_alias(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24",
                     "--batch-cap", "2", "--seed", "5"]) == 0
        out = tmp_path / "ckpt"
        assert main(["train", "--in", str(corpus), "--plan", str(plan),
                     "--out", str(out), "--epochs", "1", "--hidden", "6",
                     "--seed-len", "4", "--seed", "5",
                     "--ablated"]) == 0
        result = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(corpus), "--out", str(result),
                     "--generator", "ablated", "--checkpoint", str(out / "best.ckpt"),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24",
                     "--seed", "3"]) == 0
        assert "mean,ablated," in result.read_text()

    def test_generate_from_ablated_checkpoint_needs_no_flag(self, tmp_path):
        """The model kind comes from model_config.txt alone."""
        corpus = tmp_path / "corpus"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan), "--grid-k", "2",
                     "--grid-count", "4", "--max-len", "24", "--batch-cap", "2",
                     "--seed", "5"]) == 0
        out = tmp_path / "ckpt"
        assert main(["train", "--in", str(corpus), "--plan", str(plan), "--out", str(out),
                     "--epochs", "1", "--hidden", "6", "--seed-len", "4", "--seed", "5",
                     "--ablated"]) == 0
        spec = tmp_path / "spec.txt"
        spec.write_text("length=20\n")
        assert main(["synth-ssm", "--in", str(spec), "--out", str(tmp_path / "t.ssm")]) == 0
        assert main(["generate", "--checkpoint", str(out / "best.ckpt"),
                     "--in", str(next(corpus.glob("*.proll"))),
                     "--template", str(tmp_path / "t.ssm"),
                     "--out", str(tmp_path / "gen")]) == 0
        roll = load_proll(tmp_path / "gen.proll")
        assert roll.n_samples == 20
        model = load_model(out / "best.ckpt", ModelConfig.from_text(
            (out / "model_config.txt").read_text()))
        assert "head.W" in model.params.values


class TestBadInputs:
    def test_seed_tempo_midi_cannot_hold_fails_before_writing(self, tmp_path, capsys):
        """A .proll may hold any positive tempo; MIDI needs about 3.58 per minute."""
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        seed = tmp_path / "slow.proll"
        data = np.zeros((128, 24), np.uint8)
        data[60] = 1
        save_proll(PianoRoll(data=data, tempo=1.0), seed)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        code = main(["generate", "--checkpoint", str(ckpt), "--in", str(seed),
                     "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "out" / "gen")])
        assert code == 1
        assert single_error_line(capsys) == f"error: {seed}: tempo 1.0 not representable in MIDI"
        assert not (tmp_path / "out").exists()

    def test_input_directory_with_nothing_to_read_is_named_first(self, tmp_path, capsys):
        empty, corpus, plan = tmp_path / "empty", tmp_path / "corpus", tmp_path / "plan.txt"
        empty.mkdir()
        assert main(["preprocess", "--in", str(empty), "--out", str(tmp_path / "rolls")]) == 1
        assert single_error_line(capsys) == f"error: {empty}: no MIDI files"
        assert main(["batch-plan", "--in", str(empty), "--out", str(plan)]) == 1
        assert single_error_line(capsys) == f"error: {empty}: no .proll files"
        write_corpus_prolls(corpus, n_pieces=2, n=24)
        plan.write_text("piece0,0,24,24\nbatch: 0\n")
        assert main(["train", "--in", str(corpus), "--plan", str(plan), "--val", str(empty),
                     "--out", str(tmp_path / "ckpt"), "--epochs", "1", "--hidden", "6"]) == 1
        assert single_error_line(capsys) == f"error: {empty}: no .proll files"
        assert not (tmp_path / "ckpt").exists()

    def test_nan_template_is_an_error_not_a_traceback(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        save_ssm(SelfSimilarityMatrix(values=np.full((20, 20), np.nan)), tmp_path / "nan.ssm")
        code = main(["generate", "--checkpoint", str(ckpt),
                     "--in", str(tmp_path / "corpus" / "piece0.proll"),
                     "--template", str(tmp_path / "nan.ssm"), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert "non-finite" in single_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--grid-count", "--max-len"])
    def test_grid_past_the_sample_cap_is_an_error_and_writes_no_plan(self, tmp_path, capsys, flag):
        """train could not read back a target above MAX_SAMPLES, so batch-plan writes none."""
        write_corpus_prolls(tmp_path / "corpus", n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        grid = {"--grid-count": "4", "--max-len": "24", flag: str(MAX_SAMPLES + 1)}
        code = main(["batch-plan", "--in", str(tmp_path / "corpus"), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", grid["--grid-count"],
                     "--max-len", grid["--max-len"]])
        assert code == 1
        assert f"exceeds MAX_SAMPLES ({MAX_SAMPLES})" in single_error_line(capsys)
        assert not plan.exists()

    def test_over_long_validation_roll_fails_before_writing(self, tmp_path, capsys):
        corpus, plan, out = tmp_path / "corpus", tmp_path / "plan.txt", tmp_path / "ckpt"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24"]) == 0
        (tmp_path / "val").mkdir()
        long_roll = PianoRoll(data=np.zeros((128, MAX_SAMPLES + 1), np.uint8), tempo=120.0)
        save_proll(long_roll, tmp_path / "val" / "long.proll")
        capsys.readouterr()
        code = main(["train", "--in", str(corpus), "--plan", str(plan), "--val",
                     str(tmp_path / "val"), "--out", str(out), "--epochs", "1", "--hidden", "6",
                     "--seed-len", "4"])
        assert code == 1
        assert f"more than {MAX_SAMPLES}" in single_error_line(capsys)
        assert not out.exists()

    def test_directory_as_input_file_is_an_error(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        folder = tmp_path / "folder"
        folder.mkdir()
        for argv in (
            ["generate", "--checkpoint", str(ckpt), "--in", str(folder),
             "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")],
            ["render-ssm", "--in", str(folder), "--out", str(tmp_path / "x.pgm")],
        ):
            assert main(argv) == 1, argv[0]
            assert "folder" in single_error_line(capsys)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_evaluate_needs_at_least_one_generation(self, tmp_path, capsys, count):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        result = tmp_path / "eval.csv"
        code = main(["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(result),
                     "--generator", "random", "--grid-k", "2", "--grid-count", "4",
                     "--max-len", "24", "--generations", count])
        assert code == 1
        assert "generations" in single_error_line(capsys)
        assert not result.exists()

    def test_train_needs_at_least_one_epoch_and_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24"]) == 0
        capsys.readouterr()
        out = tmp_path / "ckpt"
        out.mkdir()
        code = main(["train", "--in", str(corpus), "--plan", str(plan), "--out", str(out),
                     "--epochs", "0", "--hidden", "6", "--seed-len", "4"])
        assert code == 1
        assert "epochs" in single_error_line(capsys)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bound", ["nan", "-0.01"])
    def test_max_edit_must_be_a_non_negative_number(self, tmp_path, capsys, bound):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=4, n=24)
        plan = tmp_path / "plan.txt"
        code = main(["batch-plan", "--in", str(tmp_path / "corpus"), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24", "--max-edit", bound])
        assert code == 1
        assert "max edit fraction must be >= 0" in single_error_line(capsys)
        assert not plan.exists()

    def test_infinite_lr_is_an_error_and_writes_nothing(self, tmp_path, capsys):
        corpus, plan, out = tmp_path / "corpus", tmp_path / "plan.txt", tmp_path / "ckpt"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24"]) == 0
        capsys.readouterr()
        code = main(["train", "--in", str(corpus), "--plan", str(plan), "--out", str(out),
                     "--epochs", "1", "--hidden", "6", "--seed-len", "4", "--lr", "inf"])
        assert code == 1
        assert "positive" in single_error_line(capsys)
        assert not out.exists()

    def test_nan_checkpoint_is_an_error_and_writes_nothing(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        model = load_model(ckpt, ModelConfig(hidden_size=6, seed_len=4))
        model.params["lstm.W_h"][1, 2] = np.nan
        save_model(model, ckpt)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        for argv in (
            ["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(tmp_path / "eval.csv"),
             "--checkpoint", str(ckpt), "--grid-k", "2", "--grid-count", "4", "--max-len", "24"],
            ["generate", "--checkpoint", str(ckpt), "--in", str(tmp_path / "corpus" / "piece0.proll"),
             "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")],
        ):
            assert main(argv) == 1, argv[0]
            assert "'lstm.W_h' holds non-finite" in single_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "corpus", "t.ssm"]

    def test_non_finite_input_weight_no_sample_uses_names_the_piece(self, tmp_path, capsys,
                                                                     monkeypatch):
        """The checkpoint reader rejects NaN, so the model is poisoned as it
        loads: NaN in the input weights of pitch 0, which no roll holds and
        the sampler (pitch_lo 20) never draws."""
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)

        def poisoned(path, cfg):
            model = load_model(path, cfg)
            model.params["lstm.W_x"][:, 0] = np.nan
            return model

        monkeypatch.setattr("sing.cli.load_model", poisoned)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(out),
                     "--checkpoint", str(ckpt), "--grid-k", "2", "--grid-count", "4",
                     "--max-len", "24"]) == 1
        line = single_error_line(capsys)
        assert "piece piece0[0]: " in line and "'lstm.W_x' holds non-finite" in line
        assert not out.exists()

    def test_truncated_roll_in_a_directory_is_named(self, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=3, n=24)
        bad = tmp_path / "corpus" / "piece1.proll"
        bad.write_bytes(bad.read_bytes()[:-5])
        code = main(["evaluate", "--in", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "eval.csv"), "--generator", "random"])
        assert code == 1
        assert single_error_line(capsys).startswith(f"error: {bad}: PRoll payload is")

    def test_truncated_template_is_named(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        template = tmp_path / "t.ssm"
        save_ssm(synth_ssm(SynthSpec(length=20)), template)
        template.write_bytes(template.read_bytes()[:-3])
        code = main(["generate", "--checkpoint", str(ckpt),
                     "--in", str(tmp_path / "corpus" / "piece0.proll"),
                     "--template", str(template), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert single_error_line(capsys) == f"error: {template}: SSM payload size mismatch"

    def test_template_no_longer_than_the_seed_is_named(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=10)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        template = tmp_path / "t.ssm"
        save_ssm(synth_ssm(SynthSpec(length=8)), template)
        code = main(["generate", "--checkpoint", str(ckpt),
                     "--in", str(tmp_path / "corpus" / "piece0.proll"),
                     "--template", str(template), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert single_error_line(capsys) == (
            f"error: {template}: template has 8 samples, no more than seed length 10")
        assert not (tmp_path / "gen.proll").exists()

    def test_empty_ssm_is_named_and_renders_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.ssm"
        empty.write_bytes(b"SINGSSM\x00" + bytes(4))
        code = main(["render-ssm", "--in", str(empty), "--out", str(tmp_path / "x.pgm")])
        assert code == 1
        assert single_error_line(capsys) == f"error: {empty}: SSM is 0 x 0"
        assert not (tmp_path / "x.pgm").exists()

    def test_bad_plan_batch_line_is_named(self, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        plan = tmp_path / "plan.txt"
        plan.write_text("piece0,0,24,24\nbatch: x\n")
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--out", str(tmp_path / "ckpt"), "--epochs", "1", "--hidden", "6"])
        assert code == 1
        assert single_error_line(capsys).startswith(f"error: {plan}: line 2: invalid literal")

    @pytest.mark.parametrize("batch_line, problem", [
        ("batch: ", "line 3: empty batch"),
        ("batch: 0", "line 3: assignment 0 is batched twice"),
    ])
    def test_bad_plan_batches_are_named_and_train_writes_nothing(
        self, tmp_path, capsys, batch_line, problem
    ):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        plan, out = tmp_path / "plan.txt", tmp_path / "ckpt"
        plan.write_text(f"piece0,0,24,24\nbatch: 0\n{batch_line}\n")
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--out", str(out), "--epochs", "1", "--hidden", "6", "--seed-len", "4"])
        assert code == 1
        assert single_error_line(capsys).startswith(f"error: {plan}: {problem}")
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["fractional_step", "moment_shape"])
    def test_checkpoint_off_the_writer_layout_is_named(self, tmp_path, capsys, defect):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        model = load_model(ckpt, ModelConfig.from_text((ckpt.parent / "model_config.txt").read_text()))
        if defect == "fractional_step":
            model.params.step = 2.5
            message = "checkpoint tensor 'adam/step' is [2.5], not one whole number >= 0"
        else:
            model.params.m["lstm.b"] = np.zeros(5)
            message = "checkpoint tensor 'adam/m/lstm.b' (5,) where 'adam/m/lstm.b' (24,) belongs"
        save_model(model, ckpt)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        code = main(["generate", "--checkpoint", str(ckpt),
                     "--in", str(tmp_path / "corpus" / "piece0.proll"),
                     "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert single_error_line(capsys) == f"error: {ckpt}: {message}"
        assert not (tmp_path / "gen.proll").exists()

    @pytest.mark.parametrize("case, message", [
        ("per_pitch_under_dense", "'combine.b' (1,) where 'combine.W' (128, 256) belongs"),
        ("extra_parameter", "'zz.extra' (2,) where 'adam/step' (1,) belongs"),
        ("hidden_size", "'combine.W' (128, 134) where 'combine.W' (128, 132) belongs"),
    ])
    def test_checkpoint_of_another_model_is_named_by_its_first_tensor(
        self, tmp_path, capsys, case, message
    ):
        """The checkpoint does not fit the model its model_config.txt builds:
        generate and evaluate each name the first differing tensor and write nothing."""
        if case == "per_pitch_under_dense":
            ckpt = write_untrained_model(tmp_path / "ckpt", combiner_mode="per_pitch",
                                         hidden_size=128, seed_len=4)
            cfg = ModelConfig(hidden_size=128, seed_len=4)
        else:
            ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
            cfg = ModelConfig(hidden_size=4 if case == "hidden_size" else 6, seed_len=4)
        if case == "extra_parameter":
            model = load_model(ckpt, cfg)
            model.params.add("zz.extra", np.zeros(2))
            save_model(model, ckpt)
        (ckpt.parent / "model_config.txt").write_text(cfg.to_text())
        write_corpus_prolls(tmp_path / "corpus", n_pieces=2, n=24)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        for argv, output in (
            (["generate", "--checkpoint", str(ckpt),
              "--in", str(tmp_path / "corpus" / "piece0.proll"),
              "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")],
             tmp_path / "gen.proll"),
            (["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(tmp_path / "eval.csv"),
              "--checkpoint", str(ckpt), "--grid-k", "2", "--grid-count", "4",
              "--max-len", "24"],
             tmp_path / "eval.csv"),
        ):
            assert main(argv) == 1, argv[0]
            assert single_error_line(capsys) == f"error: {ckpt}: checkpoint tensor {message}"
            assert not output.exists(), argv[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "corpus", "t.ssm"]

    def test_seed_shorter_than_the_seed_length_is_named(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=10)
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=6)
        seed = tmp_path / "corpus" / "piece0.proll"
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        code = main(["generate", "--checkpoint", str(ckpt), "--in", str(seed),
                     "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert single_error_line(capsys) == f"error: {seed}: seed piece has 6 samples, need 10"
        assert not (tmp_path / "gen.proll").exists()

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("grid.k = abc\n")
        assert main(["batch-plan", "--config", str(cfg), "--in", "x", "--out", "y"]) == 1
        assert single_error_line(capsys).startswith(f"error: {cfg}: grid.k: invalid literal")

    @pytest.mark.parametrize("hidden", ["2049", "8000"])
    def test_hidden_size_past_the_ceiling_is_named_before_a_model_is_built(
            self, tmp_path, capsys, monkeypatch, hidden):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        model_config = tmp_path / "ckpt" / "model_config.txt"
        model_config.write_text(f"hidden_size = {hidden}\nseed_len = 4\n")
        corpus, plan = tmp_path / "corpus", tmp_path / "plan.txt"
        write_corpus_prolls(corpus, n_pieces=4, n=24)
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24"]) == 0
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        capsys.readouterr()

        def unbuilt(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(Model, "__init__", unbuilt)
        message = f"hidden_size {hidden} outside 1..2048"
        for argv in (
            ["evaluate", "--in", str(corpus), "--out", str(tmp_path / "eval.csv"),
             "--checkpoint", str(ckpt), "--grid-k", "2", "--grid-count", "4", "--max-len", "24"],
            ["generate", "--checkpoint", str(ckpt), "--in", str(corpus / "piece0.proll"),
             "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")],
        ):
            assert main(argv) == 1, argv[0]
            assert single_error_line(capsys) == f"error: {model_config}: {message}"
        out = tmp_path / "trained"
        assert main(["train", "--in", str(corpus), "--plan", str(plan), "--out", str(out),
                     "--epochs", "1", "--hidden", hidden, "--seed-len", "4"]) == 1
        assert single_error_line(capsys) == f"error: {message}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "corpus", "plan.txt", "t.ssm"]

    def test_checkpoint_config_mismatch_names_tensors(self, tmp_path, capsys):
        ckpt = write_untrained_model(tmp_path / "ckpt", hidden_size=6, seed_len=4)
        ablated = tmp_path / "ablated.txt"
        ablated.write_text(ModelConfig(hidden_size=6, seed_len=4, attention_enabled=False).to_text())
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        save_ssm(synth_ssm(SynthSpec(length=20)), tmp_path / "t.ssm")
        code = main(["generate", "--checkpoint", str(ckpt), "--model-config", str(ablated),
                     "--in", str(tmp_path / "corpus" / "piece0.proll"),
                     "--template", str(tmp_path / "t.ssm"), "--out", str(tmp_path / "gen")])
        assert code == 1
        assert single_error_line(capsys) == (
            f"error: {ckpt}: checkpoint tensor 'combine.W' (128, 134) where 'head.W' (128, 6) belongs")


class TestMissingOutputDirectory:
    """A verb that writes into a directory that does not exist names the path;
    batch-plan and evaluate also name an output that is a directory."""

    def _argv(self, verb, tmp_path):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=4, n=24)
        spec = tmp_path / "spec.txt"
        spec.write_text("length=8\n")
        save_ssm(synth_ssm(SynthSpec(length=8)), tmp_path / "t.ssm")
        out = tmp_path / "nodir" / {"batch-plan": "plan.txt", "evaluate": "s.csv",
                                    "render-ssm": "t.pgm", "synth-ssm": "t.ssm"}[verb]
        inputs = {"batch-plan": [tmp_path / "corpus", "--grid-k", "2", "--grid-count", "4",
                                 "--max-len", "24"],
                  "evaluate": [tmp_path / "corpus", "--generator", "random", "--grid-k", "2",
                               "--grid-count", "4", "--max-len", "24"],
                  "render-ssm": [tmp_path / "t.ssm"],
                  "synth-ssm": [spec]}[verb]
        return [verb, "--in", *map(str, inputs), "--out", str(out)], out

    @pytest.mark.parametrize("verb", ["batch-plan", "evaluate", "render-ssm", "synth-ssm"])
    def test_error_names_the_output_path(self, verb, tmp_path, capsys):
        argv, out = self._argv(verb, tmp_path)
        assert main(argv) == 1
        assert single_error_line(capsys) == f"error: {out}: No such file or directory"
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("verb", ["batch-plan", "evaluate"])
    def test_checked_before_any_roll_is_read_or_planned(self, verb, tmp_path, capsys,
                                                        monkeypatch):
        argv, out = self._argv(verb, tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{verb} worked before checking {out}")

        monkeypatch.setattr("sing.midi_io.load_proll", refuse)
        monkeypatch.setattr("sing.training.prepare_corpus", refuse)
        assert main(argv) == 1
        assert single_error_line(capsys) == f"error: {out}: No such file or directory"

    @pytest.mark.parametrize("verb", ["batch-plan", "evaluate"])
    def test_output_naming_a_directory_is_rejected_before_any_roll_is_read(
            self, verb, tmp_path, capsys, monkeypatch):
        argv, _ = self._argv(verb, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        argv[-1] = str(out)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{verb} worked before checking {out}")

        monkeypatch.setattr("sing.midi_io.load_proll", refuse)
        assert main(argv) == 1
        assert single_error_line(capsys) == f"error: {out}: Is a directory"


class TestPathMessages:
    """An input or output path of the wrong kind, or missing, is named first,
    by one rule: error: <path>: <what the OS said>."""

    @pytest.mark.parametrize("argv, message", [
        (["preprocess", "--in", "afile", "--out", "rolls"], "afile: Not a directory"),
        (["batch-plan", "--in", "afile", "--out", "plan.txt"], "afile: Not a directory"),
        (["synth-ssm", "--in", "spec.txt", "--out", "adir"], "adir: Is a directory"),
        (["render-ssm", "--in", "adir", "--out", "x.pgm"], "adir: Is a directory"),
        (["train", "--in", "corpus", "--plan", "plan.txt", "--out", "afile", "--epochs", "1",
          "--hidden", "6", "--seed-len", "4"], "afile: File exists"),
        (["render-ssm", "--config", "adir", "--in", "t.ssm", "--out", "x.pgm"],
         "adir: Is a directory"),
        (["render-ssm", "--in", "missing.ssm", "--out", "x.pgm"],
         "missing.ssm: No such file or directory"),
    ])
    def test_named_with_the_reason(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("x\n")
        (tmp_path / "adir").mkdir()
        (tmp_path / "spec.txt").write_text("length=8\n")
        save_ssm(synth_ssm(SynthSpec(length=8)), tmp_path / "t.ssm")
        write_corpus_prolls(tmp_path / "corpus", n_pieces=1, n=24)
        (tmp_path / "plan.txt").write_text("piece0,0,24,24\nbatch: 0\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestPieceIds:
    """Any roll name without a line break goes through batch-plan and train."""

    def test_names_with_commas_hashes_and_spaces_plan_and_train(self, tmp_path):
        corpus, plan = tmp_path / "corpus", tmp_path / "plan.txt"
        write_corpus_prolls(corpus, n_pieces=3, n=24)
        names = ["take,0", "#0 etude", " take0"]
        for name in names:
            save_proll(load_proll(corpus / "piece0.proll"), corpus / f"{name}.proll")
        assert main(["batch-plan", "--in", str(corpus), "--out", str(plan), "--grid-k", "2",
                     "--grid-count", "4", "--max-len", "24", "--batch-cap", "2"]) == 0
        assert set(names) < {a.piece_id for a in load_plan(plan).assignments}
        assert main(["train", "--in", str(corpus), "--plan", str(plan), "--out",
                     str(tmp_path / "ckpt"), "--epochs", "1", "--hidden", "6",
                     "--seed-len", "4"]) == 0

    def test_name_with_a_line_break_is_an_error_and_writes_no_plan(self, tmp_path, capsys):
        corpus, plan = tmp_path / "corpus", tmp_path / "plan.txt"
        write_corpus_prolls(corpus, n_pieces=3, n=24)
        (corpus / "piece1.proll").rename(corpus / "take\n1.proll")
        code = main(["batch-plan", "--in", str(corpus), "--out", str(plan), "--grid-k", "2",
                     "--grid-count", "4", "--max-len", "24"])
        assert code == 1
        assert single_error_line(capsys) == "error: piece id 'take\\n1' holds a line break"
        assert not plan.exists()


def write_rolls(directory, lengths):
    """One .proll of a held two-note chord per length, named roll<i>."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, n in enumerate(lengths):
        data = np.zeros((128, n), dtype=np.uint8)
        data[[60, 64]] = 1
        save_proll(PianoRoll(data=data, tempo=120.0), directory / f"roll{i}.proll")


class TestNothingToDo:
    """A run with nothing to train on, validate or score fails before writing."""

    @pytest.mark.parametrize("with_val", [True, False])
    def test_empty_plan(self, tmp_path, capsys, with_val):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=2, n=24)
        plan, out = tmp_path / "plan.txt", tmp_path / "ckpt"
        plan.write_text("")
        argv = ["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                "--out", str(out), "--epochs", "1", "--hidden", "6", "--seed-len", "4"]
        if with_val:
            argv += ["--val", str(tmp_path / "corpus")]
        assert main(argv) == 1
        assert "plan batches no segment" in single_error_line(capsys)
        assert not out.exists()

    def test_validation_pieces_no_longer_than_the_seed(self, tmp_path, capsys):
        write_corpus_prolls(tmp_path / "corpus", n_pieces=2, n=24)
        write_rolls(tmp_path / "val", [5, 8])
        plan, out = tmp_path / "plan.txt", tmp_path / "ckpt"
        plan.write_text("piece0,0,24,24\nbatch: 0\n")
        code = main(["train", "--in", str(tmp_path / "corpus"), "--plan", str(plan),
                     "--val", str(tmp_path / "val"), "--out", str(out), "--epochs", "1",
                     "--hidden", "6"])
        assert code == 1
        assert "seed length 10" in single_error_line(capsys)
        assert not out.exists()

    def test_evaluate_scoring_no_piece(self, tmp_path, capsys):
        write_rolls(tmp_path / "corpus", [6, 7, 8])
        result = tmp_path / "eval.csv"
        code = main(["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(result),
                     "--generator", "random", "--grid-k", "2", "--grid-count", "4",
                     "--max-len", "8"])
        assert code == 1
        assert "seed length 10" in single_error_line(capsys)
        assert not result.exists()

    def test_evaluate_scoring_some_pieces_counts_the_skipped(self, tmp_path):
        write_rolls(tmp_path / "corpus", [8, 24])
        result = tmp_path / "eval.csv"
        assert main(["evaluate", "--in", str(tmp_path / "corpus"), "--out", str(result),
                     "--generator", "random", "--grid-k", "1", "--max-len", "24",
                     "--generations", "1"]) == 0
        lines = result.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["roll1[0]", "mean", "skipped"]
        assert lines[-1] == "skipped,random,1"


# --config key -> (a verb with the flag it maps to, that flag, a non-default value)
CONFIG_CASES = {
    "grid.k": ("batch-plan", "--grid-k", "3"),
    "grid.count": ("batch-plan", "--grid-count", "5"),
    "grid.max_len": ("batch-plan", "--max-len", "321"),
    "batch.cap": ("batch-plan", "--batch-cap", "7"),
    "edit.max_fraction": ("batch-plan", "--max-edit", "0.125"),
    "model.hidden_size": ("train", "--hidden", "64"),
    "model.combiner_mode": ("train", "--combiner", "per_pitch"),
    "model.seed_len": ("train", "--seed-len", "6"),
    "model.top_k": ("train", "--top-k", "40"),
    "model.max_notes": ("train", "--max-notes", "2"),
    "model.pitch_lo": ("train", "--pitch-lo", "30"),
    "model.pitch_hi": ("train", "--pitch-hi", "90"),
    "train.p_feedback": ("train", "--p-feedback", "0.5"),
    "train.lr": ("train", "--lr", "0.02"),
    "train.epochs": ("train", "--epochs", "4"),
}


def test_config_cases_cover_every_key():
    assert set(CONFIG_CASES) == set(_CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(CONFIG_CASES))
def test_config_key_sets_its_flag_default(key, tmp_path, capsys):
    verb, flag, value = CONFIG_CASES[key]
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert f"(default: {value})" not in flag_help(capsys.readouterr().out, flag)
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(cfg), "--help"])
    assert exc.value.code == 0
    assert f"(default: {value})" in flag_help(capsys.readouterr().out, flag)


# the flags of the verbs that take settings; a table edit that adds or drops one shows here
VERB_FLAGS = {
    "batch-plan": {"-h", "--help", "--config", "--seed", "--in", "--out", "--grid-k",
                   "--grid-count", "--max-len", "--max-edit", "--batch-cap"},
    "train": {"-h", "--help", "--config", "--seed", "--in", "--plan", "--out", "--val",
              "--ablated", "--hidden", "--combiner", "--seed-len", "--top-k", "--max-notes",
              "--pitch-lo", "--pitch-hi", "--p-feedback", "--lr", "--epochs"},
    "evaluate": {"-h", "--help", "--config", "--seed", "--in", "--out", "--generator",
                 "--checkpoint", "--model-config", "--generations", "--grid-k", "--grid-count",
                 "--max-len", "--max-edit"},
}
REQUIRED = {"batch-plan": ["--in", "x", "--out", "y"],
            "train": ["--in", "x", "--plan", "p", "--out", "y"]}


def _verb_parsers():
    parser = cli._build_parser(cli._load_defaults([]))
    return next(a for a in parser._actions if a.dest == "verb").choices


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_verb_takes_exactly_its_flags(verb):
    assert {flag for action in _verb_parsers()[verb]._actions
            for flag in action.option_strings} == VERB_FLAGS[verb]


@pytest.mark.parametrize("key", sorted(CONFIG_CASES))
def test_config_key_flag_parses_to_the_type_of_its_default(key):
    verb, flag, value = CONFIG_CASES[key]
    _, dest, default, _ = _CONFIG_KEYS[key]
    parsed = getattr(_verb_parsers()[verb].parse_args([*REQUIRED[verb], flag, value]), dest)
    assert type(parsed) is type(default) and parsed == type(default)(value)


@pytest.mark.parametrize("key", sorted(CONFIG_CASES))
def test_config_key_flag_rejects_a_value_of_another_type(key, capsys):
    verb, flag, _ = CONFIG_CASES[key]
    wrong = "2.5" if isinstance(_CONFIG_KEYS[key][2], int) else "x"
    with pytest.raises(SystemExit) as exc:
        main([verb, *REQUIRED[verb], flag, wrong])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


HELP_ENTRIES = [(verb, action.option_strings[-1]) for verb, sub in _verb_parsers().items()
                for action in sub._actions if action.option_strings]


@pytest.mark.parametrize("verb, flag", HELP_ENTRIES)
def test_help_states_a_default_once_and_never_none(verb, flag, capsys):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    entry = flag_help(capsys.readouterr().out, flag)
    assert entry.split()[0] == flag
    assert "(default: None)" not in entry and entry.count("(default:") <= 1, entry
