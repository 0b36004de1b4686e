import csv
import io
import tracemalloc

import numpy as np
import pytest

from sing import evaluation, nn
from sing.evaluation import EvalRun, eval_run_to_csv, evaluate, random_baseline
from sing.midi_io import PianoRoll
from sing.model import Model, ModelConfig
from sing.structure import ATTENTION_BLOCK_ROWS, chroma, ssm


def block_piece(n: int, rng: np.random.Generator, source_id: str = "piece") -> PianoRoll:
    """Two-section piece: chroma-stable halves with disjoint pitch classes,
    labelled `<source_id>[0]` as a whole-piece item."""
    root = int(rng.integers(36, 60))
    chords = [[root, root + 4, root + 7], [root + 2, root + 5, root + 9]]
    data = np.zeros((128, n), dtype=np.uint8)
    for s in range(n):
        chord = chords[0] if s < n // 2 else chords[1]
        for pitch in chord:
            data[pitch + 12 * int(rng.integers(0, 2)), s] = 1
    return PianoRoll(data=data, tempo=120.0, source_id=f"{source_id}[0]")


class TestThresholdsPerPiece:
    """The attention thresholds are paid once per piece by the attention
    model, shared by its generations, and never by the ablated model or the
    random baseline."""

    @pytest.mark.parametrize("generator", evaluation.GENERATORS)
    def test_threshold_passes(self, monkeypatch, generator):
        lengths = (12, 70, 140)  # one, two and three 64-row blocks
        rng = np.random.default_rng(7)
        items = [block_piece(n, rng, f"p{n}") for n in lengths]
        cfg = ModelConfig(hidden_size=4, seed_len=4, attention_enabled=generator == "sing")
        model = None if generator == "random" else Model(cfg, rng=np.random.default_rng(8))
        rows, threshold = [], nn.sparsemax_threshold

        def counted(q):
            rows.append(len(q))
            return threshold(q)

        monkeypatch.setattr(nn, "sparsemax_threshold", counted)
        run = evaluate(items, cfg, np.random.default_rng(9), model=model)
        assert run.generator == generator and len(run.mses) == len(lengths)
        if generator != "sing":
            assert rows == []
        else:  # one call per weights block of a piece, each generated row once for all generations
            seed_len = cfg.seed_len
            assert len(rows) == sum(-(-(n - seed_len) // ATTENTION_BLOCK_ROWS) for n in lengths)
            assert sum(rows) == sum(n - seed_len for n in lengths)


class TestRandomBaseline:
    def test_three_distinct_pitches_in_range(self):
        cfg = ModelConfig()
        roll = random_baseline(50, cfg, np.random.default_rng(0))
        counts = roll.data.sum(axis=0)
        assert np.all(counts == 3)
        assert roll.data[:20].sum() == 0
        assert roll.data[108:].sum() == 0

    def test_deterministic_for_fixed_seed(self):
        cfg = ModelConfig()
        a = random_baseline(30, cfg, np.random.default_rng(7))
        b = random_baseline(30, cfg, np.random.default_rng(7))
        assert a == b

    def test_range_narrower_than_max_notes_plays_every_allowed_pitch(self):
        cfg = ModelConfig(pitch_lo=60, pitch_hi=61, max_notes=3)
        roll = random_baseline(20, cfg, np.random.default_rng(2))
        assert np.all(roll.data[[60, 61]] == 1)
        assert roll.data.sum() == 2 * 20

    def test_draws_max_notes_distinct_pitches_of_the_range_per_sample(self):
        """A range at least max_notes wide keeps the draws it always had."""
        cfg = ModelConfig(pitch_lo=60, pitch_hi=64, max_notes=3)
        roll = random_baseline(5, cfg, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for s in range(5):
            expected = np.sort(rng.choice(np.arange(60, 65), size=3, replace=False))
            assert np.flatnonzero(roll.data[:, s]).tolist() == expected.tolist()

    def test_pitch_histogram_uniform_within_three_sigma(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(1)
        n = 100_000
        roll = random_baseline(n, cfg, rng)
        counts = roll.data[20:108].sum(axis=1)
        p = 3.0 / 88.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestEvaluate:
    def test_identity_generator_scores_zero(self, monkeypatch):
        rng = np.random.default_rng(2)
        items = [block_piece(32, rng, f"p{i}") for i in range(3)]
        cfg = ModelConfig(hidden_size=4, seed_len=4)
        model = Model(cfg, rng=np.random.default_rng(3))

        def replay(model_, seed, template, rng_, tempo=120.0, source_id=""):
            for item in items:
                if ssm(chroma(item)) == template:
                    return item
            raise AssertionError("unknown template")

        monkeypatch.setattr("sing.evaluation.generate", replay)
        run = evaluate(items, cfg, np.random.default_rng(4), model=model)
        assert run.mean == pytest.approx(0.0, abs=1e-12)
        assert all(len(scores) == 3 for scores in run.mses)

    def test_random_baseline_near_two_on_block_templates(self):
        rng = np.random.default_rng(5)
        items = [block_piece(256, rng, f"p{i}") for i in range(2)]
        cfg = ModelConfig(seed_len=10)
        run = evaluate(items, cfg, np.random.default_rng(6))
        assert run.mean == pytest.approx(2.0, abs=0.15)

    def test_short_pieces_skipped_and_logged(self):
        rng = np.random.default_rng(7)
        items = [block_piece(32, rng, "ok"), block_piece(32, rng, "short")]
        items[1] = PianoRoll(data=items[1].data[:, :8], tempo=120.0, source_id="short[0]")
        cfg = ModelConfig(seed_len=10)
        run = evaluate(items, cfg, np.random.default_rng(8))
        assert run.piece_ids == ["ok[0]"]
        assert run.skipped == ["short[0]"]

    def test_model_config_must_match_cfg(self):
        rng = np.random.default_rng(12)
        items = [block_piece(40, rng, "p0")]
        model = Model(ModelConfig(hidden_size=8, seed_len=4), rng=rng)
        with pytest.raises(ValueError, match="differs"):
            evaluate(items, ModelConfig(hidden_size=8, seed_len=6), rng, model=model)

    @pytest.mark.parametrize("attention", [True, False])
    def test_label_follows_the_model(self, attention):
        rng = np.random.default_rng(13)
        items = [block_piece(20, rng, "p0")]
        cfg = ModelConfig(hidden_size=4, seed_len=4, attention_enabled=attention)
        run = evaluate(items, cfg, rng, model=Model(cfg, rng=rng), generations=1)
        assert run.generator == ("sing" if attention else "ablated")
        assert evaluate(items, cfg, rng, generations=1).generator == "random"

    def test_failed_generation_names_the_piece(self):
        rng = np.random.default_rng(14)
        items = [block_piece(20, rng, "ok"), block_piece(20, rng, "also")]
        cfg = ModelConfig(hidden_size=4, seed_len=4)
        model = Model(cfg, rng=rng)
        model.params["lstm.b"][0] = np.nan
        with pytest.raises(ValueError, match=r"ok\[0\]"):
            evaluate(items, cfg, rng, model=model)

    def test_non_finite_input_weight_no_sample_uses_names_the_piece(self):
        """Pitch 0 is below pitch_lo and silent in the seed, so no step reads
        its row of input weights; the piece still fails."""
        rng = np.random.default_rng(15)
        items = [block_piece(20, rng, "p0")]
        cfg = ModelConfig(hidden_size=4, seed_len=4)
        model = Model(cfg, rng=rng)
        model.params["lstm.W_x"][:, 0] = np.nan
        assert not items[0].data[0].any()
        with pytest.raises(ValueError, match=r"p0\[0\]: .*'lstm.W_x' holds non-finite"):
            evaluate(items, cfg, rng, model=model)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        items = [block_piece(40, rng, "p0")]
        cfg = ModelConfig(hidden_size=8, seed_len=4)
        model = Model(cfg, rng=np.random.default_rng(10))
        run_a = evaluate(items, cfg, np.random.default_rng(11), model=model)
        run_b = evaluate(items, cfg, np.random.default_rng(11), model=model)
        assert run_a.mses == run_b.mses

    @pytest.mark.parametrize("generator", ["random", "sing"])
    def test_only_the_template_is_held_while_a_piece_generates(self, monkeypatch, generator):
        """Each generation starts with one n x n matrix held, the template: no
        centred copy of it and no earlier generation's SSM."""
        n = 1500
        items = [block_piece(n, np.random.default_rng(16), "p0")]
        cfg = ModelConfig(hidden_size=8)
        model = None if generator == "random" else Model(cfg, rng=np.random.default_rng(17))
        name = "random_baseline" if model is None else "generate"
        inner = getattr(evaluation, name)
        held = []

        def traced(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            return inner(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(items, cfg, np.random.default_rng(18), model=model, generations=3)
        finally:
            tracemalloc.stop()
        matrices = [round(bytes_ / (n * n * 8), 2) for bytes_ in held]
        assert len(matrices) == 3 and max(matrices) < 1.25, matrices

    @pytest.mark.parametrize("generator", evaluation.GENERATORS)
    def test_peak_memory_at_3000_samples(self, generator):
        """Scores read the 12 x n chroma factors, so no generated roll forms
        an n x n matrix. The ablated model and the random baseline form none
        at all; sing forms the template's values alone, plus its 64-row
        weight blocks."""
        n = 3000
        items = [block_piece(n, np.random.default_rng(16), "p0")]
        cfg = ModelConfig(hidden_size=8, attention_enabled=generator == "sing")
        model = None if generator == "random" else Model(cfg, rng=np.random.default_rng(17))
        tracemalloc.start()
        try:
            evaluate(items, cfg, np.random.default_rng(18), model=model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix, block = n * n * 8, ATTENTION_BLOCK_ROWS * n * 8
        if generator == "sing":  # the input, logit and output records take six blocks
            assert peak < matrix + 10 * block, (peak - matrix) / block
        else:
            assert peak < matrix, peak / matrix

    def test_mean_is_arithmetic_mean_of_stored_values(self):
        run = EvalRun(generator="random")
        run.piece_ids = ["a", "b"]
        run.mses = [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]]
        assert run.mean == pytest.approx(2.0)


class TestCsv:
    def test_rows_and_summary(self):
        run = EvalRun(generator="sing")
        run.piece_ids = ["x[0]"]
        run.mses = [[0.5, 1.5, 1.0]]
        text = eval_run_to_csv(run)
        lines = text.strip().splitlines()
        assert lines[0] == "piece_id,generation_index,std_mse"
        assert lines[1].startswith("x[0],0,")
        assert lines[-1].startswith("mean,sing,")

    @pytest.mark.parametrize("piece_id", ["take,0[0]", "mean,x[0]", 'say "hi"[0]'])
    def test_id_with_a_comma_or_quote_reads_back_as_one_field(self, piece_id):
        run = EvalRun(generator="sing", piece_ids=[piece_id], mses=[[1.5]])
        rows = list(csv.reader(io.StringIO(eval_run_to_csv(run))))
        assert rows[1] == [piece_id, "0", "1.5"]
        assert [row[0] for row in rows] == ["piece_id", piece_id, "mean"]

    def test_plain_ids_keep_their_bytes(self):
        run = EvalRun(generator="random", piece_ids=["a[0]", "b[1]"], mses=[[0.25], [2.0, 1.0]],
                      skipped=["c[0]"])
        assert eval_run_to_csv(run) == (
            "piece_id,generation_index,std_mse\na[0],0,0.25\nb[1],0,2.0\nb[1],1,1.0\n"
            "mean,random,1.0833333333333333\nskipped,random,1\n")
