import tracemalloc

import numpy as np
import pytest

from oracles import close, standardize, standardized_mse_two_step
from sing.midi_io import MAX_SAMPLES, PianoRoll
from sing.structure import (
    SelfSimilarityMatrix,
    SynthSpec,
    chroma,
    load_ssm,
    parse_synth_spec,
    render_pgm,
    save_ssm,
    ssm,
    ssm_from_bytes,
    ssm_to_bytes,
    standardized_mse,
    synth_ssm,
)


def roll_from_columns(columns: list[list[int]]) -> PianoRoll:
    data = np.zeros((128, len(columns)), dtype=np.uint8)
    for s, pitches in enumerate(columns):
        data[pitches, s] = 1
    return PianoRoll(data=data, tempo=120.0)


class TestChroma:
    def test_octaves_fold_together(self):
        out = chroma(roll_from_columns([[60, 72]]))
        assert out[0, 0] == 2.0
        assert out[1:, 0].sum() == 0.0

    def test_silent_sample_zero_column(self):
        out = chroma(roll_from_columns([[60], []]))
        assert out[:, 1].sum() == 0.0

    def test_major_triad_classes(self):
        out = chroma(roll_from_columns([[60, 64, 67]]))
        assert out[[0, 4, 7], 0].tolist() == [1.0, 1.0, 1.0]
        assert out[:, 0].sum() == 3.0

    def test_column_sums_equal_note_counts(self):
        rng = np.random.default_rng(0)
        data = (rng.random((128, 17)) < 0.1).astype(np.uint8)
        roll = PianoRoll(data=data, tempo=120.0)
        assert np.allclose(chroma(roll).sum(axis=0), data.sum(axis=0))


class TestSsm:
    def test_identical_columns_score_one(self):
        matrix = ssm(chroma(roll_from_columns([[60, 64], [60, 64]])))
        assert matrix.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_columns_score_zero(self):
        matrix = ssm(chroma(roll_from_columns([[60], [64]])))
        assert matrix.values[0, 1] == 0.0

    def test_hand_computed_cosine(self):
        # (2 at class 0) vs (1 at class 0, 1 at class 4): 2 / (2 * sqrt(2))
        matrix = ssm(chroma(roll_from_columns([[60, 72], [60, 64]])))
        assert matrix.values[0, 1] == pytest.approx(2 / (2 * np.sqrt(2)), abs=1e-12)

    def test_silent_sample_scores_zero_even_on_diagonal(self):
        matrix = ssm(chroma(roll_from_columns([[60], [], [60]])))
        assert matrix.values[1, 1] == 0.0
        assert matrix.values[1, 0] == 0.0
        assert matrix.values[0, 2] == 1.0

    def test_invariants_on_random_rolls(self):
        rng = np.random.default_rng(1)
        for n in [int(rng.integers(2, 40)) for _ in range(25)] + [700, 1381]:
            data = (rng.random((128, n)) < 0.06).astype(np.uint8)
            roll = PianoRoll(data=data, tempo=120.0)
            values = ssm(chroma(roll)).values
            assert np.array_equal(values, values.T)
            assert values.min() >= 0.0 and values.max() <= 1.0
            active = data.sum(axis=0) > 0
            assert np.all(np.diag(values)[active] == 1.0)
            assert np.all(np.diag(values)[~active] == 0.0)

    def test_memory_stays_below_one_and_a_half_matrices(self):
        """One n x n product, clipped and given its diagonal in place."""
        n = 2000
        data = (np.random.default_rng(12).random((128, n)) < 0.06).astype(np.uint8)
        cols = chroma(PianoRoll(data=data, tempo=120.0))
        tracemalloc.start()
        try:
            ssm(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


class TestStandardizedMse:
    def test_matches_the_two_step_reference(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 16, 70):
            for a, b in ((rng.random((n, n)), rng.random((n, n))),
                         (np.eye(n), rng.random((n, n))),
                         (np.full((n, n), 0.3), rng.random((n, n))),
                         (np.full((n, n), 0.3), np.full((n, n), 0.9))):
                score = standardized_mse(SelfSimilarityMatrix(a), SelfSimilarityMatrix(b))
                assert close(score, standardized_mse_two_step(a, b))

    def test_constant_against_non_constant_is_one(self):
        varied = SelfSimilarityMatrix(np.random.default_rng(3).random((10, 10)))
        constant = SelfSimilarityMatrix(np.full((10, 10), 0.7))
        assert standardized_mse(constant, varied) == 1.0
        assert standardized_mse(varied, constant) == 1.0

    def test_two_constants_score_zero(self):
        a, b = SelfSimilarityMatrix(np.zeros((4, 4))), SelfSimilarityMatrix(np.ones((4, 4)))
        assert standardized_mse(a, b) == 0.0

    def test_against_negation_is_four(self):
        values = np.random.default_rng(5).random((12, 12))
        a, b = SelfSimilarityMatrix(values), SelfSimilarityMatrix(1.0 - values)
        assert standardized_mse(a, b) == pytest.approx(4.0, abs=1e-12)

    def test_two_by_two(self):
        a = SelfSimilarityMatrix(np.eye(2))
        assert standardized_mse(a, SelfSimilarityMatrix(1.0 - np.eye(2))) == pytest.approx(4.0)
        assert standardized_mse(a, SelfSimilarityMatrix(0.5 + np.eye(2))) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
            standardized_mse(SelfSimilarityMatrix(np.eye(2)), SelfSimilarityMatrix(np.eye(3)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            standardized_mse(SelfSimilarityMatrix(np.eye(1)), SelfSimilarityMatrix(np.eye(1)))

    def test_identical_is_zero(self):
        values = np.random.default_rng(6).random((8, 8))
        matrix = SelfSimilarityMatrix(values=(values + values.T) / 2)
        assert standardized_mse(matrix, matrix) == pytest.approx(0.0, abs=1e-12)

    def test_equal_inputs(self):
        a = SelfSimilarityMatrix(np.random.default_rng(4).random((5, 5)))
        assert standardized_mse(a, a) == pytest.approx(0.0, abs=1e-12)
        constant = SelfSimilarityMatrix(np.full((5, 5), 0.4))
        assert standardized_mse(constant, constant) == 0.0

    def test_idempotent(self):
        values = np.random.default_rng(3).random((10, 10))
        once = standardize(values)
        twice = standardize(once)
        assert np.abs(twice - once).max() <= 1e-9
        assert standardized_mse(SelfSimilarityMatrix(values), SelfSimilarityMatrix(once)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        a, b = SelfSimilarityMatrix(rng.random((6, 6))), SelfSimilarityMatrix(rng.random((6, 6)))
        assert standardized_mse(a, b) == pytest.approx(standardized_mse(b, a), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.random((9, 9))
        scaled = SelfSimilarityMatrix(0.25 * a + 3.0)
        assert standardized_mse(SelfSimilarityMatrix(a), scaled) == pytest.approx(0.0, abs=1e-9)

    def test_independent_matrices_approach_two(self):
        rng = np.random.default_rng(9)
        n = 256
        a = rng.random((n, n))
        b = rng.random((n, n))
        a = SelfSimilarityMatrix((a + a.T) / 2)
        b = SelfSimilarityMatrix((b + b.T) / 2)
        assert standardized_mse(a, b) == pytest.approx(2.0, abs=0.15)


class TestSynthSsm:
    def test_no_blocks_identity_like(self):
        out = synth_ssm(SynthSpec(length=4)).values
        assert np.allclose(out, np.eye(4))

    def test_block_with_background(self):
        out = synth_ssm(SynthSpec(length=4, blocks=[(0, 2, 0.8)], background=0.1)).values
        assert out[0, 1] == 0.8 and out[1, 0] == 0.8
        assert out[0, 0] == 1.0 and out[3, 3] == 1.0
        assert out[2, 3] == 0.1 and out[0, 3] == 0.1

    def test_later_blocks_overwrite(self):
        spec = SynthSpec(length=4, blocks=[(0, 3, 0.5), (1, 3, 0.9)])
        out = synth_ssm(spec).values
        assert out[0, 1] == 0.5 and out[1, 2] == 0.9

    def test_always_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            length = int(rng.integers(2, 30))
            blocks = []
            for _ in range(int(rng.integers(0, 4))):
                start = int(rng.integers(0, length))
                end = int(rng.integers(start + 1, length + 1))
                blocks.append((start, end, float(rng.random())))
            out = synth_ssm(SynthSpec(length=length, blocks=blocks, background=0.2)).values
            assert np.array_equal(out, out.T)
            assert np.all(np.diag(out) == 1.0)

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(length=4, blocks=[(2, 2, 0.5)])
        with pytest.raises(ValueError):
            SynthSpec(length=4, blocks=[(0, 5, 0.5)])
        with pytest.raises(ValueError):
            SynthSpec(length=4, background=1.5)

    def test_length_capped_before_allocating(self):
        assert SynthSpec(length=MAX_SAMPLES).length == MAX_SAMPLES
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            parse_synth_spec(f"length={MAX_SAMPLES + 1}\n")


class TestSynthSpecText:
    def test_parse_round_trip(self):
        text = "length=8\nbackground=0.1\nblock=0,4,0.9\nblock=4,8,0.7\n"
        spec = parse_synth_spec(text)
        assert spec == SynthSpec(length=8, blocks=[(0, 4, 0.9), (4, 8, 0.7)], background=0.1)

    def test_missing_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            parse_synth_spec("background=0.2\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_synth_spec("length=4\nnonsense\n")


class TestRenderPgm:
    def test_extremes_and_rounding(self):
        img = render_pgm(SelfSimilarityMatrix(np.array([[1.0, 0.0], [0.5, 0.25]])))
        header, pixels = img.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(pixels) == [255, 0, 128, 64]  # 0.5 rounds half-up to 128

    def test_out_of_range_clamped(self):
        img = render_pgm(SelfSimilarityMatrix(np.array([[2.0, -1.0], [-1.0, 2.0]])))
        assert list(img.split(b"255\n", 1)[1]) == [255, 0, 0, 255]


class TestSsmContainer:
    def test_bit_identical_round_trip(self):
        rng = np.random.default_rng(11)
        values = rng.random((7, 7))
        matrix = SelfSimilarityMatrix(values=(values + values.T) / 2)
        blob = ssm_to_bytes(matrix)
        assert ssm_to_bytes(ssm_from_bytes(blob)) == blob

    def test_layout(self):
        blob = ssm_to_bytes(SelfSimilarityMatrix(values=np.eye(3)))
        assert blob[:8] == b"SINGSSM\x00"
        assert int.from_bytes(blob[8:12], "little") == 3
        assert len(blob) == 12 + 9 * 4

    def test_save_load(self, tmp_path):
        matrix = synth_ssm(SynthSpec(length=5, blocks=[(0, 2, 0.5)]))
        save_ssm(matrix, tmp_path / "x.ssm")
        loaded = load_ssm(tmp_path / "x.ssm")
        assert np.allclose(loaded.values, matrix.values)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            ssm_from_bytes(b"WRONGMAG" + bytes(16))

    def test_size_capped_before_reading_the_payload(self):
        header = b"SINGSSM\x00" + (MAX_SAMPLES + 1).to_bytes(4, "little")
        with pytest.raises(ValueError, match=f"more than {MAX_SAMPLES}"):
            ssm_from_bytes(header + bytes(16))
        with pytest.raises(ValueError, match="size mismatch"):  # at the cap, the payload decides
            ssm_from_bytes(b"SINGSSM\x00" + MAX_SAMPLES.to_bytes(4, "little"))
