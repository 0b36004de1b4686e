import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sing
from oracles import (
    RTOL,
    close,
    fold_pitch_classes_per_class,
    standardize,
    standardized_mse_two_step,
)
from sing.midi_io import MAX_SAMPLES, PianoRoll
from sing.structure import (
    ATTENTION_BLOCK_ROWS,
    SelfSimilarityMatrix,
    SynthSpec,
    chroma,
    fold_pitch_classes,
    load_ssm,
    parse_synth_spec,
    render_pgm,
    save_ssm,
    ssm,
    ssm_from_bytes,
    ssm_to_bytes,
    standardized_mse,
    structural_loss,
    synth_ssm,
    unit_columns,
)


def roll_from_columns(columns: list[list[int]]) -> PianoRoll:
    data = np.zeros((128, len(columns)), dtype=np.uint8)
    for s, pitches in enumerate(columns):
        data[pitches, s] = 1
    return PianoRoll(data=data, tempo=120.0)


def random_roll(n: int, rng: np.random.Generator, density: float = 0.05,
                silent: float = 0.0) -> PianoRoll:
    """Random pitches, about `silent` of the samples silent."""
    data = (rng.random((128, n)) < density).astype(np.uint8)
    data[:, rng.random(n) < silent] = 0
    return PianoRoll(data=data, tempo=120.0)


def repeated_chord(n: int, pitches=(60, 64, 67)) -> PianoRoll:
    """One chord held at every sample: a constant SSM of ones."""
    return roll_from_columns([list(pitches)] * n)


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

    def test_integer_sums_equal_the_float_fold_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 64, 777):
            data = (rng.random((128, n)) < 0.2).astype(np.uint8)
            out = chroma(PianoRoll(data=data, tempo=120.0))
            assert out.dtype == np.float64
            assert out.tobytes() == fold_pitch_classes_per_class(data).tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_fold_equals_the_per_class_sums_bit_for_bit(self, dtype):
        """Whole octaves in one sum, then the last eight rows, add each class
        in the order its own strided sum does; uint8 rows sum as uint16. From
        n = 2 on (one column lets numpy sum the octaves pairwise)."""
        rng = np.random.default_rng(31)
        for n in sorted({*np.geomspace(2, 3000, 48).astype(int), *rng.integers(2, 3001, 16)}):
            rows = rng.random((128, n))
            if dtype == np.uint8:
                rows = (rows < 0.3).astype(np.uint8)
            out = fold_pitch_classes(rows)
            assert out.dtype == (np.uint16 if dtype == np.uint8 else np.float64)
            expected = fold_pitch_classes_per_class(rows)
            assert out.astype(np.float64).tobytes() == expected.tobytes(), n

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
            ssm(cols).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_n_reads_no_values(self):
        """A factored SSM holds its factor alone: reading n, the values or a
        block of weights keeps no n x n matrix on it."""
        matrix = ssm(chroma(random_roll(50, np.random.default_rng(14))))
        assert matrix.n == 50 and matrix.unit.shape == (12, 50)
        assert matrix._values is None and "factored" in repr(matrix)
        first = matrix.values
        matrix.weights(1, 50)
        assert matrix._values is None and matrix.values is not first
        assert np.array_equal(matrix.values, first)

    def test_lazy_values_equal_the_eager_formula_bit_for_bit(self, tmp_path):
        """The values a factored SSM forms and the bytes save_ssm writes are
        those of the matrix formed at once. Its weights, read from the factor,
        are those of the dense values bit for bit on a two-chord roll, and
        within RTOL on random notes."""
        rng = np.random.default_rng(15)
        chords = [[48, 52, 55], [50, 53, 57]]  # octave jitter and every ninth sample silent
        for n in (2, 63, 200, 701):
            two_chord = roll_from_columns(
                [[p + 12 * int(rng.integers(0, 2)) for p in chords[s // 40 % 2]] if s % 9 else []
                 for s in range(n)])
            for roll in (two_chord, random_roll(n, rng, density=0.03, silent=0.2)):
                cols = chroma(roll)
                unit, norms = unit_columns(cols)
                eager = unit.T @ unit
                np.clip(eager, 0.0, 1.0, out=eager)
                np.fill_diagonal(eager, norms > 0.0)
                lazy, dense = ssm(cols), SelfSimilarityMatrix(eager)
                for start in range(1, n, ATTENTION_BLOCK_ROWS):
                    stop = min(start + ATTENTION_BLOCK_ROWS, n)
                    got, expected = lazy.weights(start, stop), dense.weights(start, stop)
                    if roll is two_chord:
                        assert got.tobytes() == expected.tobytes(), (n, start)
                    else:
                        assert close(got, expected), (n, start)
                assert lazy.values.tobytes() == eager.tobytes()
                save_ssm(ssm(cols), tmp_path / "x.ssm")  # formed by the write
                assert (tmp_path / "x.ssm").read_bytes() == ssm_to_bytes(dense)

    def test_factored_equals_file_loaded(self, tmp_path):
        """Orthogonal and repeated chords give 0s and 1s, exact in float32."""
        matrix = ssm(chroma(roll_from_columns([[60], [64, 76], [60, 72], []])))
        save_ssm(matrix, tmp_path / "x.ssm")
        loaded = load_ssm(tmp_path / "x.ssm")
        assert loaded.unit is None
        assert matrix == loaded and loaded == matrix
        assert loaded != ssm(chroma(roll_from_columns([[60], [64], [64], []])))

    def test_the_diagonal_follows_the_nonzero_columns(self):
        """The diagonal is 1 at each nonzero column of the factor and 0 at
        each zero one, an all-silent roll's included; a dense SSM keeps the
        diagonal it was given."""
        for columns in ([[60], [64], [], [60, 72]], [[]] * 5, [[]] + [[61, 65]] * 3):
            matrix = ssm(chroma(roll_from_columns(columns)))
            assert np.diag(matrix.values).tolist() == [float(bool(c)) for c in columns]
            assert matrix.unit.any(axis=0).tolist() == [bool(c) for c in columns]
        assert not ssm(np.zeros((12, 4))).values.any()
        tiny = ssm(np.full((12, 3), 1e-170))  # its norm underflows to 0: a silent column
        assert not tiny.unit.any() and not tiny.values.any()
        assert np.diag(SelfSimilarityMatrix(np.zeros((3, 3))).values).tolist() == [0.0] * 3
        with pytest.raises(ValueError, match="either its values or its unit chroma factor"):
            SelfSimilarityMatrix(np.eye(4), unit=np.eye(12, 4))

    def test_chroma_must_be_finite_and_non_negative(self):
        for bad in (-1.0, np.nan, np.inf):
            cols = np.ones((12, 3))
            cols[4, 1] = bad
            with pytest.raises(ValueError, match="finite and >= 0"):
                ssm(cols)

    def test_equality_compares_values_and_role_not_the_kept_thresholds(self):
        a, b = SelfSimilarityMatrix(np.eye(3)), SelfSimilarityMatrix(np.eye(3))
        assert a == b
        a.weights(1, 3)  # keeps a block's thresholds on a alone
        assert a == b and not a != b
        assert a != SelfSimilarityMatrix(np.eye(3), role="generated")
        assert a != SelfSimilarityMatrix(np.ones((3, 3)))
        assert a != SelfSimilarityMatrix(np.eye(2))
        assert a.__eq__(np.eye(3)) is NotImplemented and "_tau" not in repr(a)


def agree(score: float, reference: float) -> bool:
    """Within RTOL relative, or RTOL absolute below 1: the score is 2 - 2 corr,
    and two forms of a score near 0 cancel differently (a pair that scores 0
    reads 3e-32 in the reference)."""
    return abs(score - reference) <= RTOL * max(abs(reference), 1.0)


def scored(template, generated: PianoRoll) -> tuple[float, float]:
    """(standardized_mse against a roll's factored SSM, the dense two-step
    reference on the formed values); template is a roll or an SSM."""
    if isinstance(template, PianoRoll):
        template = ssm(chroma(template))
    b = ssm(chroma(generated), role="generated")
    score = standardized_mse(template, b)
    return score, standardized_mse_two_step(template.values, b.values)


class TestStandardizedMse:
    """The score reads the generated SSM's 12 x n chroma factor (and the
    template's, when it has one); it is checked against the dense two-step
    reference, which standardizes the formed n x n values."""

    def test_matches_the_two_step_reference(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 16, 70, 301, 1500):
            for silent in (0.0, 0.3):
                score, reference = scored(random_roll(n, rng, silent=silent),
                                          random_roll(n, rng, density=0.02, silent=silent))
                assert agree(score, reference), (n, silent, score, reference)
            block = synth_ssm(SynthSpec(length=n, blocks=[(0, n // 2, 0.8)], background=0.1))
            score, reference = scored(block, random_roll(n, rng, silent=0.2))
            assert agree(score, reference), (n, score, reference)

    def test_degenerate_pieces_match_the_reference(self):
        """A repeated chord and an all-silent piece are constant SSMs."""
        rng = np.random.default_rng(12)
        silence = PianoRoll(data=np.zeros((128, 40), dtype=np.uint8), tempo=120.0)
        for a, b in ((repeated_chord(40), random_roll(40, rng)),
                     (random_roll(40, rng, silent=0.5), silence),
                     (repeated_chord(40), silence), (silence, silence)):
            assert agree(*scored(a, b))

    def test_constant_against_non_constant_is_one(self):
        varied, constant = random_roll(10, np.random.default_rng(3)), repeated_chord(10)
        assert scored(constant, varied)[0] == 1.0
        assert scored(varied, constant)[0] == 1.0
        assert scored(synth_ssm(SynthSpec(length=10, blocks=[(0, 5, 0.5)])), constant)[0] == 1.0

    def test_two_constants_score_zero(self):
        silence = PianoRoll(data=np.zeros((128, 700), dtype=np.uint8), tempo=120.0)
        assert scored(repeated_chord(700), silence)[0] == 0.0
        assert scored(repeated_chord(700, (61, 73)), repeated_chord(700))[0] == 0.0
        assert scored(SelfSimilarityMatrix(np.full((700, 700), 0.3)), silence)[0] == 0.0

    def test_against_negation_is_four(self):
        """A dense template holding 1 - S scores 4 against S."""
        generated = ssm(chroma(random_roll(12, np.random.default_rng(5))), role="generated")
        negated = SelfSimilarityMatrix(1.0 - generated.values)
        assert standardized_mse(negated, generated) == pytest.approx(4.0, abs=1e-12)

    def test_two_by_two(self):
        orthogonal = ssm(chroma(roll_from_columns([[60], [64]])), role="generated")  # eye(2)
        assert orthogonal.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert standardized_mse(SelfSimilarityMatrix(1.0 - np.eye(2)), orthogonal) \
            == pytest.approx(4.0)
        assert standardized_mse(SelfSimilarityMatrix(0.5 + np.eye(2)), orthogonal) \
            == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
            standardized_mse(SelfSimilarityMatrix(np.eye(2)), SelfSimilarityMatrix(np.eye(3)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            standardized_mse(SelfSimilarityMatrix(np.eye(1)), SelfSimilarityMatrix(np.eye(1)))

    def test_dense_generated_rejected(self):
        with pytest.raises(ValueError, match="generated SSM must be built from chroma"):
            standardized_mse(ssm(chroma(repeated_chord(3))), SelfSimilarityMatrix(np.eye(3)))

    def test_identical_is_zero(self):
        roll = random_roll(80, np.random.default_rng(6))
        matrix = ssm(chroma(roll))
        assert standardized_mse(matrix, matrix) == pytest.approx(0.0, abs=1e-12)
        assert scored(roll, roll)[0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_inputs(self):
        a = ssm(chroma(random_roll(5, np.random.default_rng(4), density=0.2)))
        assert standardized_mse(a, a) == pytest.approx(0.0, abs=1e-12)
        constant = ssm(chroma(repeated_chord(5)))
        assert standardized_mse(constant, constant) == 0.0

    def test_idempotent(self):
        """A dense template holding the standardized values scores 0."""
        generated = ssm(chroma(random_roll(10, np.random.default_rng(3), density=0.2)))
        once = standardize(generated.values)
        twice = standardize(once)
        assert np.abs(twice - once).max() <= 1e-9
        assert standardized_mse(SelfSimilarityMatrix(once), generated) \
            == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        a, b = ssm(chroma(random_roll(6, rng, 0.3))), ssm(chroma(random_roll(6, rng, 0.3)))
        assert standardized_mse(a, b) == pytest.approx(standardized_mse(b, a), abs=1e-12)

    def test_affine_invariance(self):
        """A dense template holding 0.25 S + 3 scores 0 against S."""
        generated = ssm(chroma(random_roll(9, np.random.default_rng(8), 0.2)))
        scaled = SelfSimilarityMatrix(0.25 * generated.values + 3.0)
        assert standardized_mse(scaled, generated) == pytest.approx(0.0, abs=1e-9)

    def test_independent_matrices_approach_two(self):
        rng = np.random.default_rng(9)
        n = 256
        a, b = ssm(chroma(random_roll(n, rng))), ssm(chroma(random_roll(n, rng)))
        assert standardized_mse(a, b) == pytest.approx(2.0, abs=0.15)

    def test_reads_no_n_by_n_matrix(self):
        """Scoring two SSMs built from rolls forms neither's values, and holds
        well under one n x n float64 matrix at its peak."""
        n = 3000
        rng = np.random.default_rng(13)
        a, b = ssm(chroma(random_roll(n, rng))), ssm(chroma(random_roll(n, rng)))
        tracemalloc.start()
        try:
            standardized_mse(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a._values is None and b._values is None
        assert peak < 0.05 * n * n * 8, peak


class TestStructuralLoss:
    def test_the_templates_own_roll_scores_zero(self):
        """Probabilities equal to the template's own samples give V = U: the
        loss and its gradient vanish up to rounding."""
        roll = random_roll(90, np.random.default_rng(40))
        samples = roll.data.T.astype(np.float64)
        for with_grad in (False, True):
            loss, grad = structural_loss(ssm(chroma(roll)), samples[:7], samples[7:], with_grad)
            assert loss == pytest.approx(0.0, abs=1e-14)
            if with_grad:
                assert grad.shape == (83, 128) and np.abs(grad).max() < 1e-14
            else:
                assert grad is None


def test_only_structure_reads_how_an_ssm_is_stored():
    """An SSM's factor `.unit` and dense `._values` are read in structure.py
    alone; every other module goes through its functions."""
    readers: dict[str, list[int]] = {}
    for path in sorted(Path(sing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("unit", "_values"):
                readers.setdefault(path.name, []).append(node.lineno)
    assert set(readers) == {"structure.py"}, readers


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
