"""The vectorized forward kernels give the results of the step-by-step
references in oracles.py: bit for bit, RNG draws included, except where a
kernel changed the order of a floating-point sum (oracles.close)."""

import numpy as np
import pytest

from oracles import (
    _lstm_step,
    attention_weights,
    attention_weights_per_row,
    close,
    draw_margin,
    forward_piece_per_step,
    generate_per_step,
    lstm_cell_backward_concat,
    lstm_cell_dense,
    piece_loss_two_pass,
    sample_notes_lexsort,
    sigmoid_masked,
    sparsemax_1d,
    ssm_two_pass,
)
from sing import nn
from sing.midi_io import PianoRoll
from sing.model import Model, ModelConfig, generate, sample_notes
from sing.structure import (
    ATTENTION_BLOCK_ROWS,
    SelfSimilarityMatrix,
    SynthSpec,
    chroma,
    ssm,
    synth_ssm,
    unit_columns,
)
from sing.training import forward_piece, piece_loss


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (any NaN matches any NaN)."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


class TestSigmoidMatchesMasked:
    def test_special_values(self):
        tiny = np.finfo(np.float64).tiny
        x = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0, 709.78, -709.78,
            36.8, -36.8, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3, 1.0, -1.0,
        ])
        assert same_bits(nn.sigmoid(x), sigmoid_masked(x))
        assert same_bits(nn.sigmoid(x[::-1]), sigmoid_masked(x[::-1]))
        for view in (x, x[::-1], x[::2]):
            buf = np.full(3 * len(view), 7.0)
            out = buf[1::3]  # a strided view; the entries around it stay untouched
            assert nn.sigmoid(view, out=out) is out
            assert same_bits(out, sigmoid_masked(view))
            assert np.all(buf[0::3] == 7.0) and np.all(buf[2::3] == 7.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1e-2, 1.0, 4.0, 30.0, 1e3, 1e300])
    def test_random_scales(self, scale):
        x = np.random.default_rng(int(np.log10(scale) + 400)).normal(scale=scale, size=(7, 129))
        assert same_bits(nn.sigmoid(x), sigmoid_masked(x))
        assert same_bits(nn.sigmoid(x[:, ::3]), sigmoid_masked(x[:, ::3]))  # strided view


def tied_template(n: int, rng) -> np.ndarray:
    """Random SSM with repeated values, an all-zero row and a constant row."""
    S = np.round(rng.random((n, n)) * 4) / 4
    S[n // 2] = 0.0
    S[n - 1] = 0.5
    return S


class TestAttentionWeightsMatchPerRow:
    @pytest.mark.parametrize(
        "n", [2, 3, ATTENTION_BLOCK_ROWS - 1, ATTENTION_BLOCK_ROWS, ATTENTION_BLOCK_ROWS + 1,
              ATTENTION_BLOCK_ROWS + 2, 2 * ATTENTION_BLOCK_ROWS + 1, 301]
    )
    def test_matches_one_sparsemax_per_row(self, n):
        rng = np.random.default_rng(n)
        block = synth_ssm(SynthSpec(length=n, blocks=[(0, n // 2, 0.8), (n // 3, n, 0.3)],
                                    background=0.1)).values
        for S in (rng.random((n, n)), tied_template(n, rng), block, np.zeros((n, n))):
            template = SelfSimilarityMatrix(values=S)
            for first in sorted({1, min(10, n - 1), n - 1}):
                expected = attention_weights_per_row(S, first)
                for start in range(first, n, ATTENTION_BLOCK_ROWS):
                    stop = min(start + ATTENTION_BLOCK_ROWS, n)
                    rows = expected[start - first : stop - first]
                    assert same_bits(template.weights(start, stop), rows[:, : stop - 1])
                    assert same_bits(attention_weights(S, start, stop), rows[:, : stop - 1])

    def test_accepts_ssm_container(self):
        values = np.random.default_rng(1).random((20, 20))
        template = SelfSimilarityMatrix(values=values, role="template")
        assert template.n == 20
        assert same_bits(template.weights(3, 20), attention_weights_per_row(values, 3))

    def test_sparsemax_vector_and_masked_rows(self):
        rng = np.random.default_rng(2)
        for size in (1, 2, 5, 40, 300):
            for q in (rng.normal(size=size), np.round(rng.random(size) * 3), np.zeros(size)):
                expected = sparsemax_1d(q)
                assert same_bits(nn.sparsemax(q), expected)
                padded = np.concatenate([q, np.full(7, -np.inf)])
                assert same_bits(nn.sparsemax(padded[None])[0], np.concatenate([expected, np.zeros(7)]))

    def test_row_without_finite_entry_rejected(self):
        q = np.zeros((3, 4))
        q[1] = -np.inf
        for kernel in (nn.sparsemax, nn.sparsemax_threshold):
            with pytest.raises(ValueError, match="finite"):
                kernel(q)


class TestThresholdThenClip:
    """sparsemax(q, tau=sparsemax_threshold(q)) is sparsemax(q), bit for bit."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(6)
        tiny = np.finfo(np.float64).tiny
        yield from ([1.0, 0.0], [0.9, 0.1], [0.3, 0.3, 0.3], [2.0, 0.0], [7.5],
                    [1e15, -1e15, 0.0], [5e-324, -5e-324, tiny, -0.0, 0.0],
                    [-1e15, -1e15], [0.5] * 9)  # special values, ties, one entry
        for size in (2, 13, 200):
            q = rng.normal(scale=3.0, size=size)
            yield q
            yield np.round(q)  # ties
            for shift in (-1e6, -0.5, 3.0, 1e6):
                yield q + shift
        masked = np.where(np.arange(9) < np.arange(1, 10)[:, None], rng.random((9, 9)), -np.inf)
        yield masked  # -inf-masked rows, the first with one finite entry
        yield np.where(np.eye(5, dtype=bool), 2.0, -np.inf)  # one finite entry per row

    def test_same_bits(self):
        for q in map(np.asarray, self.inputs()):
            tau = nn.sparsemax_threshold(q)
            assert tau.shape == q.shape[:-1] + (1,)
            assert same_bits(nn.sparsemax(q, tau=tau), nn.sparsemax(q)), q

    @pytest.mark.parametrize("q", [[], [np.nan], [1.0, np.nan], [np.inf, 0.0], [-np.inf]])
    def test_same_errors(self, q):
        errors = []
        for kernel in (nn.sparsemax, nn.sparsemax_threshold):
            with pytest.raises(ValueError) as exc:
                kernel(np.array(q))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestSampleNotesMatchesLexsort:
    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(),
            ModelConfig(top_k=88, max_notes=5),
            ModelConfig(top_k=3, max_notes=3, pitch_lo=60, pitch_hi=64),
        ],
    )
    def test_samples_and_rng_state_match(self, cfg):
        for seed in range(150):
            logits_rng = np.random.default_rng(seed)
            kind = seed % 5
            if kind == 0:
                d = logits_rng.normal(scale=4.0, size=128)
            elif kind == 1:
                d = np.round(logits_rng.normal(size=128))  # many ties
            elif kind == 2:
                d = np.zeros(128)
            elif kind == 3:
                d = np.full(128, -800.0)  # probabilities underflow: uniform fallback
            else:
                d = logits_rng.normal(scale=40.0, size=128)
            fast, ref = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            for _ in range(3):
                assert np.array_equal(sample_notes(d, cfg, fast), sample_notes_lexsort(d, cfg, ref))
            assert fast.bit_generator.state == ref.bit_generator.state


class TestSampleNotesNaN:
    """A NaN among the top-k probabilities fails before any draw, as
    rng.choice does; a NaN below the top-k changes nothing."""

    cfg = ModelConfig()  # 88 allowed pitches, top 50

    def logits(self, nan_pitches):
        d = np.random.default_rng(3).normal(scale=4.0, size=128)
        d[list(nan_pitches)] = np.nan
        return d

    @pytest.mark.parametrize("nan_pitches", [range(128), range(20, 59), range(69, 108)])
    def test_nan_in_top_k_raises_and_draws_nothing(self, nan_pitches):
        d = self.logits(nan_pitches)  # 39 NaNs leave 49 finite pitches for the top 50
        for sampler in (sample_notes, sample_notes_lexsort):
            rng = np.random.default_rng(7)
            state = rng.bit_generator.state
            with pytest.raises(ValueError):
                sampler(d, self.cfg, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("nan_pitches", [[64], [20], [107], [0, 127], range(20, 58)])
    def test_nan_below_top_k_matches_choice(self, nan_pitches):
        d = self.logits(nan_pitches)
        fast, ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(20):
            assert np.array_equal(sample_notes(d, self.cfg, fast),
                                  sample_notes_lexsort(d, self.cfg, ref))
        assert fast.bit_generator.state == ref.bit_generator.state


class TestLstmCellWritesRows:
    """lstm_cell_forward reading row t-1 and writing row t of the same
    arrays gives the step reference's values and touches no other row."""

    @pytest.mark.parametrize("hidden", [1, 16, 128])
    def test_rows_match_step_reference(self, hidden):
        rng = np.random.default_rng(hidden)
        params = {"lstm.W_x": rng.normal(scale=3.0, size=(4 * hidden, 128)),
                  "lstm.W_h": rng.normal(scale=3.0, size=(4 * hidden, hidden)),
                  "lstm.b": rng.normal(size=4 * hidden)}
        W_x, W_h, b = params["lstm.W_x"], params["lstm.W_h"], params["lstm.b"]
        X = (rng.random((6, 128)) < 0.2).astype(np.float64)
        H, C, G = np.full((7, hidden), 5.0), np.full((7, hidden), 5.0), np.full((6, 4 * hidden), 5.0)
        H[0], C[0] = rng.normal(size=hidden), rng.normal(size=hidden)
        state = H[0].copy(), C[0].copy()
        for t in range(1, 7):
            before = H.copy(), C.copy(), G.copy()
            result = nn.lstm_cell_forward(W_x, W_h, b, X[t - 1], H[t - 1], C[t - 1],
                                          out=(H[t], C[t], G[t - 1]))
            assert all(np.shares_memory(r, row) for r, row in zip(result, (H[t], C[t], G[t - 1])))
            state = _lstm_step(params, X[t - 1], state)
            assert close(H[t], state[0]) and close(C[t], state[1])
            _, _, gates = lstm_cell_dense(W_x, W_h, b, X[t - 1], H[t - 1], C[t - 1])
            assert close(G[t - 1], gates)
            for array, old, row in zip((H, C, G), before, (t, t, t - 1)):
                others = np.arange(len(array)) != row
                assert same_bits(array[others], old[others])


    @pytest.mark.parametrize("hidden", [1, 16, 128])
    def test_backward_rows_match_concatenated_form(self, hidden):
        """Factors formed once per piece associate the products differently
        from the per-step form, so the rows agree within RTOL."""
        rng = np.random.default_rng(hidden + 1)
        W_x, W_h = rng.normal(size=(4 * hidden, 128)), rng.normal(size=(4 * hidden, hidden))
        G = np.full((5, 4 * hidden), 5.0)
        G[:, : 2 * hidden] = rng.random((5, 2 * hidden))  # input and forget gates
        G[:, 2 * hidden : 3 * hidden] = np.tanh(rng.normal(scale=3.0, size=(5, hidden)))
        G[:, 3 * hidden :] = rng.random((5, hidden))  # output gate
        C = rng.normal(scale=2.0, size=(6, hidden))
        H = np.zeros((6, hidden))
        H[1:] = G[:, 3 * hidden :] * np.tanh(C[1:])  # as the forward pass records h
        K = nn.lstm_backward_factors(H, C, G)
        dpre = np.full((5, 4 * hidden), 9.0)
        dh, dc = rng.normal(size=hidden), rng.normal(size=hidden)
        ref_dh, ref_dc = dh, dc
        for t in range(5, 0, -1):
            before = dpre.copy()
            dh, dc, _ = nn.lstm_cell_backward((W_x, W_h, K[:, t - 1]), dh, dc, out=dpre[t - 1])
            ref_dh, ref_dc, ref_dpre = lstm_cell_backward_concat(
                (W_x, W_h, C[t - 1], G[t - 1], np.tanh(C[t])), ref_dh, ref_dc)
            assert close(dh, ref_dh) and close(dc, ref_dc)
            assert close(dpre[t - 1], ref_dpre)
            others = np.arange(5) != t - 1
            assert same_bits(dpre[others], before[others])


class TestLstmInputGather:
    """The cell's gathered input projection against the dense product
    W_x @ x (oracles.lstm_cell_dense)."""

    @staticmethod
    def step(W_x, W_h, b, x, h, c):
        hidden = h.shape[0]
        out = np.empty(hidden), np.empty(hidden), np.empty(4 * hidden)
        return nn.lstm_cell_forward(W_x, W_h, b, x, h, c, out=out)

    @pytest.mark.parametrize("order", ["C", "F"])  # unroll passes a column-major copy
    @pytest.mark.parametrize("hidden", [1, 16, 128])
    def test_matches_dense_product(self, hidden, order):
        rng = np.random.default_rng(hidden + 2)
        W_x = np.asarray(rng.normal(scale=3.0, size=(4 * hidden, 128)), order=order)
        W_h, b = rng.normal(size=(4 * hidden, hidden)), rng.normal(size=4 * hidden)
        for trial in range(60):
            h, c = rng.normal(size=hidden), rng.normal(size=hidden)
            k = trial % 4  # 0-, 1-, 2- and 3-hot rows
            x = np.zeros(128)
            x[rng.choice(128, size=k, replace=False)] = 1.0
            weighted = np.where(x > 0, rng.uniform(0.1, 2.0, 128), 0.0)
            # one rounding at most on 0-2 active inputs, so those match bit for bit
            for row, exact in ((x, same_bits if k < 3 else close), (weighted, close),
                               (rng.normal(size=128), close)):
                got = self.step(W_x, W_h, b, row, h, c)
                want = lstm_cell_dense(W_x, W_h, b, row, h, c)
                assert all(exact(g, w) for g, w in zip(got, want)), k

    def test_silent_row_gives_exactly_the_recurrent_part(self):
        rng = np.random.default_rng(5)
        hidden = 16
        W_h, b = rng.normal(size=(4 * hidden, hidden)), rng.normal(size=4 * hidden)
        h, c = rng.normal(size=hidden), rng.normal(size=hidden)
        pre = W_h @ h + b
        gates = sigmoid_masked(pre)
        gates[2 * hidden : 3 * hidden] = np.tanh(pre[2 * hidden : 3 * hidden])
        for W_x in (rng.normal(size=(4 * hidden, 128)), np.full((4 * hidden, 128), np.nan)):
            got_h, got_c, got_gates = self.step(W_x, W_h, b, np.zeros(128), h, c)
            assert same_bits(got_gates, gates)
            i, f, g, o = np.split(gates, 4)
            assert same_bits(got_c, f * c + i * g)
            assert same_bits(got_h, o * np.tanh(f * c + i * g))


SEED_LEN = 5
MODELS = [
    ModelConfig(hidden_size=16, seed_len=SEED_LEN),
    ModelConfig(hidden_size=128, combiner_mode="per_pitch", seed_len=SEED_LEN),
    ModelConfig(hidden_size=8, seed_len=SEED_LEN, attention_enabled=False),
]


def model_and_piece(cfg, n):
    model = Model(cfg, rng=np.random.default_rng(31))
    rng = np.random.default_rng(32)
    data = (rng.random((128, n)) < 0.04).astype(np.uint8)
    data[:, n // 2 : n // 2 + 30] = data[:, :30]  # a repeat, so the template has structure
    roll = PianoRoll(data=data, tempo=120.0, source_id="piece")
    S = SelfSimilarityMatrix(values=tied_template(n, rng), role="template")
    return model, roll, S


# generated-row counts on both sides of the 64-row attention blocks' boundaries
LENGTHS = [SEED_LEN + rows for rows in (63, 64, 65, 129, 145)]
# one generated step, then lengths whose last block is partial or full
TEMPLATE_LENGTHS = [SEED_LEN + 1, 64, 65, 129, 200]


def first_differing_step(fast: np.ndarray, ref: np.ndarray, margins: dict[int, float]) -> str:
    """Failure message for two (steps, 128) sample arrays: the first step
    whose sample differs, and how far that step's uniforms lay from the
    reference's CDF boundaries. A distance near 1e-16 means the last bits
    of the logits flipped a draw; a large one, a real difference."""
    steps = np.flatnonzero((fast != ref).any(axis=1))
    if steps.size == 0:
        return "the samples agree"
    t = int(steps[0])
    where = (f"its uniforms lie {margins[t]:.3g} from the nearest reference CDF boundary"
             if t in margins else "the reference drew no sample there")
    return f"step {t} is the first of {steps.size} whose samples differ; {where}"


@pytest.mark.parametrize("cfg", MODELS, ids=["dense", "per_pitch", "ablated"])
class TestForwardMatchesStepReference:
    def test_forward_piece(self, cfg):
        for n in LENGTHS:
            model, roll, S = model_and_piece(cfg, n)
            fast, ref = np.random.default_rng(33), np.random.default_rng(33)
            trace = forward_piece(model, roll, S, 0.5, fast)
            margins = {}
            X, D, A = forward_piece_per_step(model.params.values, cfg,
                                             roll.data.T.astype(np.float64), S.values, 0.5,
                                             ref, margins)
            # the draws
            assert same_bits(trace.X, X), f"n={n}: {first_differing_step(trace.X, X, margins)}"
            assert fast.bit_generator.state == ref.bit_generator.state, n
            assert close(trace.D, D), n
            assert (trace.A is None) == (A is None)
            # the block's product before t0 plus the step's own sum: the order moved
            assert A is None or close(trace.A, A), n

    def test_generate(self, cfg):
        for n in LENGTHS:
            model, roll, S = model_and_piece(cfg, n)
            seed = roll.data.T[: cfg.seed_len]
            fast, ref = np.random.default_rng(34), np.random.default_rng(34)
            out = generate(model, seed, S, fast)
            margins = {}
            expected = generate_per_step(model.params.values, cfg, seed, S.values, ref, margins)
            assert np.array_equal(out.data, expected), (
                f"n={n}: {first_differing_step(out.data.T, expected.T, margins)}")
            assert fast.bit_generator.state == ref.bit_generator.state


class TestFirstDifferingStep:
    def test_draw_margin_replays_the_sampler_without_advancing_rng(self):
        cfg = ModelConfig(top_k=8, max_notes=3)
        rng = np.random.default_rng(40)
        for _ in range(50):
            d = rng.normal(0.0, 3.0, 128)
            before = rng.bit_generator.state
            margin = draw_margin(d, cfg, rng)
            assert rng.bit_generator.state == before
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = before
            u = replay.random(cfg.max_notes)
            probs = 1.0 / (1.0 + np.exp(-d[cfg.pitch_lo : cfg.pitch_hi + 1]))
            cdf = np.sort(probs)[::-1][: cfg.top_k].cumsum()
            cdf /= cdf[-1]
            assert margin == pytest.approx(np.abs(u[:, None] - cdf[:-1]).min(), abs=1e-12)
            sample_notes_lexsort(d, cfg, rng)  # draws exactly those uniforms
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_names_the_step_and_its_margin(self):
        cfg = MODELS[0]
        model, roll, S = model_and_piece(cfg, LENGTHS[0])
        margins = {}
        X, _, _ = forward_piece_per_step(model.params.values, cfg,
                                         roll.data.T.astype(np.float64), S.values, 1.0,
                                         np.random.default_rng(33), margins)
        assert sorted(margins) == list(range(SEED_LEN, LENGTHS[0] - 1))
        flipped = X.copy()
        flipped[SEED_LEN + 7, 60] = 1.0 - flipped[SEED_LEN + 7, 60]
        flipped[SEED_LEN + 9] = 0.0
        assert first_differing_step(flipped, X, margins) == (
            f"step {SEED_LEN + 7} is the first of 2 whose samples differ; its uniforms lie "
            f"{margins[SEED_LEN + 7]:.3g} from the nearest reference CDF boundary")
        flipped[1, 0] = 1.0 - flipped[1, 0]  # a seed row: nothing was drawn there
        assert first_differing_step(flipped, X, margins).endswith(
            "the reference drew no sample there")
        assert first_differing_step(X, X, margins) == "the samples agree"


def chord_roll(n: int, seed: int) -> PianoRoll:
    """Six chords drawn again and again, and about one sample in seven silent."""
    rng = np.random.default_rng(seed)
    chords = [rng.choice(np.arange(36, 84), size=3, replace=False) for _ in range(6)]
    data = np.zeros((128, n), dtype=np.uint8)
    for s in range(n):
        if rng.random() >= 0.15:
            data[chords[rng.integers(6)], s] = 1
    return PianoRoll(data=data, tempo=120.0, source_id="chords")


class TestStructureMatchesTwoPass:
    @pytest.mark.parametrize("n", [1, 2, 63, 700, 1381])
    def test_ssm(self, n):
        roll = chord_roll(n, n)
        roll.data[:, n // 2] = 0
        cols = chroma(roll)
        assert same_bits(ssm(cols).values, ssm_two_pass(cols))
        if n >= 63:  # repeated chords: the clip at 1 is exercised
            unit, _ = unit_columns(cols)
            assert (unit.T @ unit > 1.0).any()

    @pytest.mark.parametrize("cfg", MODELS[::2], ids=["dense", "ablated"])
    def test_piece_loss(self, cfg):
        roll = chord_roll(700, 35)
        model = Model(cfg, rng=np.random.default_rng(36))
        S = ssm(chroma(roll))
        trace = forward_piece(model, roll, S, 0.8, np.random.default_rng(37))
        for with_grad in (True, False):
            results = []
            for loss_fn in (piece_loss, piece_loss_two_pass):
                model.params.zero_grads()
                loss = loss_fn(model, trace, roll, S, with_grad=with_grad)
                results.append((loss, {k: g.copy() for k, g in model.params.grads.items()}))
            (loss, grads), (expected, expected_grads) = results
            assert same_bits(loss.bce, expected.bce)
            for field in ("total", "structural"):  # behind the structural sum
                assert close(getattr(loss, field), getattr(expected, field)), field
            for name, grad in expected_grads.items():  # the LSTM's and the head's
                assert close(grads[name], grad), name
            assert not with_grad or any(grad.any() for grad in grads.values())


def templates(n: int):
    """(name, SSM) of a block, a chord and a random template of n samples."""
    yield "block", synth_ssm(SynthSpec(length=n, blocks=[(0, n // 2, 0.8), (n // 3, n, 0.3)],
                                       background=0.1))
    yield "chord", ssm(chroma(chord_roll(n, n)))
    yield "random", SelfSimilarityMatrix(values=np.random.default_rng(n).random((n, n)))


@pytest.mark.parametrize("n", TEMPLATE_LENGTHS)
class TestCompiledTemplate:
    """An SSM's weights blocks and unroll's blocked history against the
    per-row projection and the whole-history product."""

    def test_block_weights_match_per_row(self, n):
        for name, S in templates(n):
            expected = attention_weights_per_row(S.values, SEED_LEN)
            for start in range(SEED_LEN, n, ATTENTION_BLOCK_ROWS):
                stop = min(start + ATTENTION_BLOCK_ROWS, n)
                rows = expected[start - SEED_LEN : stop - SEED_LEN]
                assert same_bits(S.weights(start, stop), rows[:, : stop - 1]), (name, start)

    def test_attention_vectors_within_rtol_at_every_step(self, n):
        model = Model(MODELS[0], rng=np.random.default_rng(51))
        for name, S in templates(n):
            trace = forward_piece(model, chord_roll(n, n + 1), S, 0.5, np.random.default_rng(52))
            whole = [sparsemax_1d(S.values[t, :t]) @ trace.X[:t] for t in range(SEED_LEN, n)]
            assert close(trace.A, np.array(whole)), name

    def test_draws_match_step_references(self, n):
        cfg = MODELS[0]
        model = Model(cfg, rng=np.random.default_rng(53))
        roll = chord_roll(n, n + 2)
        for name, S in templates(n):
            fast, ref = np.random.default_rng(54), np.random.default_rng(54)
            trace = forward_piece(model, roll, S, 0.5, fast)
            X, _, _ = forward_piece_per_step(model.params.values, cfg,
                                             roll.data.T.astype(np.float64), S.values, 0.5, ref)
            assert same_bits(trace.X, X), name
            assert fast.bit_generator.state == ref.bit_generator.state, name
            seed = roll.data.T[:SEED_LEN]
            out = generate(model, seed, S, fast)
            assert np.array_equal(out.data, generate_per_step(model.params.values, cfg, seed,
                                                              S.values, ref)), name
            assert fast.bit_generator.state == ref.bit_generator.state, name
