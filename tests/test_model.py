import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import central_difference, relative_error
from sing.model import (
    MAX_HIDDEN_SIZE,
    Model,
    ModelConfig,
    attention_step,
    combine_backward,
    combine_forward,
    forward_step,
    generate,
    load_model,
    param_table,
    sample_notes,
    save_model,
    unroll,
)
from sing.nn import ParamSet, adam_step, checkpoint_to_bytes, lstm_cell_forward, sigmoid
from sing.structure import SelfSimilarityMatrix, SynthSpec, synth_ssm


def small_config(**overrides) -> ModelConfig:
    defaults = dict(hidden_size=8, seed_len=2)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def random_history(rng, t):
    return (rng.random((t, 128)) < 0.05).astype(np.float64)


def weights_block(S, start, stop):
    """S.weights(start, stop): row i holds step start + i's weights, then zeros."""
    return SelfSimilarityMatrix(values=S).weights(start, stop)


def weights_row(S, t):
    """Step t's attention weights over its t past steps."""
    return weights_block(S, t, t + 1)[0]


NOTHING_BEFORE = np.zeros(128)  # attention_step's before for a block that starts at step 0


def zero_state(model):
    hidden = model.cfg.hidden_size
    return np.zeros(hidden), np.zeros(hidden)


def lstm_step(model, x, state):
    """The model's LSTM state (h, c) after input x from state (h, c)."""
    p = model.params
    hidden = model.cfg.hidden_size
    h, c, _ = lstm_cell_forward(p["lstm.W_x"], p["lstm.W_h"], p["lstm.b"], x, *state,
                                out=(np.empty(hidden), np.empty(hidden), np.empty(4 * hidden)))
    return h, c


class TestAttentionStep:
    def test_single_past_step_gets_full_weight(self):
        S = np.zeros((4, 4))
        S[1, 0] = 0.7
        history = np.zeros((1, 128))
        history[0, 60] = 1.0
        W = weights_block(S, 1, 4)
        assert W[0].tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(attention_step(W[0, :1], history, NOTHING_BEFORE), history[0])

    def test_simplex_row_passes_through(self):
        S = np.zeros((4, 4))
        S[2, :2] = [0.9, 0.1]
        history = np.zeros((2, 128))
        history[0, 10] = 1.0
        history[1, 20] = 1.0
        w = weights_row(S, 2)
        a = attention_step(w, history, NOTHING_BEFORE)
        assert np.allclose(w, [0.9, 0.1])
        assert a[10] == pytest.approx(0.9)
        assert a[20] == pytest.approx(0.1)

    def test_zero_history_zero_vector(self):
        S = np.full((5, 5), 0.5)
        w = weights_row(S, 3)
        a = attention_step(w, np.zeros((3, 128)), NOTHING_BEFORE)
        assert a.sum() == 0.0
        assert w.sum() == pytest.approx(1.0)

    def test_weights_nonnegative_sum_one_sparse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            first = int(rng.integers(1, n))
            W = weights_block(rng.random((n, n)), first, n)
            assert W.shape == (n - first, n - 1)
            assert W.min() >= 0.0
            assert np.allclose(W.sum(axis=1), 1.0, atol=1e-9)
            steps = np.arange(first, n)[:, None]
            assert not W[np.arange(n - 1) >= steps].any()  # nothing on or past the diagonal

    def test_block_split_of_the_history_sums_to_the_whole(self):
        rng = np.random.default_rng(1)
        t = 40
        w, history = weights_row(rng.random((t + 1, t + 1)), t), random_history(rng, t)
        for t0 in (0, 1, 17, t):
            a = attention_step(w[t0:], history[t0:], w[:t0] @ history[:t0])
            assert np.allclose(a, w @ history, rtol=1e-12, atol=0.0), t0


class TestCombine:
    def test_per_pitch_ablation_passes_z(self):
        params = ParamSet()
        params.add("combine.w_a", np.array([0.0]))
        params.add("combine.w_z", np.array([1.0]))
        params.add("combine.b", np.array([0.0]))
        rng = np.random.default_rng(1)
        a, z = rng.random(128), rng.random(128)
        d = combine_forward(params, "per_pitch", a, z)
        assert np.array_equal(d, z)

    def test_dense_block_identity_passes_z(self):
        params = ParamSet()
        W = np.concatenate([np.zeros((128, 128)), np.eye(128)], axis=1)
        params.add("combine.W", W)
        params.add("combine.b", np.zeros(128))
        rng = np.random.default_rng(2)
        a, z = rng.random(128), rng.random(128)
        d = combine_forward(params, "dense", a, z)
        assert np.allclose(d, z)

    @pytest.mark.parametrize("mode", ["dense", "per_pitch"])
    def test_gradients_match_central_differences(self, mode):
        rng = np.random.default_rng(3)
        params = ParamSet()
        if mode == "dense":
            params.add("combine.W", rng.normal(size=(128, 256)) * 0.1)
            params.add("combine.b", rng.normal(size=128) * 0.1)
            names = ["combine.W", "combine.b"]
        else:
            params.add("combine.w_a", rng.normal(size=1))
            params.add("combine.w_z", rng.normal(size=1))
            params.add("combine.b", rng.normal(size=1))
            names = ["combine.w_a", "combine.w_z", "combine.b"]
        a, z = rng.random(128), rng.random(128)
        upstream = rng.normal(size=128)

        dz = combine_backward(params, mode, a[None], z[None], upstream[None])[0]

        for name in names:
            def loss_of(p, _name=name):
                saved = params.values[_name]
                params.values[_name] = p
                out = combine_forward(params, mode, a, z)
                params.values[_name] = saved
                return float(upstream @ out)

            fd = central_difference(loss_of, params.values[name].copy())
            assert relative_error(fd, params.grads[name]) < 1e-4, name
        fd_z = central_difference(lambda zz: float(upstream @ combine_forward(params, mode, a, zz)), z.copy())
        assert relative_error(fd_z, dz) < 1e-4


class TestForwardStep:
    def test_ablated_output_ignores_ssm(self):
        cfg = small_config(attention_enabled=False)
        model = Model(cfg, rng=np.random.default_rng(4))
        seed = (np.random.default_rng(5).random((cfg.seed_len, 128)) < 0.1).astype(np.uint8)
        rolls = [
            generate(model, seed, synth_ssm(SynthSpec(length=8, blocks=[(0, 4, level)])),
                     np.random.default_rng(7))
            for level in (0.2, 0.9)
        ]
        assert np.array_equal(rolls[0].data, rolls[1].data)

    def test_zero_model_gives_half_probabilities(self):
        cfg = small_config()
        model = Model(cfg, rng=np.random.default_rng(8))
        for name in model.params.values:
            model.params.values[name][...] = 0.0
        rng = np.random.default_rng(9)
        h, _ = lstm_step(model, rng.random(128), zero_state(model))
        d, _ = forward_step(model, weights_row(np.full((4, 4), 0.5), 2), random_history(rng, 2),
                            NOTHING_BEFORE, h)
        assert np.array_equal(d, np.zeros(128))
        assert np.allclose(sigmoid(d), 0.5)

    def test_deterministic(self):
        cfg = small_config()
        model = Model(cfg, rng=np.random.default_rng(10))
        rng = np.random.default_rng(11)
        prev = rng.random(128)
        history = random_history(rng, 2)
        w = weights_row(np.random.default_rng(12).random((5, 5)), 2)
        h, _ = lstm_step(model, prev, zero_state(model))
        d1, _ = forward_step(model, w, history, NOTHING_BEFORE, h)
        d2, _ = forward_step(model, w, history, NOTHING_BEFORE, h)
        assert np.array_equal(d1, d2)


class TestUnroll:
    def test_seed_of_wrong_shape_rejected(self):
        model = Model(small_config(seed_len=3), rng=np.random.default_rng(30))
        S = synth_ssm(SynthSpec(length=8))
        for shape in ((2, 128), (3, 127), (384,)):
            with pytest.raises(ValueError, match=r"seed must be \(3, 128\)"):
                unroll(model, np.zeros(shape), S, lambda t, d: np.zeros(128))

    @pytest.mark.parametrize("n", [1, 3])
    def test_template_no_longer_than_seed_rejected(self, n):
        model = Model(small_config(seed_len=3), rng=np.random.default_rng(31))
        # the length is checked first, so a short piece is named as such
        for seed in (np.zeros((3, 128)), np.zeros((n, 128))):
            with pytest.raises(ValueError, match=f"length {n} must exceed seed length 3"):
                unroll(model, seed, synth_ssm(SynthSpec(length=n)),
                       lambda t, d: np.zeros(128))

    @pytest.mark.parametrize("attention", [True, False])
    def test_input_buffer_is_the_seed_then_the_next_inputs(self, attention):
        model = Model(small_config(seed_len=3, attention_enabled=attention),
                      rng=np.random.default_rng(32))
        seed = (np.random.default_rng(33).random((3, 128)) < 0.1).astype(np.uint8)
        asked = []

        def next_input(t, d):
            asked.append(t)
            return np.full(128, float(t))

        trace = unroll(model, seed, synth_ssm(SynthSpec(length=9)), next_input)
        assert trace.X.shape == (8, 128) and trace.X.ctypes.data % 64 == 0  # BLAS-aligned rows
        assert np.array_equal(trace.X[:3], seed)
        assert asked == [3, 4, 5, 6, 7]
        assert all(np.all(trace.X[t] == t) for t in asked)
        assert trace.D.shape == (6, 128) and (trace.A is None) == (not attention)


class TestPerPitchMatchesAblatedBaseline:
    def test_equivalence_on_three_steps(self):
        # per-pitch combiner with w_a = 0 is the ablated head with W = w_z*I
        rng = np.random.default_rng(14)
        sing_cfg = ModelConfig(hidden_size=128, combiner_mode="per_pitch", seed_len=2)
        sing_model = Model(sing_cfg, rng=np.random.default_rng(15))
        sing_model.params.values["combine.w_a"][...] = 0.0
        sing_model.params.values["combine.w_z"][...] = 0.7
        sing_model.params.values["combine.b"][...] = 0.3

        ablated_cfg = ModelConfig(hidden_size=128, seed_len=2, attention_enabled=False)
        ablated = Model(ablated_cfg, rng=np.random.default_rng(16))
        for name in ("lstm.W_x", "lstm.W_h", "lstm.b"):
            ablated.params.values[name][...] = sing_model.params[name]
        ablated.params.values["head.W"][...] = 0.7 * np.eye(128)
        ablated.params.values["head.b"][...] = 0.3

        S = np.random.default_rng(17).random((6, 6))
        state_a = zero_state(sing_model)
        state_b = zero_state(ablated)
        W = weights_block(S, 1, 6)
        history = random_history(rng, 5)
        for t in (1, 2, 3):
            prev = history[t - 1]
            state_a = lstm_step(sing_model, prev, state_a)
            state_b = lstm_step(ablated, prev, state_b)
            d_a, _ = forward_step(sing_model, W[t - 1, :t], history[:t], NOTHING_BEFORE, state_a[0])
            d_b, _ = forward_step(ablated, None, None, None, state_b[0])
            assert np.allclose(d_a, d_b, atol=1e-12)


class TestSampleNotes:
    def test_degenerate_mass_single_note(self):
        cfg = ModelConfig()
        d = np.full(128, -60.0)
        d[64] = 60.0
        rng = np.random.default_rng(18)
        for _ in range(10):
            sample = sample_notes(d, cfg, rng)
            assert sample.sum() == 1
            assert sample[64] == 1

    def test_masked_pitches_never_active(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = rng.normal(scale=4.0, size=128)
            sample = sample_notes(d, cfg, rng)
            assert sample[:20].sum() == 0
            assert sample[108:].sum() == 0
            assert 1 <= sample.sum() <= 3

    def test_uniform_probs_match_binomial_rate(self):
        # equal sigmoid(d) everywhere: ties select the 50 lowest allowed
        # pitches, each drawn with probability 1/50 three times
        cfg = ModelConfig()
        rng = np.random.default_rng(20)
        d = np.zeros(128)
        n_draws = 100_000
        counts = np.zeros(128)
        for _ in range(n_draws):
            counts += sample_notes(d, cfg, rng)
        expected = 1.0 - (1.0 - 1.0 / 50.0) ** 3
        sigma = np.sqrt(n_draws * expected * (1 - expected))
        active = counts[20:70]
        assert np.all(np.abs(active - n_draws * expected) <= 3 * sigma)
        assert counts[70:].sum() == 0  # outside the tie-broken top-50

    def test_fallback_uniform_when_probabilities_underflow(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(21)
        sample = sample_notes(np.full(128, -800.0), cfg, rng)
        assert 1 <= sample.sum() <= 3
        assert sample[:20].sum() == 0 and sample[108:].sum() == 0


class TestGenerate:
    def _model_and_template(self, n=16):
        cfg = small_config(seed_len=3)
        model = Model(cfg, rng=np.random.default_rng(22))
        template = synth_ssm(SynthSpec(length=n, blocks=[(0, n // 2, 0.8)], background=0.1))
        seed = np.zeros((3, 128), dtype=np.uint8)
        seed[:, 60] = 1
        return model, template, seed

    def test_single_step_boundary(self):
        cfg = small_config(seed_len=3)
        model = Model(cfg, rng=np.random.default_rng(23))
        template = synth_ssm(SynthSpec(length=4))
        seed = np.zeros((3, 128), dtype=np.uint8)
        seed[:, 60] = 1
        roll = generate(model, seed, template, np.random.default_rng(0))
        assert roll.n_samples == 4
        assert np.array_equal(roll.data[:, :3].T, seed)

    def test_template_too_short_rejected(self):
        model, _, seed = self._model_and_template()
        short = synth_ssm(SynthSpec(length=3))
        with pytest.raises(ValueError):
            generate(model, seed, short, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        model, template, seed = self._model_and_template()
        roll_a = generate(model, seed, template, np.random.default_rng(99))
        roll_b = generate(model, seed, template, np.random.default_rng(99))
        assert roll_a == roll_b

    def test_note_count_bounds_over_100_generations(self):
        model, template, seed = self._model_and_template(n=12)
        rng = np.random.default_rng(24)
        for _ in range(100):
            roll = generate(model, seed, template, rng)
            counts = roll.data[:, 3:].sum(axis=0)
            assert counts.min() >= 1 and counts.max() <= 3
            assert roll.data[:20, 3:].sum() == 0
            assert roll.data[108:, 3:].sum() == 0


class TestModelConfigText:
    def test_round_trip(self):
        cfg = ModelConfig(hidden_size=32, seed_len=5, attention_enabled=False)
        assert ModelConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_every_field_off_default(self):
        # per_pitch needs the default hidden size, so two configs cover every field
        configs = [
            ModelConfig(combiner_mode="per_pitch", seed_len=7, top_k=20, max_notes=2,
                        pitch_lo=30, pitch_hi=90, attention_enabled=False),
            ModelConfig(hidden_size=64),
        ]
        default = ModelConfig()
        for f in fields(ModelConfig):
            assert any(getattr(c, f.name) != getattr(default, f.name) for c in configs), f.name
        for cfg in configs:
            assert ModelConfig.from_text(cfg.to_text()) == cfg

    def test_older_file_with_removed_key_loads(self):
        text = (
            "hidden_size = 32\ncombiner_mode = dense\nseed_len = 5\ntop_k = 50\n"
            "max_notes = 3\npitch_lo = 20\npitch_hi = 107\nattention_enabled = True\n"
            "lstm_output_sparsemax = False\n"
        )
        assert ModelConfig.from_text(text) == ModelConfig(hidden_size=32, seed_len=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(pitch_lo=50, pitch_hi=20)
        with pytest.raises(ValueError):
            ModelConfig(max_notes=0)
        with pytest.raises(ValueError):
            ModelConfig(combiner_mode="per_pitch", hidden_size=64)


class TestCheckpointIo:
    def test_save_load_preserves_outputs(self, tmp_path):
        cfg = small_config()
        model = Model(cfg, rng=np.random.default_rng(25))
        save_model(model, tmp_path / "m.ckpt")
        again = load_model(tmp_path / "m.ckpt", cfg)
        rng = np.random.default_rng(26)
        prev = rng.random(128)
        history = random_history(rng, 2)
        w = weights_row(np.random.default_rng(27).random((5, 5)), 2)
        d1, _ = forward_step(model, w, history, NOTHING_BEFORE,
                             lstm_step(model, prev, zero_state(model))[0])
        d2, _ = forward_step(again, w, history, NOTHING_BEFORE,
                             lstm_step(again, prev, zero_state(again))[0])
        assert np.array_equal(d1, d2)

    def test_load_fills_every_tensor_moment_and_the_step(self, tmp_path):
        cfg = small_config()
        model = Model(cfg, rng=np.random.default_rng(24))
        for name in model.params.values:
            model.params.accumulate(name, np.ones_like(model.params[name]))
        adam_step(model.params, lr=0.01)
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt", cfg)
        assert loaded.params.step == 1
        assert checkpoint_to_bytes(loaded.params) == (tmp_path / "m.ckpt").read_bytes()

    def test_cut_inside_a_tensor_names_it(self, tmp_path):
        cfg = small_config()
        blob = checkpoint_to_bytes(Model(cfg, rng=np.random.default_rng(29)).params)
        for cut, name in ((40, "combine.W"), (len(blob) - 3, "adam/step")):
            (tmp_path / "m.ckpt").write_bytes(blob[:cut])
            with pytest.raises(ValueError) as exc:
                load_model(tmp_path / "m.ckpt", cfg)
            assert str(exc.value) == f"checkpoint truncated at byte {cut}, inside tensor {name!r}"

    def test_attention_checkpoint_with_ablated_config_rejected(self, tmp_path):
        save_model(Model(small_config(), rng=np.random.default_rng(28)), tmp_path / "m.ckpt")
        with pytest.raises(ValueError) as exc:
            load_model(tmp_path / "m.ckpt", small_config(attention_enabled=False))
        assert str(exc.value) == (
            "checkpoint tensor 'combine.W' (128, 136) where 'head.W' (128, 8) belongs")

    def test_hidden_size_mismatch_rejected(self, tmp_path):
        save_model(Model(small_config(), rng=np.random.default_rng(29)), tmp_path / "m.ckpt")
        with pytest.raises(ValueError) as exc:
            load_model(tmp_path / "m.ckpt", small_config(hidden_size=6))
        assert str(exc.value) == (
            "checkpoint tensor 'combine.W' (128, 136) where 'combine.W' (128, 134) belongs")

    def test_mismatch_refused_before_any_tensor_is_built(self, tmp_path, monkeypatch):
        """A hidden-2,048 config beside a hidden-6 checkpoint: the names and
        shapes are read first, so no Model is built and the peak stays at a few
        MB (building it took 672 MiB)."""
        save_model(Model(small_config(hidden_size=6), rng=np.random.default_rng(30)),
                   tmp_path / "m.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("Model built before the checkpoint was checked")

        monkeypatch.setattr(Model, "__init__", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                load_model(tmp_path / "m.ckpt", small_config(hidden_size=MAX_HIDDEN_SIZE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "checkpoint tensor 'combine.W' (128, 134) where 'combine.W' (128, 2176) belongs")
        assert peak < 2**20, peak

    @pytest.mark.parametrize("cfg", [small_config(), small_config(attention_enabled=False),
                                     small_config(hidden_size=128, combiner_mode="per_pitch")],
                             ids=["dense", "ablated", "per_pitch"])
    def test_param_table_is_the_model_and_the_checkpoint(self, tmp_path, cfg):
        model = Model(cfg, rng=np.random.default_rng(31))
        table = param_table(cfg)
        assert list(model.params.values) == list(table)
        assert [value.shape for value in model.params.values.values()] == \
            [shape for shape, _ in table.values()]
        save_model(model, tmp_path / "m.ckpt")
        loaded = load_model(tmp_path / "m.ckpt", cfg)
        assert list(loaded.params.values) == list(table)
        assert checkpoint_to_bytes(loaded.params) == (tmp_path / "m.ckpt").read_bytes()
