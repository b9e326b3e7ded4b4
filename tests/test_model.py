"""Model contracts: PE offsets, attention kinds, decoding, checkpoints."""

import gc
import json

import numpy as np
import pytest

from conftest import assert_grads_match, tiny_config
from vttcap import tensor as T
from vttcap.errors import ContractError, FormatError
from vttcap.features import FeatureMatrix, dummy_audio
from vttcap.model import (ModelConfig, TransformerModel, XLinearWeights, causal_mask,
                          embed_multimodal, greedy_decode, load_checkpoint,
                          load_checkpoint_for,
                          memory_attention, pe_block, sample_decode, save_checkpoint,
                          sinusoidal_pe, x_linear_attention)
from vttcap.tensor import RngState


def rand_frames(rng, t=4, d=5):
    return FeatureMatrix(rng.normal(size=(t, d)).astype(np.float32))


# ---------------------------------------------------------------------------
# straight-line numpy oracles (independent of the tensor engine)


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_vanilla_attention(q, k, v):
    return np_softmax(q @ k.T / np.sqrt(q.shape[1])) @ v


def oracle_x_linear(q, k, v, wq, wk, wb, ws, wc):
    relu = lambda a: np.maximum(a, 0.0)
    k_emb = relu(k @ wk)
    outs, spatials = [], []
    for t in range(q.shape[0]):
        q_emb = relu(q[t:t + 1] @ wq)
        bil = k_emb * q_emb
        emb = relu(bil @ wb)
        scores = (emb @ ws).reshape(-1)
        e = np.exp(scores - scores.max())
        spatial = e / e.sum()
        pooled = emb.mean(axis=0, keepdims=True)
        gate = 1.0 / (1.0 + np.exp(-(pooled @ wc)))
        outs.append(gate * (spatial.reshape(1, -1) @ v))
        spatials.append(spatial)
    return np.concatenate(outs, axis=0), np.stack(spatials)


class TestSinusoidalPe:
    def test_position_zero(self):
        assert np.allclose(sinusoidal_pe(0, 8), [0, 1, 0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        for pos in (1, 17, 300, 9999):
            pe = sinusoidal_pe(pos, 16)
            assert np.all(np.abs(pe) <= 1.0)

    def test_audio_offset_vector(self):
        # the first audio row receives exactly the position-300 encoding
        pe300 = sinusoidal_pe(300, 8)
        assert np.allclose(pe_block(300, 2, 8)[0], pe300)

    def test_negative_position(self):
        with pytest.raises(ContractError):
            sinusoidal_pe(-1, 8)


class TestEmbedMultimodal:
    def setup_method(self):
        self.cfg = tiny_config()
        self.zero = TransformerModel(self.cfg, init="zeros")

    def test_pe_indices_with_audio(self):
        frames = FeatureMatrix(np.zeros((2, 5), dtype=np.float32))
        audio = FeatureMatrix(np.zeros((3, 3), dtype=np.float32))
        out = embed_multimodal(frames, audio, self.zero)
        assert out.shape == (5, 8)
        expected = np.concatenate([pe_block(0, 2, 8), pe_block(300, 3, 8)])
        assert np.array_equal(out.data, expected.astype(np.float32))

    def test_absent_audio_single_offset_row(self):
        frames = FeatureMatrix(np.zeros((2, 5), dtype=np.float32))
        out = embed_multimodal(frames, None, self.zero)
        assert out.shape == (3, 8)
        assert np.array_equal(out.data[-1],
                              sinusoidal_pe(300, 8).astype(np.float32))

    def test_dummy_equals_absent(self, np_rng):
        model = TransformerModel(self.cfg, seed=4)
        frames = rand_frames(np_rng)
        a = model.forward_teacher_forced(frames, None, [2, 5, 7])
        b = model.forward_teacher_forced(frames, dummy_audio(1, 3), [2, 5, 7])
        assert np.array_equal(a.data, b.data)

    def test_frames_beyond_offset_rejected(self, np_rng):
        frames = FeatureMatrix(np_rng.normal(size=(301, 5)).astype(np.float32))
        with pytest.raises(ContractError, match="p_audio"):
            embed_multimodal(frames, None, self.zero)


class TestMemoryAttention:
    def test_zero_memory_equals_vanilla(self, np_rng):
        for _ in range(20):
            q = T.constant(np_rng.normal(size=(3, 4)))
            k = T.constant(np_rng.normal(size=(5, 4)))
            v = T.constant(np_rng.normal(size=(5, 4)))
            out = memory_attention(q, k, v, None, None)
            assert np.allclose(out.data,
                               oracle_vanilla_attention(q.data, k.data, v.data),
                               atol=1e-6)

    def test_rows_sum_to_one_over_keys_and_memory(self):
        rng = np.random.default_rng(8)
        q = T.constant(rng.normal(size=(2, 3)))
        k = T.constant(rng.normal(size=(2, 3)))
        # identity-like values expose the attention weights directly
        v = T.constant(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        m_k = T.constant(rng.normal(size=(1, 3)))
        m_v = T.constant(np.array([[0, 0, 1.0]]))
        out = memory_attention(q, k, v, m_k, m_v)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_hand_sized_oracle(self):
        # T=1, d=1 memory slot: evaluate the formula directly
        q = T.constant(np.array([[1.0, 0.0]]))
        k = T.constant(np.array([[2.0, 0.0]]))
        v = T.constant(np.array([[3.0, 1.0]]))
        m_k = T.constant(np.array([[0.0, 5.0]]))
        m_v = T.constant(np.array([[7.0, 2.0]]))
        out = memory_attention(q, k, v, m_k, m_v)
        scores = np.array([2.0, 0.0]) / np.sqrt(2.0)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        expected = w[0] * np.array([3.0, 1.0]) + w[1] * np.array([7.0, 2.0])
        assert np.allclose(out.data[0], expected, atol=1e-6)

    def test_mask_excludes_padded_keys(self, np_rng):
        q = T.constant(np_rng.normal(size=(2, 4)))
        k = T.constant(np_rng.normal(size=(3, 4)))
        v = T.constant(np_rng.normal(size=(3, 4)))
        mask = np.array([[0.0, 0.0, -1e9]] * 2, dtype=np.float64)
        out = memory_attention(q, k, v, None, None, mask)
        k2 = T.constant(k.data[:2])
        v2 = T.constant(v.data[:2])
        expected = memory_attention(q, k2, v2, None, None)
        assert np.allclose(out.data, expected.data, atol=1e-7)


class TestXLinearAttention:
    def make_weights(self, rng, d):
        arrays = {n: rng.normal(size=(d, d)) for n in ("wq", "wk", "wb", "wc")}
        arrays["ws"] = rng.normal(size=(d, 1))
        return ({n: T.constant(a) for n, a in arrays.items()}, arrays)

    def test_output_shape_matches_values(self, np_rng):
        tensors, _ = self.make_weights(np_rng, 4)
        out = x_linear_attention(T.constant(np_rng.normal(size=(3, 4))),
                                 T.constant(np_rng.normal(size=(6, 4))),
                                 T.constant(np_rng.normal(size=(6, 4))),
                                 XLinearWeights(**tensors))
        assert out.shape == (3, 4)

    def test_identical_keys_uniform_spatial(self, np_rng):
        tensors, arrays = self.make_weights(np_rng, 4)
        q = np_rng.normal(size=(2, 4))
        k = np.tile(np_rng.normal(size=(1, 4)), (5, 1))
        v = np_rng.normal(size=(5, 4))
        _, spatial = oracle_x_linear(q, k, v, arrays["wq"], arrays["wk"],
                                     arrays["wb"], arrays["ws"], arrays["wc"])
        assert np.allclose(spatial, 0.2, atol=1e-6)
        # with uniform weights the output is invariant to value-row order
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v),
                                 XLinearWeights(**tensors))
        shuffled = x_linear_attention(T.constant(q), T.constant(k),
                                      T.constant(v[::-1].copy()),
                                      XLinearWeights(**tensors))
        assert np.allclose(out.data, shuffled.data, atol=1e-6)

    def test_two_by_two_matches_oracle(self):
        rng = np.random.default_rng(21)
        tensors, arrays = self.make_weights(rng, 2)
        q = rng.normal(size=(2, 2))
        k = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v),
                                 XLinearWeights(**tensors))
        expected, _ = oracle_x_linear(q, k, v, arrays["wq"], arrays["wk"],
                                      arrays["wb"], arrays["ws"], arrays["wc"])
        assert np.allclose(out.data, expected, atol=1e-9)


class TestForwardTeacherForced:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_causal_mask(self, kind, np_rng):
        model = TransformerModel(tiny_config(kind), seed=2)
        frames = rand_frames(np_rng)
        base = model.forward_teacher_forced(frames, None, [2, 5, 7, 9])
        poked = model.forward_teacher_forced(frames, None, [2, 5, 8, 9])
        assert np.array_equal(base.data[:2], poked.data[:2])
        assert not np.array_equal(base.data[2:], poked.data[2:])

    def test_logit_shape(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        out = model.forward_teacher_forced(rand_frames(np_rng), None, [2, 5, 7])
        assert out.shape == (3, 12)

    def test_zero_init_cross_entropy_is_log_vocab(self, np_rng):
        model = TransformerModel(tiny_config(), init="zeros")
        logits = model.forward_teacher_forced(rand_frames(np_rng), None, [2, 5, 7])
        ce = T.cross_entropy(logits, [5, 7, 3])
        assert ce.item() == pytest.approx(3 * np.log(12), rel=1e-6)

    def test_token_out_of_range(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        with pytest.raises(ContractError):
            model.forward_teacher_forced(rand_frames(np_rng), None, [2, 12])

    def test_encoder_is_order_sensitive(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        frames = rand_frames(np_rng, t=4)
        permuted = FeatureMatrix(frames.values[::-1].copy())
        a = model.encode(frames, None)
        b = model.encode(permuted, None)
        assert not np.allclose(a.data, b.data)


class TestGradientChecks:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_full_model_gradients(self, kind, np_rng):
        model = TransformerModel(tiny_config(kind), seed=3, dtype=np.float64)
        frames = FeatureMatrix(np_rng.normal(size=(3, 5)).astype(np.float32))
        audio = FeatureMatrix(np_rng.normal(size=(2, 3)).astype(np.float32))
        ids = [2, 5, 7, 4, 3]

        def loss():
            logits = model.forward_teacher_forced(frames, audio, ids[:-1])
            return T.cross_entropy(logits, ids[1:])

        worst = assert_grads_match(loss, list(model.params.values()),
                                   np.random.default_rng(1), n_components=30)
        assert worst < 1e-4


class TestGreedyDecode:
    def test_forced_token_then_eos(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, init="zeros")
        # probe the final decoder states by projecting them through identity
        probe = np.zeros((8, 12), dtype=np.float32)
        probe[:8, :8] = np.eye(8)
        model.params["out_proj.w"].data = probe
        with T.no_grad():
            enc = model.encode(FeatureMatrix(np.zeros((2, 5), dtype=np.float32)), None)
            x0 = model.decode_logits(enc, [2]).data[0, :8].astype(np.float64)
            x1 = model.decode_logits(enc, [2, 7]).data[1, :8].astype(np.float64)
        w = np.zeros((8, 12))
        w[:, 7] = x0 / np.linalg.norm(x0)
        w[:, 3] = x1 / np.linalg.norm(x1)  # EOS column
        model.params["out_proj.w"].data = w.astype(np.float32)
        ids = greedy_decode(model, FeatureMatrix(np.zeros((2, 5), dtype=np.float32)),
                            None, bos_id=2, eos_id=3)
        assert ids == [2, 7, 3]

    def test_length_cap(self, np_rng):
        model = TransformerModel(tiny_config(), init="zeros")
        model.params["out_proj.b"].data[7] = 5.0  # constant argmax, never EOS
        ids = greedy_decode(model, rand_frames(np_rng), None, 2, 3, l_max=6)
        assert len(ids) <= 6 + 2
        assert ids == [2] + [7] * 7

    def test_deterministic(self, np_rng):
        model = TransformerModel(tiny_config(), seed=9)
        frames = rand_frames(np_rng)
        assert greedy_decode(model, frames, None, 2, 3) == \
            greedy_decode(model, frames, None, 2, 3)


class TestSampleDecode:
    def test_temperature_limit_is_greedy(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        frames = rand_frames(np_rng)
        greedy = greedy_decode(model, frames, None, 2, 3)
        rolls = sample_decode(model, frames, None, 2, 3, n=3, rng=RngState(0),
                              temperature=1e-8)
        for ids, logps in rolls:
            assert ids == greedy
            assert all(lp > -1e-6 for lp in logps)

    def test_seed_reproducibility(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        frames = rand_frames(np_rng)
        a = sample_decode(model, frames, None, 2, 3, n=4, rng=RngState(11))
        b = sample_decode(model, frames, None, 2, 3, n=4, rng=RngState(11))
        assert a == b

    def test_first_token_frequencies(self):
        # fixed three-token softmax via output bias; 1e5 single-token rollouts
        cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=1, d_model=2, d_ff=2,
                          d_memory=0, vocab_size=8, d_vision=2, d_audio=2,
                          p_audio=300, l_max=0)
        model = TransformerModel(cfg, init="zeros")
        bias = np.full(8, -1e9, dtype=np.float32)
        bias[4:7] = np.log([1.0, 2.0, 4.0])
        model.params["out_proj.b"].data = bias
        frames = FeatureMatrix(np.zeros((1, 2), dtype=np.float32))
        probs = np.zeros(8)
        probs[4:7] = np.array([1.0, 2.0, 4.0]) / 7.0
        n = 100_000
        rolls = sample_decode(model, frames, None, bos_id=2, eos_id=3, n=n,
                              rng=RngState(123), l_max=0)
        firsts = np.array([ids[1] for ids, _ in rolls])
        freq = np.bincount(firsts, minlength=8) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        for tok in (4, 5, 6):
            assert abs(freq[tok] - probs[tok]) < 3 * sigma[tok], tok

    def test_logps_match_distribution(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        frames = rand_frames(np_rng)
        (ids, logps), = sample_decode(model, frames, None, 2, 3, n=1,
                                      rng=RngState(7))
        with T.no_grad():
            logits = model.forward_teacher_forced(frames, None, ids[:-1])
        expected = T.log_softmax_lastdim(logits.data.astype(np.float64))
        for t, tok in enumerate(ids[1:]):
            assert logps[t] == pytest.approx(expected[t, tok], abs=1e-5)


def reference_decode(model, frames, audio, bos_id, eos_id, l_max, pick):
    """The decode loop without a cache: the whole prefix through the decoder per step."""
    with T.no_grad():
        enc = model.encode(frames, audio)
        ids = [bos_id]
        while len(ids) < l_max + 2:
            ids.append(pick(model.decode_logits(enc, ids).data[-1]))
            if ids[-1] == eos_id:
                break
    return ids


def reference_sample(model, frames, audio, n, rng, l_max, temperature=1.0):
    out = []
    for _ in range(n):
        logps = []

        def pick(row):
            logp = T.log_softmax_lastdim(row.astype(np.float64) / temperature)
            idx = rng.draw_categorical(np.exp(logp))
            logps.append(float(logp[idx]))
            return idx

        out.append((reference_decode(model, frames, audio, 2, 3, l_max, pick), logps))
    return out


def video(rng, with_audio):
    frames = rand_frames(rng, t=3)
    audio = FeatureMatrix(rng.normal(size=(2, 3)).astype(np.float32)) if with_audio else None
    return frames, audio


class TestDecodeCache:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    def test_cached_steps_match_full_prefix(self, kind, with_audio, dtype, tol, np_rng):
        model = TransformerModel(tiny_config(kind), seed=4, dtype=dtype)
        frames, audio = video(np_rng, with_audio)
        ids = [2, 5, 7, 4, 9, 1, 6, 11, 8, 5]  # l_max + 2 tokens
        with T.no_grad():
            enc = model.encode(frames, audio)
            cache = model.decode_cache(enc)
            # one token per call, with two multi-token calls among them
            chunks = [ids[:3], ids[3:4], ids[4:7]] + [[i] for i in ids[7:]]
            pos = 0
            for chunk in chunks:
                step = model.decode_logits(enc, chunk, cache=cache).data
                pos += len(chunk)
                full = model.decode_logits(enc, ids[:pos]).data[pos - len(chunk):]
                assert step.shape == full.shape
                assert np.max(np.abs(step - full)) <= tol * np.max(np.abs(full))
            assert cache.length == len(ids)

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_greedy_matches_uncached_loop(self, kind, with_audio, np_rng):
        for seed in range(4):
            model = TransformerModel(tiny_config(kind), seed=seed)
            frames, audio = video(np_rng, with_audio)
            expected = reference_decode(model, frames, audio, 2, 3, 8,
                                        lambda row: int(np.argmax(row)))
            assert greedy_decode(model, frames, audio, 2, 3) == expected

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_sample_matches_uncached_loop(self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=5)
        frames, audio = video(np_rng, with_audio)
        got = sample_decode(model, frames, audio, 2, 3, n=6, rng=RngState(21))
        expected = reference_sample(model, frames, audio, 6, RngState(21), 8)
        assert [ids for ids, _ in got] == [ids for ids, _ in expected]
        assert len({tuple(ids) for ids, _ in got}) > 1  # rollouts differ
        for (_, a), (_, b) in zip(got, expected):
            assert np.allclose(a, b, rtol=0, atol=1e-5)

    def test_eos_at_first_step(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        model.params["out_proj.b"].data[3] = 50.0
        frames, audio = video(np_rng, True)
        assert greedy_decode(model, frames, audio, 2, 3) == [2, 3]
        rolls = sample_decode(model, frames, audio, 2, 3, n=3, rng=RngState(1))
        assert [ids for ids, _ in rolls] == [[2, 3]] * 3
        assert all(len(logps) == 1 for _, logps in rolls)

    def test_l_max_cap(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        model.params["out_proj.b"].data[3] = -50.0  # never EOS
        frames, audio = video(np_rng, False)
        ids = greedy_decode(model, frames, audio, 2, 3, l_max=4)
        assert len(ids) == 6
        assert ids == reference_decode(model, frames, audio, 2, 3, 4,
                                       lambda row: int(np.argmax(row)))
        got = sample_decode(model, frames, audio, 2, 3, n=2, rng=RngState(8), l_max=4)
        expected = reference_sample(model, frames, audio, 2, RngState(8), 4)
        assert [ids for ids, _ in got] == [ids for ids, _ in expected]
        assert all(len(ids) == 6 for ids, _ in got)

    def test_fresh_caches_share_cross_kv_but_not_self_kv(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5, dtype=np.float64)
        frames, audio = video(np_rng, True)
        with T.no_grad():
            enc = model.encode(frames, audio)
            shared = model.decode_cache(enc)
            a, b = shared.fresh(), shared.fresh()
            assert a.cross is b.cross is shared.cross
            model.decode_logits(enc, [2, 5, 6], cache=a)
            assert a.length == 3 and b.length == 0 and b.self_kv == [None]
            first = model.decode_logits(enc, [2], cache=b).data
            assert np.allclose(first, model.decode_logits(enc, [2]).data, rtol=1e-12)

    def test_cache_of_another_encoding_rejected(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        with T.no_grad():
            cache = model.decode_cache(model.encode(rand_frames(np_rng), None))
            other = model.encode(rand_frames(np_rng), None)
            with pytest.raises(ContractError, match="encoder output"):
                model.decode_logits(other, [2], cache=cache)


# ---------------------------------------------------------------------------
# per-head reference: every head with its own (d_model, d_head) projections,
# one NumPy pass per head and, for X-linear, per query row


def replay_per_head_init(cfg, seed):
    """Initial float64 parameters in the per-head layout, drawn from the init
    stream in the order a model with one parameter per head draws them."""
    rng = RngState(seed).derive("init")
    d, dh = cfg.d_model, cfg.d_head
    P = {}

    def uniform(name, shape, fan_in):
        P[name] = rng.uniform(shape, -1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in))

    def linear(name, d_in, d_out):
        uniform(f"{name}.w", (d_in, d_out), d_in)
        P[f"{name}.b"] = np.zeros(d_out)

    def attention(prefix):
        for h in range(cfg.n_heads):
            for proj in ("wq", "wk", "wv"):
                uniform(f"{prefix}.h{h}.{proj}", (d, dh), d)
        linear(f"{prefix}.out", d, d)

    def norm(prefix):
        P[f"{prefix}.gamma"], P[f"{prefix}.beta"] = np.ones(d), np.zeros(d)

    linear("vision_embed", cfg.d_vision, d)
    linear("audio_embed", cfg.d_audio, d)
    P["token_embed"] = rng.normal((cfg.vocab_size, d), std=0.02)
    for i in range(cfg.n_enc):
        p = f"enc.{i}"
        attention(f"{p}.attn")
        if cfg.d_memory > 0:
            for nm in ("mem_k", "mem_v"):
                P[f"{p}.{nm}"] = rng.normal((cfg.d_memory, d), std=1.0 / np.sqrt(d))
        if cfg.attention_kind == "x_linear":
            for h in range(cfg.n_heads):
                for nm in ("wq", "wk", "wb", "ws", "wc"):
                    uniform(f"{p}.xl.h{h}.{nm}", (dh, 1) if nm == "ws" else (dh, dh), dh)
        norm(f"{p}.ln1")
        linear(f"{p}.ff1", d, cfg.d_ff)
        linear(f"{p}.ff2", cfg.d_ff, d)
        norm(f"{p}.ln2")
    for i in range(cfg.n_dec):
        p = f"dec.{i}"
        attention(f"{p}.self")
        norm(f"{p}.ln1")
        attention(f"{p}.cross")
        norm(f"{p}.ln2")
        linear(f"{p}.ff1", d, cfg.d_ff)
        linear(f"{p}.ff2", cfg.d_ff, d)
        norm(f"{p}.ln3")
    linear("out_proj", d, cfg.vocab_size)
    return P


def per_head_params(model):
    """The model's parameters in the per-head layout: head h of a fused
    projection is its column block h, of a stacked or memory tensor its slice h."""
    dh = model.cfg.d_head
    P = {}
    for name, p in model.params.items():
        block, _, leaf = name.rpartition(".")
        a = p.data.astype(np.float64)
        if block.endswith(".xl"):
            P.update({f"{block}.h{h}.{leaf}": a[h] for h in range(a.shape[0])})
        elif leaf in ("wq", "wk", "wv"):
            P.update({f"{block}.h{h}.{leaf}": a[:, h * dh:(h + 1) * dh]
                      for h in range(model.cfg.n_heads)})
        elif leaf in ("mem_k", "mem_v"):
            P[name] = np.concatenate(list(a), axis=1)
        else:
            P[name] = a
    return P


def ref_attention(P, cfg, prefix, x_q, x_kv, mask=None, memory_prefix=None):
    dh = cfg.d_head
    x_linear = memory_prefix is not None and cfg.attention_kind == "x_linear"
    use_mem = (memory_prefix is not None and cfg.d_memory > 0
               and (not x_linear or cfg.use_memory_with_x_linear))
    heads = []
    for h in range(cfg.n_heads):
        q, k, v = (x @ P[f"{prefix}.h{h}.{w}"]
                   for x, w in ((x_q, "wq"), (x_kv, "wk"), (x_kv, "wv")))
        if use_mem:
            k = np.concatenate([k, P[f"{memory_prefix}.mem_k"][:, h * dh:(h + 1) * dh]])
            v = np.concatenate([v, P[f"{memory_prefix}.mem_v"][:, h * dh:(h + 1) * dh]])
        if x_linear:
            w = [P[f"{memory_prefix}.xl.h{h}.{nm}"] for nm in ("wq", "wk", "wb", "ws", "wc")]
            heads.append(oracle_x_linear(q, k, v, *w)[0])
            continue
        scores = q @ k.T / np.sqrt(dh)
        if mask is not None:
            scores[:, :mask.shape[1]] += mask
        heads.append(np_softmax(scores) @ v)
    return np.concatenate(heads, axis=1) @ P[f"{prefix}.out.w"] + P[f"{prefix}.out.b"]


def ref_logits(P, cfg, frames, audio, ids):
    """Teacher-forced logits of the per-head model, in float64."""
    def norm(prefix, x):
        z = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        return z * P[f"{prefix}.gamma"] + P[f"{prefix}.beta"]

    def ffn(prefix, x):
        hidden = np.maximum(x @ P[f"{prefix}.ff1.w"] + P[f"{prefix}.ff1.b"], 0.0)
        return hidden @ P[f"{prefix}.ff2.w"] + P[f"{prefix}.ff2.b"]

    d = cfg.d_model
    aud = np.zeros((1, cfg.d_audio)) if audio is None else audio.values
    x = np.concatenate([
        frames.values @ P["vision_embed.w"] + P["vision_embed.b"] + pe_block(0, frames.t, d),
        aud @ P["audio_embed.w"] + P["audio_embed.b"] + pe_block(cfg.p_audio, len(aud), d)])
    for i in range(cfg.n_enc):
        p = f"enc.{i}"
        x = norm(f"{p}.ln1", x + ref_attention(P, cfg, f"{p}.attn", x, x, memory_prefix=p))
        x = norm(f"{p}.ln2", x + ffn(p, x))
    y = P["token_embed"][ids] + pe_block(0, len(ids), d)
    for i in range(cfg.n_dec):
        p = f"dec.{i}"
        y = norm(f"{p}.ln1", y + ref_attention(P, cfg, f"{p}.self", y, y,
                                                mask=causal_mask(len(ids), np.float64)))
        y = norm(f"{p}.ln2", y + ref_attention(P, cfg, f"{p}.cross", y, x))
        y = norm(f"{p}.ln3", y + ffn(p, y))
    return y @ P["out_proj.w"] + P["out_proj.b"]


def ref_decode(P, cfg, frames, audio, l_max, pick):
    ids = [2]
    while len(ids) < l_max + 2:
        ids.append(pick(ref_logits(P, cfg, frames, audio, ids)[-1]))
        if ids[-1] == 3:
            break
    return ids


HEAD_CONFIGS = [(kind, heads) for kind in ("memory_scaled_dot", "x_linear") for heads in (2, 4)]


def head_model(kind, n_heads, seed, dtype=np.float64):
    return TransformerModel(tiny_config(kind, n_heads=n_heads, d_model=16), seed=seed,
                            dtype=dtype)


class TestPerHeadReference:
    """The head-fused model against the per-head reference above."""

    @pytest.mark.parametrize("kind,n_heads", HEAD_CONFIGS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_same_seed_same_initial_parameters(self, kind, n_heads, dtype):
        model = head_model(kind, n_heads, seed=11, dtype=dtype)
        got = per_head_params(model)
        expected = replay_per_head_init(model.cfg, 11)
        assert got.keys() == expected.keys()
        for name, a in expected.items():
            assert np.array_equal(got[name], a.astype(dtype)), name
        assert all(p.data.flags.c_contiguous for p in model.params.values())

    @pytest.mark.parametrize("kind,n_heads", HEAD_CONFIGS)
    @pytest.mark.parametrize("with_audio", [False, True])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    def test_logits_and_cached_steps_match(self, kind, n_heads, with_audio, dtype, tol,
                                           np_rng):
        model = head_model(kind, n_heads, seed=4, dtype=dtype)
        frames, audio = video(np_rng, with_audio)
        ids = [2, 5, 7, 4, 9, 1, 6, 11, 8, 5]
        expected = ref_logits(per_head_params(model), model.cfg, frames, audio, ids)
        scale = np.max(np.abs(expected))
        with T.no_grad():
            got = model.forward_teacher_forced(frames, audio, ids).data
            assert np.max(np.abs(got - expected)) <= tol * scale
            enc = model.encode(frames, audio)
            cache = model.decode_cache(enc)
            for t, tok in enumerate(ids):
                step = model.decode_logits(enc, [tok], cache=cache).data[0]
                assert np.max(np.abs(step - expected[t])) <= tol * scale, t

    @pytest.mark.parametrize("kind,n_heads", HEAD_CONFIGS)
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_greedy_and_sampled_ids_match(self, kind, n_heads, with_audio, np_rng):
        model = head_model(kind, n_heads, seed=5)
        frames, audio = video(np_rng, with_audio)
        P, cfg = per_head_params(model), model.cfg
        assert greedy_decode(model, frames, audio, 2, 3) == \
            ref_decode(P, cfg, frames, audio, cfg.l_max, lambda row: int(np.argmax(row)))
        rng = RngState(21)

        def pick(row):
            return rng.draw_categorical(np.exp(T.log_softmax_lastdim(row)))

        expected = [ref_decode(P, cfg, frames, audio, cfg.l_max, pick) for _ in range(4)]
        got = sample_decode(model, frames, audio, 2, 3, n=4, rng=RngState(21))
        assert [ids for ids, _ in got] == expected



class TestHeadBatchedAttention:
    """Attention over a leading head axis equals one 2-D call per head."""

    def test_memory_attention_over_heads(self, np_rng):
        q, k, v = (np_rng.normal(size=(3, n, 4)) for n in (2, 5, 5))
        m_k, m_v = np_rng.normal(size=(2, 3, 2, 4))
        mask = np.where(np_rng.random((2, 5)) < 0.3, -1e9, 0.0)
        mask[:, 0] = 0.0
        batched = memory_attention(*map(T.constant, (q, k, v, m_k, m_v)), mask).data
        for h in range(3):
            one = memory_attention(*map(T.constant, (q[h], k[h], v[h], m_k[h], m_v[h])), mask)
            assert np.allclose(batched[h], one.data, rtol=1e-12, atol=1e-12)

    def test_x_linear_over_heads_matches_oracle(self, np_rng):
        q, k, v = (np_rng.normal(size=(3, n, 4)) for n in (2, 5, 5))
        w = {n: np_rng.normal(size=(3, 4, 1 if n == "ws" else 4))
             for n in ("wq", "wk", "wb", "ws", "wc")}
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v),
                                 XLinearWeights(**{n: T.constant(a) for n, a in w.items()}))
        for h in range(3):
            expected, _ = oracle_x_linear(q[h], k[h], v[h], *(w[n][h] for n in
                                                               ("wq", "wk", "wb", "ws", "wc")))
            assert np.allclose(out.data[h], expected, rtol=1e-12, atol=1e-12)

    def test_x_linear_key_mask_drops_the_masked_keys(self, np_rng):
        tensors = XLinearWeights(*(T.constant(np_rng.normal(size=(2, 4, 1 if n == "ws" else 4)))
                                   for n in ("wq", "wk", "wb", "ws", "wc")))
        q, k, v = (np_rng.normal(size=(2, n, 4)) for n in (3, 5, 5))
        keep = np.array([True, False, True, True, False])
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v), tensors,
                                 np.where(keep, 0.0, -1e9))
        short = x_linear_attention(T.constant(q), T.constant(k[:, keep]),
                                   T.constant(v[:, keep]), tensors)
        assert np.allclose(out.data, short.data, rtol=1e-12, atol=1e-12)


class TestGraphLifetime:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_dropped_graph_needs_no_cycle_collection(self, kind, np_rng):
        model = TransformerModel(tiny_config(kind), seed=3)
        frames, audio = video(np_rng, True)
        gc.collect()
        gc.disable()
        try:
            logits = model.forward_teacher_forced(frames, audio, [2, 5, 7, 4])
            loss = T.cross_entropy(logits, [5, 7, 4, 3])
            loss.backward()
            del logits, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert model.params["out_proj.w"].grad is not None

class TestCheckpoint:
    def test_roundtrip(self, tmp_path, np_rng):
        model = TransformerModel(tiny_config("x_linear"), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.cfg == model.cfg
        for name, p in model.params.items():
            assert np.array_equal(p.data, again.params[name].data), name
        frames = rand_frames(np_rng)
        a = model.forward_teacher_forced(frames, None, [2, 5, 3])
        b = again.forward_teacher_forced(frames, None, [2, 5, 3])
        assert np.array_equal(a.data, b.data)

    def test_deterministic_bytes(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        save_checkpoint(model, tmp_path / "a.vttc")
        save_checkpoint(model, tmp_path / "b.vttc")
        assert (tmp_path / "a.vttc").read_bytes() == (tmp_path / "b.vttc").read_bytes()

    def test_bad_magic(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_missing_config_json(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        (tmp_path / "m.vttc.json").unlink()
        with pytest.raises(FormatError, match="config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section", ["header", "name length", "name", "rank", "shape",
                                         "payload", "last value", "half"])
    def test_truncation_is_a_format_error(self, tmp_path, section):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        name = next(iter(model.params)).encode()  # first record starts at byte 12
        rank_at = 16 + len(name)
        cut = {"header": 6, "name length": 14, "name": 16 + len(name) // 2,
               "rank": rank_at + 2, "shape": rank_at + 6, "payload": rank_at + 20,
               "last value": len(blob) - 3, "half": len(blob) // 2}[section]
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        old = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(old, path)
        before = path.read_bytes()

        class Exploding:
            @property
            def data(self):
                raise RuntimeError("disk gone")

        new = TransformerModel(tiny_config(), seed=7)
        new.params["zz_last"] = Exploding()  # fails after the other records are written
        with pytest.raises(RuntimeError):
            save_checkpoint(new, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.vttc", "m.vttc.json"]
        assert np.array_equal(load_checkpoint(path).params["out_proj.w"].data,
                              old.params["out_proj.w"].data)

    def test_loads_float32_arrays(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        save_checkpoint(model, tmp_path / "m.vttc")
        again = load_checkpoint(tmp_path / "m.vttc")
        assert all(p.data.dtype == np.float32 and p.data.flags.c_contiguous
                   for p in again.params.values())

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(), seed=6), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("saved,claimed,match", [
        (tiny_config("x_linear"), tiny_config(), "unknown parameter"),
        (tiny_config(), tiny_config("x_linear"), "missing parameters"),
        (tiny_config(), tiny_config(d_memory=4), "shape"),
    ])
    def test_parameters_must_fit_the_config(self, tmp_path, saved, claimed, match):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(saved, seed=6), path)
        (tmp_path / "m.vttc.json").write_text(json.dumps(claimed.to_dict()))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_vocab_size_must_match(self, tmp_path):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(), seed=6), path)
        assert load_checkpoint_for(path, range(12)).cfg.vocab_size == 12
        with pytest.raises(FormatError, match="vocab"):
            load_checkpoint_for(path, range(13))

    def test_config_json_is_valid(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        save_checkpoint(model, tmp_path / "m.vttc")
        cfg = json.loads((tmp_path / "m.vttc.json").read_text())
        assert cfg["d_model"] == 8 and cfg["vocab_size"] == 12


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ContractError):
            ModelConfig(d_model=10, n_heads=3)

    def test_unknown_attention_kind(self):
        with pytest.raises(ContractError):
            ModelConfig(attention_kind="banana")

    def test_param_count_pure_function_of_config(self):
        a = TransformerModel(tiny_config(), seed=1)
        b = TransformerModel(tiny_config(), seed=99)
        assert a.n_parameters() == b.n_parameters()
        bigger = TransformerModel(tiny_config(d_memory=4), seed=1)
        assert bigger.n_parameters() > a.n_parameters()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            ModelConfig.from_dict({"d_model": 8, "bogus": 1})

    def test_causal_mask_shape(self):
        m = causal_mask(3)
        assert m[0, 1] < -1e8 and m[1, 0] == 0.0 and m[2, 2] == 0.0
