"""Model contracts: PE offsets, attention kinds, decoding, checkpoints."""

import gc
import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import (assert_grads_match, encoded, only, teacher_forced, tiny_config,
                      value_and_grads)
from vttcap import tensor as T
from vttcap import training
from vttcap.errors import ContractError, FormatError
from vttcap.features import VideoSample
from vttcap.model import (P_AUDIO, XL_WEIGHTS, Encoding, ModelConfig, TransformerModel,
                          causal_mask, embed_multimodal, greedy_decode, load_checkpoint,
                          load_checkpoint_for, pe_block, sample_decode, save_checkpoint,
                          x_linear_attention)
from vttcap.scst import scst_surrogate_loss
from vttcap.tensor import RngState
from vttcap.tokenizer import Vocabulary
from vttcap.training import (OptimizerState, adam_update, batch_xe_loss, clip_gradients,
                             validation_loss, xe_loss)


def rand_frames(rng, t=4, d=5):
    return rng.normal(size=(t, d)).astype(np.float32)


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


class TestPeBlock:
    def test_position_zero(self):
        assert np.allclose(pe_block(0, 1, 8), [[0, 1, 0, 1, 0, 1, 0, 1]])

    def test_bounded(self):
        for pos in (1, 17, 300, 9999):
            pe = pe_block(pos, 1, 16)
            assert np.all(np.abs(pe) <= 1.0)

    def test_audio_offset_vector(self):
        # the first audio row receives exactly the position-300 encoding
        pe300 = pe_block(300, 1, 8)[0]
        assert np.allclose(pe_block(300, 2, 8)[0], pe300)

    @pytest.mark.parametrize("d_model", [1, 8, 31, 32])
    def test_rows_are_the_single_position_formula(self, d_model):
        i = np.arange((d_model + 1) // 2)
        for row, pos in zip(pe_block(298, 5, d_model), range(298, 303)):
            angles = pos / np.power(10000.0, 2.0 * i / d_model)
            assert np.array_equal(row[0::2], np.sin(angles))
            assert np.array_equal(row[1::2], np.cos(angles[:d_model // 2]))

    def test_negative_position(self):
        with pytest.raises(ContractError):
            pe_block(-1, 1, 8)


class TestEmbedMultimodal:
    def setup_method(self):
        self.cfg = tiny_config()
        self.zero = TransformerModel(self.cfg, init="zeros")

    def test_pe_indices_with_audio(self):
        frames = np.zeros((2, 5), dtype=np.float32)
        audio = np.zeros((3, 3), dtype=np.float32)
        out = only(embed_multimodal([(frames, audio)], self.zero)[0])
        assert out.shape == (5, 8)
        expected = np.concatenate([pe_block(0, 2, 8), pe_block(300, 3, 8)])
        assert np.array_equal(out.data, expected.astype(np.float32))

    def test_absent_audio_single_offset_row(self):
        frames = np.zeros((2, 5), dtype=np.float32)
        out = only(embed_multimodal([(frames, None)], self.zero)[0])
        assert out.shape == (3, 8)
        assert np.array_equal(out.data[-1],
                              pe_block(300, 1, 8)[0].astype(np.float32))

    def test_dummy_equals_absent(self, np_rng):
        model = TransformerModel(self.cfg, seed=4)
        frames = rand_frames(np_rng)
        a = only(teacher_forced(model, [(frames, None)], [[2, 5, 7]]))
        zero_row = np.zeros((1, 3), dtype=np.float32)
        b = only(teacher_forced(model, [(frames, zero_row)], [[2, 5, 7]]))
        assert np.array_equal(a.data, b.data)

    def test_frames_beyond_offset_rejected(self, np_rng):
        frames = np_rng.normal(size=(301, 5)).astype(np.float32)
        with pytest.raises(ContractError, match="P_AUDIO=300"):
            embed_multimodal([(frames, None)], self.zero)


class TestMemoryAttention:
    """``T.attention`` over keys that end in memory slots: the slots are
    plain key rows, and a key mask as wide as the keys leaves them unmasked."""

    def test_zero_memory_equals_vanilla(self, np_rng):
        for _ in range(20):
            q = T.constant(np_rng.normal(size=(3, 4)))
            k = T.constant(np_rng.normal(size=(5, 4)))
            v = T.constant(np_rng.normal(size=(5, 4)))
            out = T.attention(q, k, v)
            assert np.allclose(out.data,
                               oracle_vanilla_attention(q.data, k.data, v.data),
                               atol=1e-6)

    def test_rows_sum_to_one_over_keys_and_memory(self):
        rng = np.random.default_rng(8)
        q = T.constant(rng.normal(size=(2, 3)))
        k = T.constant(rng.normal(size=(3, 3)))  # two keys, then one memory slot
        # identity-like values expose the attention weights directly
        v = T.constant(np.eye(3))
        out = T.attention(q, k, v)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_hand_sized_oracle(self):
        # T=1, d=1 memory slot: evaluate the formula directly
        q = T.constant(np.array([[1.0, 0.0]]))
        k = T.constant(np.array([[2.0, 0.0], [0.0, 5.0]]))  # key, then memory slot
        v = T.constant(np.array([[3.0, 1.0], [7.0, 2.0]]))
        out = T.attention(q, k, v)
        scores = np.array([2.0, 0.0]) / np.sqrt(2.0)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        expected = w[0] * np.array([3.0, 1.0]) + w[1] * np.array([7.0, 2.0])
        assert np.allclose(out.data[0], expected, atol=1e-6)

    def test_mask_excludes_padded_keys(self, np_rng):
        # 3 keys, the last one padding, then 2 memory slots the mask keeps
        q = T.constant(np_rng.normal(size=(2, 4)))
        k = T.constant(np_rng.normal(size=(5, 4)))
        v = T.constant(np_rng.normal(size=(5, 4)))
        mask = np.array([[0.0, 0.0, -1e9, 0.0, 0.0]] * 2, dtype=np.float64)
        out = T.attention(q, k, v, mask)
        keep = [0, 1, 3, 4]
        expected = T.attention(q, T.constant(k.data[keep]), T.constant(v.data[keep]))
        assert np.allclose(out.data, expected.data, atol=1e-7)


class TestXLinearAttention:
    def make_weights(self, rng, d):
        """The weights in ``XL_WEIGHTS`` order, as tensors and as arrays."""
        arrays = {n: rng.normal(size=(d, d)) for n in ("wq", "wk", "wb", "wc")}
        arrays["ws"] = rng.normal(size=(d, 1))
        return [T.constant(arrays[n]) for n in XL_WEIGHTS], [arrays[n] for n in XL_WEIGHTS]

    def test_output_shape_matches_values(self, np_rng):
        tensors, _ = self.make_weights(np_rng, 4)
        out = x_linear_attention(T.constant(np_rng.normal(size=(3, 4))),
                                 T.constant(np_rng.normal(size=(6, 4))),
                                 T.constant(np_rng.normal(size=(6, 4))), *tensors, np.zeros(6))
        assert out.shape == (3, 4)

    def test_identical_keys_uniform_spatial(self, np_rng):
        tensors, arrays = self.make_weights(np_rng, 4)
        q = np_rng.normal(size=(2, 4))
        k = np.tile(np_rng.normal(size=(1, 4)), (5, 1))
        v = np_rng.normal(size=(5, 4))
        _, spatial = oracle_x_linear(q, k, v, *arrays)
        assert np.allclose(spatial, 0.2, atol=1e-6)
        # with uniform weights the output is invariant to value-row order
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v), *tensors,
                                 np.zeros(5))
        shuffled = x_linear_attention(T.constant(q), T.constant(k),
                                      T.constant(v[::-1].copy()), *tensors, np.zeros(5))
        assert np.allclose(out.data, shuffled.data, atol=1e-6)

    def test_two_by_two_matches_oracle(self):
        rng = np.random.default_rng(21)
        tensors, arrays = self.make_weights(rng, 2)
        q = rng.normal(size=(2, 2))
        k = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v), *tensors,
                                 np.zeros(2))
        expected, _ = oracle_x_linear(q, k, v, *arrays)
        assert np.allclose(out.data, expected, atol=1e-9)


class TestForwardTeacherForced:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_causal_mask(self, kind, np_rng):
        model = TransformerModel(tiny_config(kind), seed=2)
        frames = rand_frames(np_rng)
        base = only(teacher_forced(model, [(frames, None)], [[2, 5, 7, 9]]))
        poked = only(teacher_forced(model, [(frames, None)], [[2, 5, 8, 9]]))
        assert np.array_equal(base.data[:2], poked.data[:2])
        assert not np.array_equal(base.data[2:], poked.data[2:])

    def test_logit_shape(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        out = only(teacher_forced(model, [(rand_frames(np_rng), None)], [[2, 5, 7]]))
        assert out.shape == (3, 12)

    def test_zero_init_cross_entropy_is_log_vocab(self, np_rng):
        model = TransformerModel(tiny_config(), init="zeros")
        logits = only(teacher_forced(model, [(rand_frames(np_rng), None)], [[2, 5, 7]]))
        ce = T.cross_entropy(logits, [5, 7, 3])
        assert ce.item() == pytest.approx(3 * np.log(12), rel=1e-6)

    def test_token_out_of_range(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        with pytest.raises(ContractError):
            teacher_forced(model, [(rand_frames(np_rng), None)], [[2, 12]])

    def test_encoder_is_order_sensitive(self, np_rng):
        model = TransformerModel(tiny_config(), seed=2)
        frames = rand_frames(np_rng, t=4)
        permuted = frames[::-1].copy()
        a = model.encode([(frames, None)]).out
        b = model.encode([(permuted, None)]).out
        assert not np.allclose(a.data, b.data)


class TestGradientChecks:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_full_model_gradients(self, kind, np_rng):
        model = TransformerModel(tiny_config(kind), seed=3, dtype=np.float64)
        frames = np_rng.normal(size=(3, 5)).astype(np.float32)
        audio = np_rng.normal(size=(2, 3)).astype(np.float32)
        ids = [2, 5, 7, 4, 3]

        def loss():
            logits = only(teacher_forced(model, [(frames, audio)], [ids[:-1]]))
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
        model.params["out_proj.w"].data[...] = probe
        with T.no_grad():
            enc = model.encode([(np.zeros((2, 5), dtype=np.float32), None)])
            x0 = model.forward_teacher_forced(enc, [0], [[2]]).data[0][0, :8].astype(np.float64)
            x1 = model.forward_teacher_forced(enc, [0], [[2, 7]]).data[0][1, :8].astype(np.float64)
        w = np.zeros((8, 12))
        w[:, 7] = x0 / np.linalg.norm(x0)
        w[:, 3] = x1 / np.linalg.norm(x1)  # EOS column
        model.params["out_proj.w"].data[...] = w
        ids = greedy_decode(model, enc, 0, bos_id=2, eos_id=3)
        assert ids == [2, 7, 3]

    def test_length_cap(self, np_rng):
        model = TransformerModel(tiny_config(l_max=6), init="zeros")
        model.params["out_proj.b"].data[7] = 5.0  # constant argmax, never EOS
        ids = greedy_decode(model, encoded(model, rand_frames(np_rng)), 0, 2, 3)
        assert len(ids) <= 6 + 2
        assert ids == [2] + [7] * 7

    def test_deterministic(self, np_rng):
        model = TransformerModel(tiny_config(), seed=9)
        enc = encoded(model, rand_frames(np_rng))
        assert greedy_decode(model, enc, 0, 2, 3) == greedy_decode(model, enc, 0, 2, 3)


class TestSampleDecode:
    def test_seed_reproducibility(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        enc = encoded(model, rand_frames(np_rng))
        a = sample_decode(model, enc, 0, 2, 3, n=4, rng=RngState(11))
        b = sample_decode(model, enc, 0, 2, 3, n=4, rng=RngState(11))
        assert a == b

    def test_first_token_frequencies(self):
        # fixed three-token softmax via output bias; 1e5 single-token rollouts
        cfg = ModelConfig(n_enc=1, n_dec=1, n_heads=1, d_model=2, d_ff=2,
                          d_memory=0, vocab_size=8, d_vision=2, d_audio=2, l_max=0)
        model = TransformerModel(cfg, init="zeros")
        bias = np.full(8, -1e9, dtype=np.float32)
        bias[4:7] = np.log([1.0, 2.0, 4.0])
        model.params["out_proj.b"].data[...] = bias
        frames = np.zeros((1, 2), dtype=np.float32)
        probs = np.zeros(8)
        probs[4:7] = np.array([1.0, 2.0, 4.0]) / 7.0
        n = 100_000
        rolls = sample_decode(model, encoded(model, frames), 0, bos_id=2, eos_id=3, n=n,
                              rng=RngState(123))
        firsts = np.array([ids[1] for ids, _ in rolls])
        freq = np.bincount(firsts, minlength=8) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        for tok in (4, 5, 6):
            assert abs(freq[tok] - probs[tok]) < 3 * sigma[tok], tok

    def test_logps_match_distribution(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        frames = rand_frames(np_rng)
        (ids, logps), = sample_decode(model, encoded(model, frames), 0, 2, 3, n=1,
                                      rng=RngState(7))
        with T.no_grad():
            logits = only(teacher_forced(model, [(frames, None)], [ids[:-1]]))
        expected = T.log_softmax_lastdim(logits.data.astype(np.float64))
        for t, tok in enumerate(ids[1:]):
            assert logps[t] == pytest.approx(expected[t, tok], abs=1e-5)


def reference_decode(model, frames, audio, bos_id, eos_id, l_max, pick):
    """The decode loop without a cache: the whole prefix through the decoder per step."""
    with T.no_grad():
        enc = model.encode([(frames, audio)])
        ids = [bos_id]
        while len(ids) < l_max + 2:
            ids.append(pick(model.forward_teacher_forced(enc, [0], [ids]).data[0, -1]))
            if ids[-1] == eos_id:
                break
    return ids


def inverse_cdf(probs, u):
    """One multinomial draw from ``probs`` by inverse CDF on the uniform ``u``."""
    cdf = np.cumsum(probs)
    return int(np.searchsorted(cdf, u * cdf[-1], side="right").clip(0, len(cdf) - 1))


def reference_sample(model, frames, audio, n, rng, l_max):
    """Each rollout decoded alone, uncached: rollout j takes its t-th token
    from row j, column t, of one ``rng.uniform((n, l_max + 1))``."""
    u = rng.uniform((n, l_max + 1))
    out = []
    for j in range(n):
        logps = []

        def pick(row):
            logp = T.log_softmax_lastdim(row.astype(np.float64))
            idx = inverse_cdf(np.exp(logp), u[j, len(logps)])
            logps.append(float(logp[idx]))
            return idx

        out.append((reference_decode(model, frames, audio, 2, 3, l_max, pick), logps))
    return out


def video(rng, with_audio):
    frames = rand_frames(rng, t=3)
    audio = rng.normal(size=(2, 3)).astype(np.float32) if with_audio else None
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
            enc = model.encode([(frames, audio)])
            cache = model.decode_cache(enc, [0])
            # one token per call, with two multi-token calls among them
            chunks = [ids[:3], ids[3:4], ids[4:7]] + [[i] for i in ids[7:]]
            pos = 0
            for chunk in chunks:
                step = model.decode_logits(cache, [chunk]).data[0]
                pos += len(chunk)
                full = model.forward_teacher_forced(enc, [0], [ids[:pos]]).data[0][pos - len(chunk):]
                assert step.shape == full.shape
                assert np.max(np.abs(step - full)) <= tol * np.max(np.abs(full))
            assert cache.length == len(ids)
            # three rows in lockstep: each row's step logits are its own decode's
            seqs = np.array([[2, 5, 8], [2, 6, 3], [2, 7, 9]])
            cache = model.decode_cache(enc, [0, 0, 0])
            for t in range(seqs.shape[1]):
                step = model.decode_logits(cache, seqs[:, t:t + 1]).data[:, 0]
                for row, got in zip(seqs, step):
                    alone = model.forward_teacher_forced(enc, [0], [row[:t + 1]]).data[0, -1]
                    assert np.max(np.abs(got - alone)) <= tol * np.max(np.abs(alone))
            with pytest.raises(ContractError, match="decode cache of 3"):
                model.decode_logits(cache, [[4], [4]])

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_greedy_matches_uncached_loop(self, kind, with_audio, np_rng):
        for seed in range(4):
            model = TransformerModel(tiny_config(kind), seed=seed)
            frames, audio = video(np_rng, with_audio)
            expected = reference_decode(model, frames, audio, 2, 3, 8,
                                        lambda row: int(np.argmax(row)))
            assert greedy_decode(model, encoded(model, frames, audio), 0, 2, 3) == expected

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_sample_matches_uncached_loop(self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=5)
        frames, audio = video(np_rng, with_audio)
        got = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=6, rng=RngState(21))
        expected = reference_sample(model, frames, audio, 6, RngState(21), 8)
        assert [ids for ids, _ in got] == [ids for ids, _ in expected]
        assert len({tuple(ids) for ids, _ in got}) > 1  # rollouts differ
        for (_, a), (_, b) in zip(got, expected):
            assert np.allclose(a, b, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_a_video_of_a_batch_decodes_as_it_does_alone(self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=5)
        model.params["out_proj.b"].data[3] = 1.5  # EOS likely, but not at once
        samples = batch_samples(np_rng, with_audio)  # 2, 4 and 3 frames
        with T.no_grad():
            batch = model.encode([(s.frames, s.audio) for s in samples])
        assert (batch.mask < 0).any()  # the batch has padding
        for v, s in enumerate(samples):
            alone = encoded(model, s.frames, s.audio)
            assert greedy_decode(model, batch, v, 2, 3) == greedy_decode(model, alone, 0, 2, 3)
            got, want = (sample_decode(model, enc, row, 2, 3, n=6, rng=RngState(v))
                         for enc, row in ((batch, v), (alone, 0)))
            assert [ids for ids, _ in got] == [ids for ids, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert np.allclose(a, b, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_unpadded_batches_get_a_zero_mask_and_decode_as_in_a_padded_one(self, kind,
                                                                          np_rng):
        model = TransformerModel(tiny_config(kind), seed=5, dtype=np.float64)
        # videos 0 and 1 of 3 frames and 2 audio rows; video 2 pads them
        videos = [(rand_frames(np_rng, t=t), np_rng.normal(size=(2, 3)).astype(np.float32))
                  for t in (3, 3, 5)]
        ids = np.array([CAPTIONS[1], [2, 7, 5, 4, 3]])
        with T.no_grad():
            padded = model.encode(videos)
            assert (padded.mask[:2] < 0).any()
            for rows in ([0], [1], [0, 1]):
                enc = model.encode([videos[r] for r in rows])
                assert enc.mask.shape == (len(rows), 1, 1, 5) and enc.mask.dtype == model.dtype
                assert not enc.mask.any()
                got, want = (model.forward_teacher_forced(e, r, ids[:len(rows)]).data
                             for e, r in ((enc, list(range(len(rows)))), (padded, rows)))
                assert np.allclose(got, want, rtol=1e-9, atol=0), rows
                for b, r in enumerate(rows):
                    assert greedy_decode(model, enc, b, 2, 3) == greedy_decode(model, padded, r,
                                                                               2, 3)

    def test_eos_at_first_step(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        model.params["out_proj.b"].data[3] = 50.0
        frames, audio = video(np_rng, True)
        assert greedy_decode(model, encoded(model, frames, audio), 0, 2, 3) == [2, 3]
        rolls = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=3, rng=RngState(1))
        assert [ids for ids, _ in rolls] == [[2, 3]] * 3
        assert all(len(logps) == 1 for _, logps in rolls)

    def test_l_max_cap(self, np_rng):
        model = TransformerModel(tiny_config(l_max=4), seed=5)
        model.params["out_proj.b"].data[3] = -50.0  # never EOS
        frames, audio = video(np_rng, False)
        ids = greedy_decode(model, encoded(model, frames, audio), 0, 2, 3)
        assert len(ids) == 6
        assert ids == reference_decode(model, frames, audio, 2, 3, 4,
                                       lambda row: int(np.argmax(row)))
        got = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=2, rng=RngState(8))
        expected = reference_sample(model, frames, audio, 2, RngState(8), 4)
        assert [ids for ids, _ in got] == [ids for ids, _ in expected]
        assert all(len(ids) == 6 for ids, _ in got)

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_every_step_runs_every_rollout_row(self, kind, np_rng, monkeypatch):
        model = TransformerModel(tiny_config(kind), seed=5)
        model.params["out_proj.b"].data[3] = 1.5  # EOS likely, but not at once
        frames, audio = video(np_rng, True)
        rows = []
        decode_logits = TransformerModel.decode_logits

        def counting(self, cache, token_ids):
            rows.append(len(token_ids))
            return decode_logits(self, cache, token_ids)

        monkeypatch.setattr(TransformerModel, "decode_logits", counting)
        got = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=8, rng=RngState(2))
        lengths = {len(ids) for ids, _ in got}
        assert len(lengths) > 2  # rollouts end at different steps
        assert rows == [8] * (max(lengths) - 1)

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_rollouts_ending_at_different_steps_match_their_single_row_decodes(
            self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=5)
        model.params["out_proj.b"].data[3] = 1.5  # EOS likely, but not at once
        frames, audio = video(np_rng, with_audio)
        got = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=8, rng=RngState(2))
        expected = reference_sample(model, frames, audio, 8, RngState(2), 8)
        assert len({len(ids) for ids, _ in got}) > 2
        assert [ids for ids, _ in got] == [ids for ids, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert np.allclose(a, b, rtol=0, atol=1e-5)

    def test_rollouts_do_not_depend_on_n(self, np_rng):
        model = TransformerModel(tiny_config(), seed=5)
        frames, audio = video(np_rng, True)
        rng = RngState(9)
        few = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=3, rng=rng)
        stream = RngState(9).uniform(3 * (8 + 1) + 1)  # n * (l_max + 1) draws, then the next
        assert rng.random() == stream[-1]
        many = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=6, rng=RngState(9))
        assert many[:3] == few

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_position_table_is_pe_block_for_every_decoded_position(self, dtype):
        cfg = tiny_config()
        table = TransformerModel(cfg, dtype=dtype).pe_table
        assert table.dtype == dtype and not table.flags.writeable
        assert table.shape == (cfg.l_max + 2, cfg.d_model)
        for pos in range(cfg.l_max + 2):
            assert np.array_equal(table[pos], pe_block(pos, 1, cfg.d_model)[0].astype(dtype))

    def test_positions_past_l_max_plus_one_are_rejected(self, np_rng):
        # l_max sets no parameter: the two models differ only in their tables
        short = TransformerModel(tiny_config(l_max=2), seed=4)  # positions 0..3
        wide = TransformerModel(tiny_config(l_max=12), seed=4)
        assert np.array_equal(short.arena.data, wide.arena.data)
        frames, audio = video(np_rng, True)
        ids = [2, 5, 7, 4, 9]
        logits = {}
        with T.no_grad():
            for name, model in (("short", short), ("wide", wide)):
                cache = model.decode_cache(model.encode([(frames, audio)]), [0])
                logits[name] = [model.decode_logits(cache, [ids[:3]]).data]
                if model is short:
                    with pytest.raises(ContractError, match="l_max"):  # positions 3 and 4
                        model.decode_logits(cache, [ids[3:]])
                    assert cache.length == 3
                logits[name].append(model.decode_logits(cache, [ids[3:4]]).data)
            with pytest.raises(ContractError, match="l_max"):
                teacher_forced(short, [(frames, audio)], [ids])
        for got, want in zip(logits["short"], logits["wide"]):
            assert np.array_equal(got, want)


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
    use_mem = memory_prefix is not None and cfg.d_memory > 0
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
    aud = np.zeros((1, cfg.d_audio)) if audio is None else audio
    x = np.concatenate([
        frames @ P["vision_embed.w"] + P["vision_embed.b"] + pe_block(0, len(frames), d),
        aud @ P["audio_embed.w"] + P["audio_embed.b"] + pe_block(P_AUDIO, len(aud), d)])
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
            got = teacher_forced(model, [(frames, audio)], [ids]).data[0]
            assert np.max(np.abs(got - expected)) <= tol * scale
            cache = model.decode_cache(model.encode([(frames, audio)]), [0])
            for t, tok in enumerate(ids):
                step = model.decode_logits(cache, [[tok]]).data[0, 0]
                assert np.max(np.abs(step - expected[t])) <= tol * scale, t

    @pytest.mark.parametrize("kind,n_heads", HEAD_CONFIGS)
    @pytest.mark.parametrize("with_audio", [False, True])
    def test_greedy_and_sampled_ids_match(self, kind, n_heads, with_audio, np_rng):
        model = head_model(kind, n_heads, seed=5)
        frames, audio = video(np_rng, with_audio)
        P, cfg = per_head_params(model), model.cfg
        assert greedy_decode(model, encoded(model, frames, audio), 0, 2, 3) == \
            ref_decode(P, cfg, frames, audio, cfg.l_max, lambda row: int(np.argmax(row)))
        u = RngState(21).uniform((4, cfg.l_max + 1))

        def sampled(j):
            ids = []

            def pick(row):
                ids.append(inverse_cdf(np.exp(T.log_softmax_lastdim(row)), u[j, len(ids)]))
                return ids[-1]

            return ref_decode(P, cfg, frames, audio, cfg.l_max, pick)

        expected = [sampled(j) for j in range(4)]
        got = sample_decode(model, encoded(model, frames, audio), 0, 2, 3, n=4, rng=RngState(21))
        assert [ids for ids, _ in got] == expected



# ---------------------------------------------------------------------------
# per-pair reference: one (video, caption) pair per forward pass, no padding
# and no mask, which the padded teacher-forced batch must equal


def sequence_loss(model, sample, ids, vocab):
    """Summed cross entropy over non-PAD target positions, plus their count."""
    targets = np.asarray(ids[1:], dtype=np.int64)
    weights = (targets != vocab.pad_id).astype(np.float64)
    logits = only(teacher_forced(model, [(sample.frames, sample.audio)], [ids[:-1]]))
    return T.cross_entropy(logits, targets, weights), float(weights.sum())


def per_pair_xe_loss(model, samples, pairs, vocab):
    total, denom = None, 0.0
    for sample_idx, ids in pairs:
        ce, n_tok = sequence_loss(model, samples[sample_idx], ids, vocab)
        total = ce if total is None else T.add(total, ce)
        denom += n_tok
    return T.scale(total, 1.0 / denom)


def per_rollout_surrogate(model, samples, items, vocab):
    total = None
    for video, ids, advantage in items:
        ce, _ = sequence_loss(model, samples[video], ids, vocab)
        term = T.scale(ce, advantage)
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(items))


BATCH_VOCAB = Vocabulary.from_tokens(["[PAD]", "[UNK]", "[BOS]", "[EOS]",
                                      *(f"w{i}" for i in range(8))])
# BOS ... EOS captions of 2, 3, 5 and 1 content tokens
CAPTIONS = [[2, 5, 7, 3], [2, 9, 4, 6, 3], [2, 4, 6, 8, 10, 11, 3], [2, 8, 3]]


def batch_samples(rng, with_audio):
    """Three videos of 2, 4 and 3 frames; with audio, of 3, 1 and 2 audio rows."""
    out = []
    for i, (t, t_audio) in enumerate(((2, 3), (4, 1), (3, 2))):
        audio = rng.normal(size=(t_audio, 3)).astype(np.float32) if with_audio else None
        out.append(VideoSample(f"v{i}", rand_frames(rng, t=t), audio, ["a"]))
    return out


# video 0 twice, and video 2 with two captions of other lengths
BATCH_PAIRS = [(0, CAPTIONS[0]), (1, CAPTIONS[1]), (0, CAPTIONS[2]), (2, CAPTIONS[3]),
               (2, CAPTIONS[1])]

BATCH_CASES = [(kind, with_audio) for kind in ("memory_scaled_dot", "x_linear")
               for with_audio in (False, True)]


def assert_close(got, expected, tol, what):
    scale = max(np.max(np.abs(expected)), 1e-30)
    assert np.max(np.abs(np.asarray(got) - expected)) <= tol * scale, what


class TestBatchedTeacherForcing:
    """The padded batch against the per-pair reference above."""

    @pytest.mark.parametrize("kind,with_audio", BATCH_CASES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    def test_xe_loss_and_gradients_match_per_pair(self, kind, with_audio, dtype, tol,
                                                  np_rng):
        model = TransformerModel(tiny_config(kind), seed=7, dtype=dtype)
        samples = batch_samples(np_rng, with_audio)
        loss, grads = value_and_grads(
            model, lambda: batch_xe_loss(model, samples, BATCH_PAIRS))
        ref_loss, ref = value_and_grads(
            model, lambda: per_pair_xe_loss(model, samples, BATCH_PAIRS, BATCH_VOCAB))
        assert loss == pytest.approx(ref_loss, rel=tol)
        assert grads.keys() == ref.keys() == model.params.keys()
        for name in ref:
            assert_close(grads[name], ref[name], tol, name)

    @pytest.mark.parametrize("kind,with_audio", BATCH_CASES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    def test_validation_loss_matches_per_pair(self, kind, with_audio, dtype, tol, np_rng,
                                              monkeypatch):
        model = TransformerModel(tiny_config(kind), seed=7, dtype=dtype)
        samples = batch_samples(np_rng, with_audio)
        with T.no_grad():
            expected = per_pair_xe_loss(model, samples, BATCH_PAIRS, BATCH_VOCAB).item()
        for rows in (1, 2, len(BATCH_PAIRS)):
            monkeypatch.setattr(training, "TEACHER_ROWS", rows)
            got = validation_loss(model, samples, BATCH_PAIRS)
            assert got == pytest.approx(expected, rel=tol), rows

    @pytest.mark.parametrize("kind,with_audio", BATCH_CASES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    def test_surrogate_matches_per_rollout(self, kind, with_audio, dtype, tol, np_rng):
        model = TransformerModel(tiny_config(kind), seed=7, dtype=dtype)
        samples = batch_samples(np_rng, with_audio)
        items = [(i, ids, adv) for (i, ids), adv in zip(BATCH_PAIRS, (0.5, -1.25, 2.0, 0.0, 0.75))]
        loss, grads = value_and_grads(model, lambda: scst_surrogate_loss(model, samples, items))
        ref_loss, ref = value_and_grads(
            model, lambda: per_rollout_surrogate(model, samples, items, BATCH_VOCAB))
        assert loss == pytest.approx(ref_loss, rel=tol)
        assert grads.keys() == ref.keys()
        for name in ref:
            assert_close(grads[name], ref[name], tol, name)

    @pytest.mark.parametrize("kind,with_audio", BATCH_CASES)
    def test_longer_rows_leave_the_others_unchanged(self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=7, dtype=np.float64)
        samples = batch_samples(np_rng, with_audio)
        longer = VideoSample("long", rand_frames(np_rng, t=7),
                             np_rng.normal(size=(5, 3)).astype(np.float32)
                             if with_audio else None, ["a"])

        def row_losses(pairs):
            videos = [(s.frames, s.audio) for s, _ in pairs]
            width = max(len(c) for _, c in pairs)
            ids = np.array([c + [0] * (width - len(c)) for _, c in pairs])
            with T.no_grad():
                logp = T.log_softmax_lastdim(
                    teacher_forced(model, videos, ids[:, :-1]).data)
            return [-sum(logp[b, t, c[t + 1]] for t in range(len(c) - 1))
                    for b, (_, c) in enumerate(pairs)]

        base = [(samples[0], CAPTIONS[0]), (samples[1], CAPTIONS[3])]
        alone = row_losses(base)
        for extra in ((longer, CAPTIONS[0]), (samples[2], CAPTIONS[2] + [5, 3]),
                      (longer, CAPTIONS[2])):
            grown = row_losses(base + [extra])
            assert np.allclose(grown[:2], alone, rtol=1e-12, atol=0), extra[0].id

    @pytest.mark.parametrize("kind,with_audio", BATCH_CASES)
    def test_padded_positions_get_zero_gradient(self, kind, with_audio, np_rng):
        model = TransformerModel(tiny_config(kind), seed=7, dtype=np.float64)
        samples = batch_samples(np_rng, with_audio)
        with T.no_grad():
            encoded = model.encode([(s.frames, s.audio) for s in samples])
        # backward frees interior gradients, so the encoder output is a leaf here
        enc = Encoding(T.Tensor(encoded.out.data, requires_grad=True), encoded.mask)
        padding = enc.mask[:, 0, 0, :] < 0
        assert padding.any() and not padding.all(axis=1).any()
        captions = CAPTIONS[:3]
        width = max(len(c) for c in captions)
        ids = np.array([c + [BATCH_VOCAB.pad_id] * (width - len(c)) for c in captions])
        real = (np.arange(width - 1) < np.array([len(c) - 1 for c in captions])[:, None])
        logits = model.forward_teacher_forced(enc, [0, 1, 2], ids[:, :-1])
        T.cross_entropy(logits, ids[:, 1:], real.astype(np.float64)).backward()
        assert np.all(enc.out.grad[padding] == 0.0)
        assert np.any(enc.out.grad[~padding] != 0.0)
        # the loss's gradient into the logits, read on a leaf holding their values
        leaf = T.Tensor(logits.data, requires_grad=True)
        T.cross_entropy(leaf, ids[:, 1:], real.astype(np.float64)).backward()
        assert np.all(leaf.grad[~real] == 0.0)
        # PAD is only ever an input at padded positions
        assert np.all(model.params["token_embed"].grad[BATCH_VOCAB.pad_id] == 0.0)

    def test_repeated_video_is_encoded_once(self, np_rng, monkeypatch):
        model = TransformerModel(tiny_config(), seed=7)
        samples = batch_samples(np_rng, True)
        batches = []
        encode = model.encode
        monkeypatch.setattr(model, "encode",
                            lambda videos, **kw: batches.append(len(videos)) or encode(videos, **kw))
        batch_xe_loss(model, samples, BATCH_PAIRS)
        assert batches == [3]


class TestGraphSize:
    """Graph nodes (``tensor._toposort``, leaves included) of the tiny config:
    an op split back into pieces shows here."""

    @pytest.mark.parametrize("kind,xe_nodes", [("memory_scaled_dot", 97), ("x_linear", 125)])
    def test_nodes_of_an_xe_step_and_of_a_decode_step(self, kind, xe_nodes):
        model = TransformerModel(tiny_config(kind), seed=7)
        samples = batch_samples(np.random.default_rng(1), True)
        loss = xe_loss(model, samples, BATCH_PAIRS, np.ones(len(BATCH_PAIRS)))  # one chunk
        assert len(T._toposort(loss)) == xe_nodes
        with T.no_grad():  # the encoder and the first token, as decoding runs them
            cache = model.decode_cache(model.encode([(samples[0].frames, samples[0].audio)]), [0])
            model.decode_logits(cache, [[BATCH_VOCAB.bos_id]])
        # the second token's step, recorded; X-linear is an encoder block only
        assert len(T._toposort(model.decode_logits(cache, [[5]]))) == 51


class TestHeadBatchedAttention:
    """Attention over a leading head axis equals one 2-D call per head."""

    def test_attention_with_memory_slots_over_heads(self, np_rng):
        # 5 keys, then 2 memory slots the mask leaves unmasked
        q, k, v = (np_rng.normal(size=(3, n, 4)) for n in (2, 7, 7))
        mask = np.where(np_rng.random((2, 5)) < 0.3, -1e9, 0.0)
        mask[:, 0] = 0.0
        mask = np.pad(mask, ((0, 0), (0, 2)))
        batched = T.attention(*map(T.constant, (q, k, v)), mask).data
        for h in range(3):
            one = T.attention(*map(T.constant, (q[h], k[h], v[h])), mask)
            assert np.allclose(batched[h], one.data, rtol=1e-12, atol=1e-12)

    def test_x_linear_over_heads_matches_oracle(self, np_rng):
        q, k, v = (np_rng.normal(size=(3, n, 4)) for n in (2, 5, 5))
        w = [np_rng.normal(size=(3, 4, 1 if n == "ws" else 4)) for n in XL_WEIGHTS]
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v),
                                 *map(T.constant, w), np.zeros(5))
        for h in range(3):
            expected, _ = oracle_x_linear(q[h], k[h], v[h], *(a[h] for a in w))
            assert np.allclose(out.data[h], expected, rtol=1e-12, atol=1e-12)

    def test_x_linear_mask_drops_the_masked_keys(self, np_rng):
        tensors = [T.constant(np_rng.normal(size=(2, 4, 1 if n == "ws" else 4)))
                   for n in XL_WEIGHTS]
        q, k, v = (np_rng.normal(size=(2, n, 4)) for n in (3, 5, 5))
        keep = np.array([True, False, True, True, False])
        out = x_linear_attention(T.constant(q), T.constant(k), T.constant(v), *tensors,
                                 np.where(keep, 0.0, -1e9))
        short = x_linear_attention(T.constant(q), T.constant(k[:, keep]),
                                   T.constant(v[:, keep]), *tensors, np.zeros(3))
        assert np.allclose(out.data, short.data, rtol=1e-12, atol=1e-12)


class TestGraphLifetime:
    # Without backward, which frees every node's closure, a closure holding
    # its own node would be a reference cycle that only the collector frees.
    @pytest.mark.parametrize("backward", [True, False])
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_dropped_graph_needs_no_cycle_collection(self, kind, backward, np_rng):
        model = TransformerModel(tiny_config(kind), seed=3)
        frames, audio = video(np_rng, True)
        gc.collect()
        gc.disable()
        try:
            logits = only(teacher_forced(model, [(frames, audio)], [[2, 5, 7, 4]]))
            loss = T.cross_entropy(logits, [5, 7, 4, 3])
            if backward:
                loss.backward()
            del logits, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert model.params["out_proj.w"].grad is not None

class TestParamArena:
    @staticmethod
    def assert_views_of_the_arena(model):
        arena = model.arena
        assert [name for name, _, _ in arena.table] == list(model.params)
        for name, lo, size in arena.table:
            p = model.params[name]
            assert p.data.size == p.grad.size == size, name
            assert np.shares_memory(p.data, arena.data[lo:lo + size]), name
            assert np.shares_memory(p.grad, arena.grad[lo:lo + size]), name

    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    def test_parameters_stay_views_through_a_training_step(self, kind, tmp_path, np_rng):
        model = TransformerModel(tiny_config(kind), seed=7)
        assert model.arena.data.size == model.n_parameters()
        self.assert_views_of_the_arena(model)
        samples = batch_samples(np_rng, True)
        assert not np.any(model.arena.grad)  # a fresh arena's gradients are zero
        batch_xe_loss(model, samples, BATCH_PAIRS)  # forward and backward
        self.assert_views_of_the_arena(model)
        assert np.any(model.params["token_embed"].grad)
        assert np.any(model.params["enc.0.ln1.gamma"].grad)
        clip_gradients(model.arena, max_norm=1e-3)  # small enough to scale
        self.assert_views_of_the_arena(model)
        before = model.arena.data.copy()
        adam_update(model.arena, OptimizerState(), lr=1e-2)
        self.assert_views_of_the_arena(model)
        assert not np.array_equal(before, model.arena.data)
        assert not np.any(model.arena.grad)  # Adam zeroes what it consumed
        save_checkpoint(model, tmp_path / "m.vttc")
        again = load_checkpoint(tmp_path / "m.vttc")
        self.assert_views_of_the_arena(again)
        assert np.array_equal(again.arena.data, model.arena.data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("vocab_size", [12, 10_000])  # 10,000 x d_model 8 > 65,536
    def test_streamed_init_equals_one_float64_draw_per_parameter(self, seed, vocab_size):
        model = TransformerModel(tiny_config(vocab_size=vocab_size), seed=seed)
        expected = replay_per_head_init(model.cfg, seed)
        got = per_head_params(model)
        assert got.keys() == expected.keys()
        for name, a in expected.items():
            assert np.array_equal(got[name], a.astype(np.float32)), name

    def test_zero_init_writes_only_the_norm_gains(self):
        model = TransformerModel(tiny_config("x_linear"), init="zeros")
        for name, p in model.params.items():
            assert np.all(p.data == (1.0 if name.endswith(".gamma") else 0.0)), name


def header_length(model) -> int:
    """Where the record headers of ``model``'s VTTC file end: 12 bytes of magic,
    version and count, then per parameter 4 + name + 4 + 4 per extent."""
    return 12 + sum(8 + len(name.encode()) + 4 * p.data.ndim for name, p in model.params.items())


def tobytes_checkpoint(model) -> bytes:
    """The version-2 VTTC bytes of ``model``: every record header, zero padding
    to a 64-byte boundary, then each parameter's values as a ``tobytes`` copy."""
    out = [b"VTTC", struct.pack("<II", 2, len(model.params))]
    for name, p in model.params.items():
        raw = name.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw, struct.pack("<I", p.data.ndim),
                *(struct.pack("<I", ext) for ext in p.data.shape)]
    out.append(bytes(-header_length(model) % 64))
    out += [np.ascontiguousarray(p.data, dtype="<f4").tobytes() for p in model.params.values()]
    return b"".join(out)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_tobytes_writer(self, tmp_path, kind, dtype):
        model = TransformerModel(tiny_config(kind), seed=6, dtype=dtype)
        save_checkpoint(model, tmp_path / "m.vttc")
        assert (tmp_path / "m.vttc").read_bytes() == tobytes_checkpoint(model)

    def test_load_makes_no_parameter_sized_copy(self, tmp_path):
        model = TransformerModel(tiny_config(d_model=32, vocab_size=4096), seed=6)
        save_checkpoint(model, tmp_path / "m.vttc")
        largest = max(p.data.nbytes for p in model.params.values())
        tracemalloc.start()
        try:
            again = load_checkpoint(tmp_path / "m.vttc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gradient buffer, and less than half of the largest parameter besides:
        # the values are the file's mapped pages
        assert peak < again.arena.grad.nbytes + largest // 2
        assert np.array_equal(again.arena.data, model.arena.data)

    def test_writes_to_a_loaded_model_never_reach_its_file(self, tmp_path):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(), seed=6), path)
        before = path.read_bytes()
        model = load_checkpoint(path)
        model.arena.grad[:] = 1.0
        adam_update(model.arena, OptimizerState(), lr=0.1)
        assert not np.array_equal(model.arena.data, load_checkpoint(path).arena.data)
        assert path.read_bytes() == before

    def test_a_loaded_model_holds_the_file_values_without_constant_fills(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        model.arena.data[:] = -2.0  # no parameter's initial constant
        save_checkpoint(model, tmp_path / "m.vttc")
        assert np.all(load_checkpoint(tmp_path / "m.vttc").arena.data == -2.0)

    def test_replacing_its_file_leaves_a_loaded_model_as_it_was(self, tmp_path):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(), seed=6), path)
        model = load_checkpoint(path)
        values = model.arena.data.copy()
        save_checkpoint(TransformerModel(tiny_config(), seed=7), path)
        assert not np.array_equal(load_checkpoint(path).arena.data, values)
        assert np.array_equal(model.arena.data, values)

    def test_roundtrip(self, tmp_path, np_rng):
        model = TransformerModel(tiny_config("x_linear"), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.cfg == model.cfg
        for name, p in model.params.items():
            assert np.array_equal(p.data, again.params[name].data), name
        frames = rand_frames(np_rng)
        a = only(teacher_forced(model, [(frames, None)], [[2, 5, 3]]))
        b = only(teacher_forced(again, [(frames, None)], [[2, 5, 3]]))
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
        with pytest.raises(FormatError, match=r"m\.vttc: bad magic"):
            load_checkpoint(path)

    def test_missing_config_json(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        (tmp_path / "m.vttc.json").unlink()
        with pytest.raises(FormatError, match=r"^missing checkpoint config .*m\.vttc\.json$"):
            load_checkpoint(path)

    # A cut before the last (header + padding) bytes leaves fewer bytes than the
    # values alone need, which the size bound reports before any layout check.
    @pytest.mark.parametrize("section, match", [
        ("magic", ": bad magic or truncated header"),
        ("first record", r": \d+ parameters cannot fit in 14 bytes"),
        ("last record", " holds"), ("padding", " holds"), ("first value", " holds"),
        ("half", " holds"), ("last value", ": truncated, 3 bytes short")])
    def test_truncation_is_a_format_error(self, tmp_path, section, match):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        end = header_length(model)
        offset = end + -end % 64
        assert offset - end >= 2  # this layout has padding to cut
        cut = {"magic": 6, "first record": 14, "last record": end - 2,
               "padding": end + 1, "first value": offset + 2, "half": len(blob) // 2,
               "last value": len(blob) - 3}[section]
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match=r"m\.vttc" + match):
            load_checkpoint(path)

    def test_non_zero_padding_is_a_format_error(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[header_length(model)] = 1  # the first padding byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"m\.vttc: non-zero padding"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(FormatError, match=r"m\.vttc: 4 trailing bytes"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        old = TransformerModel(tiny_config(), seed=6)
        path = tmp_path / "m.vttc"
        save_checkpoint(old, path)
        before = path.read_bytes()

        class Exploding:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk gone")

        new = TransformerModel(tiny_config(), seed=7)
        new.arena.data = Exploding()  # fails after the header block is written
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
        blob[4:8] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"m\.vttc: unsupported checkpoint version 3"):
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

    @pytest.mark.parametrize("n_enc", [100_000, 10**8, "forged", "narrow"])
    def test_layer_count_is_checked_before_the_layout(self, tmp_path, monkeypatch, n_enc):
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(), seed=6), path)
        claimed = {}
        count = (path.stat().st_size - 12) // 16  # the most records the file could hold
        if n_enc == "forged":  # that many records, all layers but one
            blob = bytearray(path.read_bytes())
            blob[8:12] = count.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            n_enc = count - tiny_config().n_dec
        elif n_enc == "narrow":  # on the unforged file, layers of 16 bytes of values each
            claimed = dict(d_model=1, n_heads=1, d_memory=0)
            n_enc = count - 2 * tiny_config().n_dec
        (tmp_path / "m.vttc.json").write_text(
            json.dumps(tiny_config(n_enc=n_enc, **claimed).to_dict()))

        def layout(cfg):
            raise AssertionError("a layout was built before the sidecar was checked")

        monkeypatch.setattr(TransformerModel, "_layout", staticmethod(layout))
        with pytest.raises(FormatError, match="m.vttc.json"):
            load_checkpoint(path)

    def test_sidecar_names_every_key(self, tmp_path):
        # at their defaults, neither key would change the parameter layout, so
        # no later check sees them go
        path = tmp_path / "m.vttc"
        save_checkpoint(TransformerModel(tiny_config(l_max=5), seed=6), path)
        cfg = tiny_config(l_max=5).to_dict()
        del cfg["l_max"], cfg["attention_kind"]
        (tmp_path / "m.vttc.json").write_text(json.dumps(cfg))
        with pytest.raises(FormatError,
                           match=r"m\.vttc\.json: .*\['l_max', 'attention_kind'\]"):
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
