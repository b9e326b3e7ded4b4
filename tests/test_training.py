"""Training loops on a tiny synthetic corpus: schedules, Adam, clipping, XE, SCST."""

import dataclasses
import json
import math
import mmap
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import only, teacher_forced, tiny_config, value_and_grads
from vttcap import metrics, scst, training
from vttcap import tensor as T
from vttcap.cli import PROFILES
from vttcap.errors import ContractError, TrainingError
from vttcap.features import synth_dataset
from vttcap.model import ModelConfig, TransformerModel, greedy_decode, load_checkpoint
from vttcap.scst import RewardConfig, finetune_scst, scst_batch_step, scst_surrogate_loss
from vttcap.tensor import RngState
from vttcap.tokenizer import build_vocab, decode, encode, normalize_words, truncate
from vttcap.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, GRAD_CLIP_NORM, TEACHER_ROWS,
                             OptimizerState, ScheduleConfig, TrainRunConfig, _fit, adam_update,
                             batch_xe_loss, caption_pairs, clip_gradients, lr_at,
                             teacher_forced_loss, teacher_forcing, train_xe)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The samples of 10 videos (9 train, 1 val) over 2 concepts plus a vocab
    built on the training captions."""
    root = tmp_path_factory.mktemp("corpus")
    train, val = (m.load_samples() for m in synth_dataset(
        seed=1, n_videos=10, n_concepts=2, d_vision=5, d_audio=3, out_dir=root))
    vocab = build_vocab([c for s in train for c in s.captions], 40)
    return train, val, vocab


def tiny_model(vocab, seed=0):
    return TransformerModel(tiny_config(vocab_size=len(vocab)), seed=seed)


def read_history(out_dir):
    lines = (out_dir / "history.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def record_checkpoints(monkeypatch) -> list:
    """Patch ``training.save_checkpoint`` to keep each checkpoint it writes:
    (file bytes, sidecar text), in save order."""
    saved = []
    save = training.save_checkpoint

    def recording(model, path):
        save(model, path)
        saved.append(checkpoint_contents(path))

    monkeypatch.setattr(training, "save_checkpoint", recording)
    return saved


def checkpoint_contents(path) -> tuple:
    return path.read_bytes(), path.with_name(path.name + ".json").read_text()


def record_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to append each call's return value to the list returned."""
    calls = []
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, recording)
    return calls


CHECKPOINT_FILES = ["best.vttc", "best.vttc.json", "last.vttc", "last.vttc.json"]


SGDR = ScheduleConfig(warmup=5, t0=10, eta_max=0.01)
D_MODEL = tiny_config().d_model


# ---------------------------------------------------------------------------
# schedules


class TestLrAt:
    def test_linear_warmup(self):
        for step in range(1, SGDR.warmup + 1):
            assert lr_at(step, SGDR, D_MODEL) == pytest.approx(SGDR.eta_max * step / SGDR.warmup)

    def test_cosine_reaches_eta_min_before_restart(self):
        eta_min = SGDR.eta_max / 100
        last = lr_at(SGDR.warmup + SGDR.t0 - 1, SGDR, D_MODEL)
        assert eta_min < last < eta_min + 0.03 * (SGDR.eta_max - eta_min)
        lrs = [lr_at(s, SGDR, D_MODEL) for s in range(SGDR.warmup, SGDR.warmup + SGDR.t0)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_restarts_return_to_eta_max_with_growing_cycles(self):
        lrs = [lr_at(s, SGDR, D_MODEL) for s in range(1, 200)]
        restarts = [s for s in range(SGDR.warmup + 1, 200)
                    if lr_at(s, SGDR, D_MODEL) > lr_at(s - 1, SGDR, D_MODEL)]
        assert restarts == [15, 35, 75, 155]
        assert [b - a for a, b in zip(restarts, restarts[1:])] == [20, 40, 80]
        for s in restarts:
            assert lrs[s - 1] == pytest.approx(SGDR.eta_max)

    def test_resolved_defaults(self):
        s = ScheduleConfig(warmup=50, t0=40)
        eta_max = 16 ** -0.5 * 50 ** -0.5
        assert lr_at(50, s, 16) == pytest.approx(eta_max)
        # halfway through the first cycle the cosine is midway to eta_max / 100
        assert lr_at(70, s, 16) == pytest.approx((eta_max + eta_max / 100) / 2)

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            lr_at(0, SGDR, D_MODEL)


# ---------------------------------------------------------------------------
# optimizer pieces


def rss_anon() -> int:
    """This process's resident anonymous memory in bytes, as Linux counts it."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1]) * 1024
    raise AssertionError("/proc/self/status has no RssAnon line")


def arena_of(values: dict, dtype=np.float64) -> T.ParamArena:
    """An arena whose parameters hold ``values`` (name -> array), in order."""
    arena = T.ParamArena([(n, np.shape(a)) for n, a in values.items()], dtype)
    for n, a in values.items():
        arena.params[n].data[...] = a
    return arena


class TestAdamAndClipping:
    def test_one_adam_step_matches_hand_formula(self, np_rng):
        w0 = np_rng.normal(size=(3, 4))
        g = np_rng.normal(size=(3, 4))
        arena = arena_of({"w": w0})
        p = arena.params["w"]
        p.grad[...] = g
        state = OptimizerState()
        adam_update(arena, state, lr=0.1)
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        expected = w0 - 0.1 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert np.allclose(p.data, expected, rtol=1e-12, atol=0)
        assert state.t == 1
        assert np.allclose(state.m, m.ravel()) and np.allclose(state.v, v.ravel())

    @pytest.mark.parametrize("chunk, unit", [(13, T.GRAD_UNIT), (training.CHUNK, T.GRAD_UNIT),
                                             (13, mmap.PAGESIZE), (1536, mmap.PAGESIZE)],
                             ids=["13", str(training.CHUNK), "13-page", "1536-page"])
    def test_blocked_adam_is_bit_identical_to_the_expression(self, np_rng, monkeypatch,
                                                             chunk, unit):
        """``zero`` never gets a gradient and ``once`` only on step 1; at
        ``chunk`` 13 each holds whole blocks, which Adam may skip only while
        their gradients and moments are all zero.  At a release unit of one
        page (1024 of the 4295 elements) a unit spans many blocks of 13,
        blocks of 1536 straddle units, and ``zero`` holds a whole unit of
        skipped blocks: Adam may give a unit back only once it has read it."""
        monkeypatch.setattr(training, "CHUNK", chunk)  # 13: blocks straddle parameters
        monkeypatch.setattr(T, "GRAD_UNIT", unit)
        shapes = {"p0": (7, 5), "p1": (5,), "p2": (3, 2, 4), "p3": (5, 7), "wide": (40, 64),
                  "zero": (40, 40), "once": (6, 6)}
        arena = arena_of({n: np_rng.normal(size=s) for n, s in shapes.items()}, np.float32)
        params = arena.params
        start = arena.data.copy()
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        state = OptimizerState()
        for step in range(1, 6):
            lr = 0.01 * step
            for n, p in params.items():
                if n != "zero" and (n != "once" or step == 1):
                    p.grad[...] = np_rng.normal(size=p.shape)
            grads = {n: p.grad.copy() for n, p in params.items()}
            before = {n: p.data.copy() for n, p in params.items()}
            adam_update(arena, state, lr)
            assert not np.any(arena.grad)  # each consumed unit is given back
            c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            for n, p in params.items():
                g = grads[n]
                m[n] += (1.0 - ADAM_BETA1) * (g - m[n])
                v[n] += (1.0 - ADAM_BETA2) * (g * g - v[n])
                ref[n] -= (lr / c1) * m[n] / (np.sqrt(v[n] / c2) + ADAM_EPS)
                assert np.array_equal(p.data, ref[n]), (n, step)
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))
            assert np.all(params["once"].data != before["once"])  # its moments still step it
        _, lo, size = arena.table[list(params).index("zero")]
        assert np.array_equal(arena.data[lo:lo + size], start[lo:lo + size])
        assert not np.any(state.m[lo:lo + size]) and not np.any(state.v[lo:lo + size])

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's RssAnon")
    def test_adam_gives_the_gradient_pages_back(self):
        """Adam leaves the gradients it consumed holding no memory, and no
        step maps a gradient or moment page of a parameter it never reaches."""
        used, unreached = 1 << 21, 1 << 24  # float32: 8 MiB and 64 MiB
        arena = T.ParamArena([("used", (used,)), ("unreached", (unreached,))])
        grad_bytes = used * 4
        state = OptimizerState()
        start = rss_anon()
        for _ in range(2):  # step 1 maps the moments, so step 2 reads only the release
            arena.params["used"].grad[...] = 0.5
            written = rss_anon()
            adam_update(arena, state, lr=1e-3)
            end = rss_anon()
        assert written - end >= grad_bytes * 3 // 4, (written, end)
        assert not np.any(arena.grad)
        # used's values and moments map 3 x 8 MiB, plus at most a huge page at
        # an edge; any one buffer of unreached would map 64 MiB
        assert end - start < 3 * grad_bytes + unreached * 4 // 2, (start, end)

    def test_non_finite_gradient_raises_before_any_update(self, np_rng):
        arena = arena_of({n: np_rng.normal(size=(4, 3)) for n in "abc"}, np.float32)
        state = OptimizerState()
        arena.grad[...] = np_rng.normal(size=arena.grad.shape)
        clip_gradients(arena)
        adam_update(arena, state, lr=0.1)
        arena.grad[...] = np_rng.normal(size=arena.grad.shape)
        arena.params["b"].grad[2, 1] = np.nan
        before = [a.copy() for a in (arena.data, arena.grad, state.m, state.v)]
        with pytest.raises(TrainingError, match="'b'"):
            clip_gradients(arena)
            adam_update(arena, state, lr=0.1)
        after = (arena.data, arena.grad, state.m, state.v)
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(before, after))
        assert state.t == 1

    def test_clip_returns_pre_clip_norm_and_rescales(self):
        arena = arena_of({"a": np.zeros(2), "b": np.zeros(1)})
        a, b = arena.params["a"], arena.params["b"]
        a.grad[...], b.grad[...] = [3.0, 4.0], [12.0]
        norm = clip_gradients(arena, max_norm=2.6)
        assert norm == pytest.approx(13.0)
        assert np.linalg.norm(arena.grad) == pytest.approx(2.6)
        assert np.allclose(a.grad / b.grad, [3.0 / 12.0, 4.0 / 12.0])

    def test_clip_scales_blocks_whose_squares_underflow(self, monkeypatch):
        monkeypatch.setattr(training, "CHUNK", 4)
        arena = arena_of({"tiny": np.zeros(4), "big": np.zeros(4)}, np.float32)
        tiny, big = arena.params["tiny"], arena.params["big"]
        tiny.grad[...], big.grad[...] = 1e-30, 100.0  # 1e-30 squared is 0 in float32
        assert np.float32(1e-30) ** 2 == 0.0
        assert clip_gradients(arena, max_norm=5.0) == pytest.approx(200.0)
        assert np.array_equal(tiny.grad, np.full(4, np.float32(1e-30) * (5.0 / 200.0)))
        assert np.array_equal(big.grad, np.full(4, np.float32(100.0) * (5.0 / 200.0)))

    def test_clip_leaves_small_gradients(self):
        arena = arena_of({"a": np.zeros(2)})
        arena.grad[...] = [0.3, 0.4]
        assert clip_gradients(arena, max_norm=5.0) == pytest.approx(0.5)
        assert np.array_equal(arena.grad, [0.3, 0.4])

    @pytest.mark.parametrize("chunk", [13, training.CHUNK])
    def test_blocked_norm_matches_the_float64_norm(self, np_rng, monkeypatch, chunk):
        """Blocks are summed in the arena's dtype: to float32 resolution for a
        float32 arena, to float64 rounding for a float64 one."""
        monkeypatch.setattr(training, "CHUNK", chunk)
        values = np_rng.normal(size=81)
        for dtype, rel in ((np.float32, 1e-6), (np.float64, 1e-14)):
            arena = arena_of({f"p{i}": np.zeros(n) for i, n in enumerate((30, 1, 50))}, dtype)
            arena.grad[...] = values
            expected = np.linalg.norm(arena.grad.astype(np.float64))
            assert clip_gradients(arena, max_norm=1e9) == pytest.approx(expected, rel=rel)

    def test_norm_of_mixed_magnitudes_is_within_float32_resolution(self, np_rng):
        arena = arena_of({"a": np.zeros(1 << 19), "b": np.zeros(1 << 19)}, np.float32)
        arena.grad[...] = np_rng.normal(size=1 << 20) * 10.0 ** np_rng.uniform(-6, 3, 1 << 20)
        expected = np.linalg.norm(arena.grad.astype(np.float64))
        assert clip_gradients(arena, max_norm=1e12) == pytest.approx(expected, rel=1e-6)

    def test_finite_gradients_that_overflow_float32_squares_are_clipped(self):
        arena = arena_of({"a": np.zeros(3), "b": np.zeros(4)}, np.float32)
        arena.grad[...] = 1e20  # each square overflows float32, the norm does not
        assert clip_gradients(arena, max_norm=5.0) == pytest.approx(1e20 * np.sqrt(7))
        assert np.linalg.norm(arena.grad.astype(np.float64)) == pytest.approx(5.0)

    @pytest.mark.parametrize("chunk", [1, training.CHUNK])
    def test_finite_gradients_whose_norm_overflows_float64_name_no_parameter(
            self, monkeypatch, chunk):
        """One block's float64 square sum overflows, or (one element per
        block) only the sum of the blocks' sums does."""
        monkeypatch.setattr(training, "CHUNK", chunk)
        arena = arena_of({"a": np.zeros(3), "b": np.zeros(4)})
        arena.grad[...] = 1e154  # each square is finite, their sum is not
        with pytest.raises(TrainingError, match="overflows") as err:
            clip_gradients(arena)
        assert "parameter" not in str(err.value)
        assert np.all(arena.grad == 1e154)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_among_huge_ones_names_its_parameter(self, bad):
        arena = arena_of({"a": np.zeros(3), "b": np.zeros(4), "c": np.zeros(2)}, np.float32)
        arena.grad[...] = 1e20
        arena.params["b"].grad[2] = bad
        with pytest.raises(TrainingError, match="'b'"):
            clip_gradients(arena)
        assert np.all(arena.params["a"].grad == np.float32(1e20))


@pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
@pytest.mark.parametrize("with_audio", [False, True])
def test_every_parameter_gets_a_gradient_on_every_step(corpus, kind, with_audio, monkeypatch):
    """Backward of an XE step and of an SCST surrogate step reaches every
    parameter, so an optimizer that updates every parameter skips none."""
    train, _, vocab = corpus
    model = TransformerModel(tiny_config(kind, vocab_size=len(vocab)), seed=3)
    samples = [s if with_audio else dataclasses.replace(s, audio=None)
               for s in train[:3]]
    assert with_audio == any(s.audio is not None for s in samples)
    pairs = caption_pairs(samples, vocab, model.cfg.l_max)
    items = [(i, ids, (-1.0) ** k) for k, (i, ids) in enumerate(pairs)]
    reached = set()  # every node a backward of the step reached
    backward = T.Tensor.backward
    monkeypatch.setattr(T.Tensor, "backward", lambda loss: reached.update(
        map(id, T._toposort(loss))) or backward(loss))
    for step in (lambda: batch_xe_loss(model, samples, pairs),
                 lambda: scst_surrogate_loss(model, samples, items)):
        model.arena.grad.fill(0)
        reached.clear()
        step()
        for name, p in model.params.items():
            assert id(p) in reached and p.grad is not None, name


def greedy_text_alone(model, sample, vocab) -> str:
    """The greedy caption of one video encoded on its own: the oracle of
    ``greedy_texts``, which encodes videos a chunk at a time."""
    with T.no_grad():
        enc = model.encode([(sample.frames, sample.audio)])
    return decode(greedy_decode(model, enc, 0, vocab.bos_id, vocab.eos_id), vocab)


@pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
@pytest.mark.parametrize("with_audio", [False, True])
def test_greedy_texts_by_chunk_equal_per_video_captions(corpus, kind, with_audio,
                                                         monkeypatch):
    train, val, vocab = corpus
    model = TransformerModel(tiny_config(kind, vocab_size=len(vocab)), seed=3)
    model.params["out_proj.b"].data[vocab.eos_id] = 1.0  # EOS likely, but not at once
    samples = [s if with_audio else dataclasses.replace(s, audio=None)
               for s in train + val]
    assert with_audio == any(s.audio is not None for s in samples)
    chunk = 4  # 10 videos: chunks of 4, 4 and 2
    assert len({len(s.frames) for s in samples[:chunk]}) > 1  # the key mask is active
    want = [greedy_text_alone(model, s, vocab) for s in samples]
    assert len(set(want)) > 1
    monkeypatch.setattr(training, "GREEDY_CHUNK", chunk)
    encodings = record_calls(monkeypatch, TransformerModel, "encode")
    decoded = record_calls(monkeypatch, training, "greedy_decode")
    assert training.greedy_texts(model, samples, vocab) == want
    assert [e.out.shape[0] for e in encodings] == [4, 4, 2]
    assert len(decoded) == len(samples)


# ---------------------------------------------------------------------------
# teacher-forced chunks


def one_batch_xe(model, samples, pairs):
    """The XE loss of ``pairs`` run as one padded batch over one encoding,
    each real target token weighing 1 / their count: the oracle of
    ``batch_xe_loss``, which runs them in chunks."""
    inputs, targets, real = teacher_forcing([ids for _, ids in pairs])
    place = {}
    rows = [place.setdefault(i, len(place)) for i, _ in pairs]
    enc = model.encode([(samples[i].frames, samples[i].audio) for i in place])
    logits = model.forward_teacher_forced(enc, rows, inputs)
    return T.cross_entropy(logits, targets, real / real.sum())


def one_batch_surrogate(model, enc, items):
    """The surrogate of distinct rollouts ``items`` with non-zero advantages,
    each one row, as one padded batch in their given order over one
    encoding, under one graph: the oracle of ``scst_surrogate_loss``, which
    runs them by length in chunks."""
    inputs, targets, real = teacher_forcing([ids for _, ids, _ in items])
    weight = np.array([a for _, _, a in items], dtype=np.float64) / len(items)
    logits = model.forward_teacher_forced(enc, [video for video, _, _ in items], inputs)
    return T.cross_entropy(logits, targets, real * weight[:, None])


def encoder_rows(videos) -> list:
    """Each of ``videos``' place in an encoder batch of the distinct ones, in
    order of first appearance."""
    place = {}
    return [place.setdefault(v, len(place)) for v in videos]


def mixed_captions(vocab, n: int, rng) -> list:
    """``n`` captions of random ids after BOS, 1 to l_max+1 tokens of them."""
    longest = tiny_config().l_max + 1
    return [[vocab.bos_id, *rng.integers(1, len(vocab), rng.integers(1, longest + 1)).tolist()]
            for _ in range(n)]


def record_forced(monkeypatch) -> list:
    """Patch ``TransformerModel.forward_teacher_forced`` to record each
    call's (rows, input ids)."""
    calls = []
    forward = TransformerModel.forward_teacher_forced
    monkeypatch.setattr(TransformerModel, "forward_teacher_forced",
                        lambda self, enc, r, x: calls.append((r, x)) or forward(self, enc, r, x))
    return calls


def assert_run_in_chunks(forced, captions):
    """``forced`` holds one call per ``TEACHER_ROWS`` consecutive captions,
    each padded to its own longest."""
    assert len(forced) == math.ceil(len(captions) / TEACHER_ROWS)
    for k, (rows, inputs) in enumerate(forced):
        chunk = captions[k * TEACHER_ROWS:(k + 1) * TEACHER_ROWS]
        assert len(rows) == len(chunk) <= TEACHER_ROWS
        assert np.array_equal(inputs, teacher_forcing(chunk)[0])


def assert_same_loss(got, ref, exact: bool):
    (loss, grads), (ref_loss, ref_grads) = got, ref
    assert grads.keys() == ref_grads.keys() and any(n.startswith("enc.") for n in grads)
    if exact:
        assert loss == ref_loss
        assert all(np.array_equal(grads[n], ref_grads[n]) for n in ref_grads)
    else:
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        for name in ref_grads:
            assert np.allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-14), name


@pytest.mark.parametrize("n_pairs", [7, TEACHER_ROWS, 40])
def test_xe_step_in_chunks_equals_one_batch(corpus, monkeypatch, n_pairs):
    """Up to ``TEACHER_ROWS`` pairs the step is the one batch, bit for bit,
    under one backward; 40 pairs are two full chunks and a partial one, in
    batch order, each encoding its own videos and running its own backward,
    and match the one batch to float64 rounding, a video whose captions fall
    in two chunks included."""
    train, _, vocab = corpus
    model = TransformerModel(tiny_config(vocab_size=len(vocab)), seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    pairs = [(int(rng.integers(len(train))), ids)
             for ids in mixed_captions(vocab, n_pairs, rng)]
    assert len({len(ids) for _, ids in pairs}) > 3
    chunks = [pairs[lo:lo + TEACHER_ROWS] for lo in range(0, n_pairs, TEACHER_ROWS)]
    if len(chunks) > 1:  # a video whose captions fall in two chunks
        assert {i for i, _ in chunks[0]} & {i for i, _ in chunks[1]}
    ref = value_and_grads(model, lambda: one_batch_xe(model, train, pairs))
    forced = record_forced(monkeypatch)
    backwards = record_calls(monkeypatch, T.Tensor, "backward")
    encodings = record_calls(monkeypatch, TransformerModel, "encode")
    got = value_and_grads(model, lambda: batch_xe_loss(model, train, pairs))
    assert len(backwards) == len(chunks)
    assert [e.out.shape[0] for e in encodings] == [len({i for i, _ in c}) for c in chunks]
    assert_run_in_chunks(forced, [ids for _, ids in pairs])
    assert_same_loss(got, ref, exact=len(chunks) == 1)


def traced_peak(fn) -> int:
    """The peak of the memory ``tracemalloc`` traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
def test_xe_step_memory_does_not_grow_with_the_batch(tmp_path, kind):
    """A 64-pair step of the desk model peaks within 1.25x of a 16-pair one:
    each chunk's graph is freed by its backward before the next one is
    built (one graph over the whole batch peaks near 4x)."""
    desk = PROFILES["desk"]["model"]
    train, _ = (m.load_samples() for m in synth_dataset(
        seed=1, n_videos=40, n_concepts=4, d_vision=desk["d_vision"],
        d_audio=desk["d_audio"], out_dir=tmp_path))
    vocab = build_vocab([c for s in train for c in s.captions], 200)
    model = TransformerModel(ModelConfig(**desk, vocab_size=len(vocab), attention_kind=kind))
    pairs = caption_pairs(train, vocab, model.cfg.l_max)
    assert len(pairs) >= 4 * TEACHER_ROWS
    batch_xe_loss(model, train, pairs[:TEACHER_ROWS])  # whatever a first step allocates
    one, four = (traced_peak(lambda: batch_xe_loss(model, train, pairs[:n]))
                 for n in (TEACHER_ROWS, 4 * TEACHER_ROWS))
    assert four <= 1.25 * one, (one, four)


def test_teacher_forced_loss_takes_at_most_teacher_rows(corpus):
    train, _, vocab = corpus
    model = tiny_model(vocab)
    enc = model.encode([(train[0].frames, train[0].audio)])
    captions = mixed_captions(vocab, TEACHER_ROWS + 1, np.random.default_rng(5))
    weights = np.ones(len(captions))
    assert teacher_forced_loss(model, enc, [0] * TEACHER_ROWS, captions[:TEACHER_ROWS],
                               weights[:TEACHER_ROWS]).data.shape == ()
    with pytest.raises(ContractError, match="TEACHER_ROWS"):
        teacher_forced_loss(model, enc, [0] * len(captions), captions, weights)


@pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
@pytest.mark.parametrize("with_audio", [False, True])
@pytest.mark.parametrize("n_rows", [1, TEACHER_ROWS, 40])
def test_surrogate_in_chunks_by_length_equals_one_graph(corpus, monkeypatch, kind,
                                                         with_audio, n_rows):
    """Distinct rollouts of mixed lengths run shortest first, rollouts of one
    length in order of first appearance, in chunks of ``TEACHER_ROWS``, each
    encoding its own videos and running its own backward, and match the one
    graph over them in first-appearance order to float64 rounding.  Up to
    ``TEACHER_ROWS`` rows are one chunk; 40 rows are two full chunks and a
    partial one, a video whose rows fall in two chunks included."""
    train, _, vocab = corpus
    model = TransformerModel(tiny_config(kind, vocab_size=len(vocab)), seed=3, dtype=np.float64)
    rng = np.random.default_rng(6)
    samples = [s if with_audio else dataclasses.replace(s, audio=None) for s in train[:3]]
    assert with_audio == any(s.audio is not None for s in samples)
    items = [(int(rng.integers(len(samples))), ids, float(rng.normal()))
             for ids in mixed_captions(vocab, n_rows, rng)]
    assert len({(v, tuple(ids)) for v, ids, _ in items}) == len(items)
    assert all(a != 0.0 for _, _, a in items)
    by_length = sorted(items, key=lambda item: len(item[1]))
    chunks = [by_length[lo:lo + TEACHER_ROWS] for lo in range(0, n_rows, TEACHER_ROWS)]
    if len(chunks) > 1:  # a video whose rows fall in two chunks
        assert {v for v, _, _ in chunks[0]} & {v for v, _, _ in chunks[1]}
    videos = [(s.frames, s.audio) for s in samples]
    ref = value_and_grads(model, lambda: one_batch_surrogate(model, model.encode(videos), items))
    forced = record_forced(monkeypatch)
    backwards = record_calls(monkeypatch, T.Tensor, "backward")
    encodings = record_calls(monkeypatch, TransformerModel, "encode")
    got = value_and_grads(model, lambda: scst_surrogate_loss(model, samples, items))
    assert len(backwards) == len(chunks) == math.ceil(n_rows / TEACHER_ROWS)
    assert [e.out.shape[0] for e in encodings] == [len({v for v, _, _ in c}) for c in chunks]
    assert_run_in_chunks(forced, [ids for _, ids, _ in by_length])
    assert [rows for rows, _ in forced] == [encoder_rows([v for v, _, _ in c]) for c in chunks]
    lengths = [int(n) for _, inputs in forced for n in (inputs != 0).sum(axis=1)]  # no PAD id
    assert lengths == sorted(lengths) and len(set(lengths)) > min(3, n_rows - 1)
    assert_same_loss(got, ref, exact=False)


@pytest.mark.parametrize("kind", ["memory_scaled_dot", "x_linear"])
def test_scst_step_memory_does_not_grow_with_the_batch(tmp_path, kind):
    """A 64-video SCST step of the desk model peaks within 1.5x of a 16-video
    one: the rollouts read encodings without a graph, and each chunk of
    surrogate rows is freed by its backward before the next one is built
    (one graph over the whole batch peaks near 4x)."""
    desk = PROFILES["desk"]["model"]
    train, _ = (m.load_samples() for m in synth_dataset(
        seed=1, n_videos=72, n_concepts=4, d_vision=desk["d_vision"],
        d_audio=desk["d_audio"], out_dir=tmp_path))
    vocab = build_vocab([c for s in train for c in s.captions], 200)
    tables = metrics.reference_tables(s.captions for s in train)
    model = TransformerModel(ModelConfig(**desk, vocab_size=len(vocab), attention_kind=kind))
    assert len(train) >= 4 * TEACHER_ROWS

    def step(n: int) -> None:
        scst_batch_step(model, train[:n], tables[:n], vocab, RewardConfig(n_samples=5),
                        RngState(4))
        model.arena.grad.fill(0)

    step(TEACHER_ROWS)  # whatever a first step allocates
    one, four = (traced_peak(lambda: step(n)) for n in (TEACHER_ROWS, 4 * TEACHER_ROWS))
    assert four <= 1.5 * one, (one, four)


# ---------------------------------------------------------------------------
# XE loop


class TestTrainXe:
    def test_history_rows_and_best_checkpoint(self, corpus, tmp_path, monkeypatch):
        train, val, vocab = corpus
        saved = record_checkpoints(monkeypatch)
        run = TrainRunConfig(epochs=3, batch_size=8, seed=2)
        model = tiny_model(vocab)
        result = train_xe(model, vocab, train, val, SGDR, run, tmp_path)
        assert not np.any(model.arena.grad)  # each Adam step zeroes what it consumed
        rows = read_history(tmp_path)
        assert rows == result.history
        assert result.history_path == tmp_path / "history.jsonl"
        assert [r["epoch"] for r in rows] == [0, 1, 2, 3]
        steps_per_epoch = math.ceil(27 / 8)
        assert [r["step"] for r in rows] == [0, 4, 8, 12] == \
            [e * steps_per_epoch for e in range(4)]
        assert rows[0]["train_loss"] is None and rows[0]["lr"] == 0.0
        assert rows[-1]["lr"] == lr_at(12, SGDR, D_MODEL)
        assert all(math.isfinite(r["val_loss"]) for r in rows)
        best = max(rows, key=lambda r: r["cider_d"])  # the first of equal maxima
        assert result.best_cider_d == best["cider_d"]
        assert result.best_epoch == best["epoch"]
        ckpt_dir = tmp_path / "checkpoints"
        assert sorted(p.name for p in ckpt_dir.iterdir()) == CHECKPOINT_FILES
        assert len(saved) == len(rows)
        assert checkpoint_contents(result.best_path) == saved[rows.index(best)]
        assert checkpoint_contents(ckpt_dir / "last.vttc") == saved[-1]

    def test_patience_stops_a_stalled_run(self, corpus, tmp_path, monkeypatch):
        train, val, vocab = corpus
        saved = record_checkpoints(monkeypatch)
        frozen = ScheduleConfig(warmup=5, t0=10, eta_max=0.0)
        run = TrainRunConfig(epochs=6, batch_size=8, seed=2, patience=2)
        result = train_xe(tiny_model(vocab), vocab, train, val, frozen, run, tmp_path)
        rows = read_history(tmp_path)
        assert len(rows) == 3  # epoch 0 plus two validations without improvement
        assert len({r["cider_d"] for r in rows}) == 1
        assert result.best_epoch == 0
        assert len(saved) == 3
        assert checkpoint_contents(result.best_path) == saved[0]

    def test_validation_tables_are_built_once(self, corpus, tmp_path, monkeypatch):
        train, val, vocab = corpus
        tables = record_calls(monkeypatch, metrics, "References")
        scored = []
        score = training.score_corpus
        monkeypatch.setattr(training, "score_corpus",
                            lambda cands, tabs: scored.append(tabs) or score(cands, tabs))
        run = TrainRunConfig(epochs=2, batch_size=8, seed=2)
        train_xe(tiny_model(vocab), vocab, train, val, SGDR, run, tmp_path)
        assert [t.lengths for t in tables] == \
            [[len(normalize_words(c)) for c in s.captions] for s in val]
        assert len(scored) == 3 and all(tabs == tables for tabs in scored)

    def test_non_finite_loss_is_a_training_error(self, corpus, tmp_path):
        train, val, vocab = corpus
        model = tiny_model(vocab)
        model.params["out_proj.b"].data[:] = np.nan
        run = TrainRunConfig(epochs=1, batch_size=8)
        with pytest.raises(TrainingError):
            train_xe(model, vocab, train, val, SGDR, run, tmp_path)


# ---------------------------------------------------------------------------
# SCST


def record_decodes(monkeypatch) -> dict:
    """What each greedy and sampled decode of the SCST step returned, in call order."""
    return {name: record_calls(monkeypatch, scst, name)
            for name in ("greedy_decode", "sample_decode")}


class TestScst:
    def setup_batch(self, corpus):
        train, _, vocab = corpus
        batch = train[:3]
        tables = metrics.reference_tables(s.captions for s in batch)
        return tiny_model(vocab, seed=3), batch, tables, vocab

    def test_constant_reward_gives_zero_advantage_and_zero_gradient(self, corpus, monkeypatch):
        """Every rollout ties its baseline, so the surrogate has no row: no
        teacher-forced pass and no backward runs, and every gradient stays
        zero."""
        model, batch, tables, vocab = self.setup_batch(corpus)
        rc = RewardConfig(n_samples=3)
        monkeypatch.setattr(scst, "mixed_reward", lambda cand, refs: 0.7)
        forced = record_calls(monkeypatch, TransformerModel, "forward_teacher_forced")
        backwards = record_calls(monkeypatch, T.Tensor, "backward")
        loss, records = scst_batch_step(model, batch, tables, vocab, rc, RngState(4))
        assert loss == 0.0
        assert all(a == 0.0 for r in records for a in r["advantages"])
        assert forced == [] and backwards == []
        assert not np.any(model.arena.grad)

    def test_a_step_decodes_from_encodings_without_a_graph(self, corpus, monkeypatch):
        """The rollouts read ``GREEDY_CHUNK`` videos per encoder pass, without
        a graph; then each chunk of surrogate rows encodes its videos with
        grad and runs its own backward."""
        model, batch, tables, vocab = self.setup_batch(corpus)
        monkeypatch.setattr(training, "GREEDY_CHUNK", 2)
        encodings = record_calls(monkeypatch, TransformerModel, "encode")
        backwards = record_calls(monkeypatch, T.Tensor, "backward")
        decoded = record_decodes(monkeypatch)
        scst_batch_step(model, batch, tables, vocab, RewardConfig(n_samples=3), RngState(4))
        rollouts, surrogate = encodings[:2], encodings[2:]
        assert [e.out.shape[0] for e in rollouts] == [2, 1]
        assert not any(e.out.requires_grad for e in rollouts)
        assert len(surrogate) == len(backwards) >= 1
        assert all(e.out.requires_grad for e in surrogate)
        assert len(decoded["greedy_decode"]) == len(decoded["sample_decode"]) == len(batch)

    def test_surrogate_encoding_once_equals_encoding_per_rollout(self, corpus, monkeypatch):
        """The surrogate teacher-forces one row per distinct (video, token ids)
        pair with a non-zero summed advantage, shortest first and rows of one
        length in order of first appearance, and matches one encoder pass and
        one loss term per rollout in value and every gradient."""
        train, _, vocab = corpus
        model = TransformerModel(tiny_config(vocab_size=len(vocab)), seed=3, dtype=np.float64)
        samples = train[:2]
        items = [(0, [2, 5, 7, 3], 0.5), (0, [2, 6, 3], -1.25), (0, [2, 9, 8, 10, 3], 2.0),
                 (0, [2, 5, 7, 3], 0.75),  # the same caption of the same video: one row
                 (0, [2, 5, 7], -0.5),  # decodes to the text of [2, 5, 7, 3]: its own row
                 (0, [2, 11, 3], 0.0),  # ties its baseline: no row
                 (1, [2, 5, 7, 3], 2.0),  # video 0's caption: a row of video 1
                 (1, [2, 6, 3], 1.5), (1, [2, 6, 3], -1.5),  # sums to 0.0: no row
                 (1, [2, 9, 8, 10, 3], -0.25)]
        rows = [(0, [2, 6, 3]), (0, [2, 5, 7]), (0, [2, 5, 7, 3]), (1, [2, 5, 7, 3]),
                (0, [2, 9, 8, 10, 3]), (1, [2, 9, 8, 10, 3])]
        videos = [(s.frames, s.audio) for s in samples]

        def per_rollout_encode():  # one encoder pass per rollout
            total = None
            for video, ids, advantage in items:
                logits = only(teacher_forced(model, [videos[video]], [ids[:-1]]))
                term = T.scale(T.cross_entropy(logits, ids[1:]), advantage)
                total = term if total is None else T.add(total, term)
            return T.scale(total, 1.0 / len(items))

        with monkeypatch.context() as m:
            forced = record_forced(m)
            loss, got = value_and_grads(model, lambda: scst_surrogate_loss(model, samples, items))
        ((got_rows, got_inputs),) = forced
        assert got_rows == [video for video, _ in rows]  # video 0 first: places equal indices
        assert np.array_equal(got_inputs, teacher_forcing([ids for _, ids in rows])[0])

        ref_loss, ref = value_and_grads(model, per_rollout_encode)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=1e-10)
        assert got.keys() == ref.keys() and any(n.startswith("enc.") for n in got)
        for name in ref:
            assert np.allclose(got[name], ref[name], rtol=1e-10, atol=1e-10), name

    def test_advantage_is_sample_minus_greedy_reward(self, corpus, monkeypatch):
        model, batch, tables, vocab = self.setup_batch(corpus)
        rc = RewardConfig(n_samples=3)
        decoded = record_decodes(monkeypatch)
        monkeypatch.setattr(scst, "mixed_reward", lambda cand, refs: float(len(cand)))
        _, records = scst_batch_step(model, batch, tables, vocab, rc, RngState(4))
        assert [r["id"] for r in records] == [s.id for s in batch]
        for r, base, rolls in zip(records, decoded["greedy_decode"],
                                  decoded["sample_decode"]):
            assert r["baseline_reward"] == len(normalize_words(decode(base, vocab)))
            assert len(rolls) == len(r["sample_rewards"]) == 3
            for (ids, _), reward_, a in zip(rolls, r["sample_rewards"], r["advantages"]):
                assert reward_ == len(normalize_words(decode(ids, vocab)))
                assert a == reward_ - r["baseline_reward"]
        assert any(a != 0.0 for r in records for a in r["advantages"])

    def test_each_video_is_scored_against_its_own_table(self, corpus, monkeypatch):
        """Video i's baseline and rollouts are rewarded against ``tables[i]``.
        Each video's baseline is its own first reference caption, which
        scores differently against the other video's table."""
        train, _, vocab = corpus
        batch = [train[0], next(s for s in train if s.captions != train[0].captions)]
        tables = metrics.reference_tables(s.captions for s in batch)
        model = tiny_model(vocab, seed=3)
        own = [truncate(encode(s.captions[0], vocab), model.cfg.l_max, vocab) for s in batch]
        monkeypatch.setattr(scst, "greedy_decode", lambda m, enc, video, bos, eos: own[video])
        rollouts = record_calls(monkeypatch, scst, "sample_decode")
        _, records = scst_batch_step(model, batch, tables, vocab, RewardConfig(n_samples=3),
                                     RngState(4))

        def words(ids):
            return normalize_words(decode(ids, vocab))

        for r, base, rolls, refs, other in zip(records, own, rollouts, tables, tables[::-1]):
            assert r["baseline_reward"] == scst.mixed_reward(words(base), refs) \
                != scst.mixed_reward(words(base), other)
            assert r["sample_rewards"] == [scst.mixed_reward(words(ids), refs)
                                           for ids, _ in rolls]

    def test_one_trace_line_per_step(self, corpus, tmp_path):
        train, val, vocab = corpus
        trace = tmp_path / "trace.jsonl"
        run = TrainRunConfig(epochs=2, batch_size=4, seed=5)
        result = finetune_scst(tiny_model(vocab), vocab, train, val,
                               RewardConfig(n_samples=2, eta=1e-3), run, tmp_path / "run",
                               trace_path=trace)
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        steps = 2 * math.ceil(len(train) / 4)
        assert [ln["step"] for ln in lines] == list(range(1, steps + 1))
        assert all(len(ln["videos"]) in (1, 4) for ln in lines)
        rows = read_history(tmp_path / "run")
        assert [r["step"] for r in rows] == [0, steps // 2, steps]
        assert all(r["lr"] == 1e-3 for r in rows)
        assert rows[0]["mean_advantage"] is None
        assert all(math.isfinite(r["mean_advantage"]) for r in rows[1:])
        assert load_checkpoint(result.best_path).n_parameters() == \
            tiny_model(vocab).n_parameters()

    def test_references_are_counted_once_per_video(self, corpus, tmp_path, monkeypatch):
        train, val, vocab = corpus
        tables = record_calls(monkeypatch, metrics, "References")
        read = set()
        reward = scst.mixed_reward
        monkeypatch.setattr(scst, "mixed_reward",
                            lambda cand, refs: read.add(id(refs)) or reward(cand, refs))
        scored = []
        score = training.score_corpus
        monkeypatch.setattr(training, "score_corpus",
                            lambda cands, tabs: scored.append(tabs) or score(cands, tabs))
        run = TrainRunConfig(epochs=2, batch_size=4, seed=5)
        finetune_scst(tiny_model(vocab), vocab, train, val, RewardConfig(n_samples=2, eta=1e-3),
                      run, tmp_path / "run")
        # the rewards' tables for training and validation videos, then the report's
        assert [t.lengths for t in tables] == \
            [[len(normalize_words(c)) for c in s.captions] for s in train + val + val]
        rewards, reports = tables[:-len(val)], tables[-len(val):]
        assert read == {id(t) for t in rewards}  # every reward reads a table built here
        assert len(scored) == 3 and all(tabs == reports for tabs in scored)
        assert {id(t.idf) for t in rewards} == {id(rewards[0].idf)}
        assert reports[0].idf.n_docs == len(val) != rewards[0].idf.n_docs

    def test_trace_records_rollout_lengths(self, corpus, tmp_path, monkeypatch):
        train, val, vocab = corpus
        decoded = record_decodes(monkeypatch)
        steps = record_calls(monkeypatch, scst, "scst_batch_step")
        trace = tmp_path / "trace.jsonl"
        run = TrainRunConfig(epochs=1, batch_size=4, seed=5)
        model = tiny_model(vocab)
        finetune_scst(model, vocab, train, val, RewardConfig(n_samples=3, eta=1e-3),
                      run, tmp_path / "run", trace_path=trace)
        assert not np.any(model.arena.grad)  # each Adam step zeroes what it consumed
        lines = [json.loads(line)["videos"] for line in trace.read_text().splitlines()]
        assert lines == [records for _, records in steps]
        videos = [v for line in lines for v in line]
        assert len(videos) == len(decoded["greedy_decode"]) == len(train)
        l_max = model.cfg.l_max
        for v, base, rolls in zip(videos, decoded["greedy_decode"], decoded["sample_decode"]):
            assert list(v) == ["id", "baseline_reward", "sample_rewards", "advantages",
                               "baseline_length", "sample_lengths", "truncated"]
            assert v["baseline_length"] == len(base) - 1
            assert v["sample_lengths"] == [len(ids) - 1 for ids, _ in rolls]
            cut = [ids for ids, _ in rolls if vocab.eos_id not in ids]
            assert v["truncated"] == len(cut)
            assert all(len(ids) == l_max + 2 for ids in cut)
        assert 0 < sum(v["truncated"] for v in videos) < 3 * len(videos)

    def test_nan_model_is_a_training_error(self, corpus, tmp_path):
        """A NaN model's rollouts all tie their baseline, so the surrogate has
        no row to carry the NaN; the rollouts' log-probabilities do."""
        train, val, vocab = corpus
        model = tiny_model(vocab)
        model.params["out_proj.b"].data[:] = np.nan
        run = TrainRunConfig(epochs=1, batch_size=4, seed=5)
        with pytest.raises(TrainingError):
            finetune_scst(model, vocab, train, val, RewardConfig(n_samples=2, eta=1e-3), run,
                          tmp_path)

    @pytest.mark.parametrize("bad", [
        {"eta": -1e-4}, {"eta": float("nan")}, {"eta": float("inf")}, {"n_samples": 0},
    ])
    def test_reward_config_rejects_non_finite_or_non_positive_values(self, bad):
        with pytest.raises(ContractError):
            RewardConfig(**bad)


# ---------------------------------------------------------------------------
# run artefacts


@pytest.mark.parametrize("hard_links", [True, False])
def test_best_checkpoint_survives_later_saves(corpus, tmp_path, monkeypatch, hard_links):
    _, _, vocab = corpus
    model = tiny_model(vocab)
    saved = record_checkpoints(monkeypatch)
    if not hard_links:
        def no_link(src, dst):
            raise OSError("no hard links here")

        monkeypatch.setattr(os, "link", no_link)
    scores = iter([0.1, 0.5, 0.2])

    def step_fn(indices, step):
        model.params["out_proj.b"].grad[0] = 1.0  # so every step moves the model
        return 0.5

    run = TrainRunConfig(epochs=2, batch_size=1)
    result = _fit(model, 1, step_fn, lambda step: 1e-3, lambda: {"cider_d": next(scores)},
                  run, tmp_path / "run", RngState(1))
    ckpt_dir = tmp_path / "run" / "checkpoints"
    assert sorted(p.name for p in ckpt_dir.iterdir()) == CHECKPOINT_FILES
    assert (result.best_epoch, result.best_path) == (1, ckpt_dir / "best.vttc")
    assert len({data for data, _ in saved}) == 3
    assert checkpoint_contents(result.best_path) == saved[1]
    assert checkpoint_contents(ckpt_dir / "last.vttc") == saved[2]


def test_failed_validation_keeps_the_previous_history(corpus, tmp_path):
    _, _, vocab = corpus
    rows = iter([{"cider_d": 0.1}, {"cider_d": object()}])  # the second is not JSON
    run = TrainRunConfig(epochs=1, batch_size=4, seed=1)
    with pytest.raises(TypeError):
        _fit(tiny_model(vocab), 4, lambda indices, step: 0.5, lambda step: 1e-3,
             lambda: next(rows), run, tmp_path / "run", RngState(1))
    history = read_history(tmp_path / "run")
    assert [r["cider_d"] for r in history] == [0.1]
    assert not (tmp_path / "run" / "history.jsonl.tmp").exists()


def test_history_rows_record_pre_clip_gradient_norms(corpus, tmp_path, monkeypatch):
    _, _, vocab = corpus
    model = tiny_model(vocab)
    norms = {1: 3.0, 2: GRAD_CLIP_NORM, 3: 4.0, 4: 10.0}  # step -> pre-clip norm
    stepped = []  # the gradient each Adam step receives, which it then zeroes
    update = training.adam_update

    def recording(arena, state, lr):
        stepped.append(arena.grad.copy())
        update(arena, state, lr)

    monkeypatch.setattr(training, "adam_update", recording)

    def step_fn(indices, step):
        model.params["out_proj.b"].grad[0] = norms[step]
        return float(step)  # the loss of step s is s

    run = TrainRunConfig(epochs=2, batch_size=1)
    _fit(model, 2, step_fn, lambda step: 1e-3, lambda: {"cider_d": 0.0}, run, tmp_path / "run",
         RngState(1))
    rows = read_history(tmp_path / "run")
    assert [(r["step"], r["grad_norm"], r["clipped"]) for r in rows] == \
        [(0, None, 0), (2, pytest.approx(4.0), 0), (4, pytest.approx(7.0), 1)]
    # each row's train_loss covers the same steps as its grad_norm
    assert [r["train_loss"] for r in rows] == [None, 1.5, 3.5]
    assert [np.linalg.norm(g) for g in stepped] == \
        pytest.approx([3.0, GRAD_CLIP_NORM, 4.0, GRAD_CLIP_NORM])
    assert not np.any(model.arena.grad)
