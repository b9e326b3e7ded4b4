"""Training: Adam, the learning-rate schedule, and the one loop XE and SCST share.

The optimizer is standard bias-corrected Adam with beta1=0.9, beta2=0.98,
eps=1e-9, after clipping the gradients to a global L2 norm of 5.  Both work
on the model's ``ParamArena``, whose parameters and gradients are two flat
buffers, with Adam's moments two more laid out alike.  The norm and the
Adam step are each one pass over those buffers in blocks of ``CHUNK``
elements, small enough that a block of every buffer stays in L2 cache
while all of the pass's operations run over it: the arena, 365 MB at the
paper's 91.2M parameters, is read from memory once per pass rather than
once per operation.  The norm adds block sums in float64 and checks that every
gradient is finite before anything changes; Adam computes each element by
the same expression, in the same order, as a per-parameter loop would.
Both write only what a step changes: clipping scales only blocks holding a
non-zero gradient; Adam skips a block whose gradients and moments are all
zero (the step leaves it as it is) and zeroes each gradient block it uses.
So a step starts from zero gradients with no zeroing pass, and gradient and
moment pages no step reaches (unused tokens' embeddings) stay unmapped.
The one schedule is SGDR: linear warmup over ``warmup`` steps to eta_max,
then cosine annealing to eta_max / 100 with warm restarts, the first cycle
``t0`` steps long and each next one twice the last (a restart returns to
eta_max).  ``train_xe`` takes a model and its training and validation
samples; it and ``scst.finetune_scst`` run one loop, ``_fit``, and differ
only in their step, learning-rate and validation functions.  It validates
at the end of each epoch against reference tables built once, keeps the
last and the best-CIDEr-D checkpoints, and stops after ``patience``
validations without improvement.

An XE step is one graph: the step's distinct videos are encoded once, in
the order they first appear, and its (video, caption) pairs go through
``forward_teacher_forced`` over that encoding as one padded batch
(``teacher_forcing``); the loss weights every real target token 1 and every
padded one 0.  ``validation_loss`` runs the validation pairs the same way,
``batch_size`` pairs at a time.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, TrainingError
from .metrics import MetricReport, reference_tables, score_corpus
from .fileio import write_text
from .model import TransformerModel, greedy_decode, link_checkpoint, save_checkpoint
from .tensor import RngState
from .tokenizer import Vocabulary, decode, encode, normalize_words, truncate

GRAD_CLIP_NORM = 5.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9

# Elements per block of the optimizer's passes over the flat arena.  One
# block each of parameters, gradients, both moments and Adam's two scratch
# buffers (6 x 256 KB in float32) fits a 2 MB L2 cache, so every operation
# of a step runs over the block in cache and each byte of the arena crosses
# the memory bus once per pass, not once per operation.
CHUNK = 65536

# Videos per encoder pass of ``greedy_texts``.  It bounds the encoder's
# memory: at the paper's sizes, X-linear attention's (videos, heads, queries,
# keys, d_head) bilinear tensor for 16 videos of 40 rows, each row attending
# over 104 keys (its 40 and the 64 memory slots), is 136 MB per layer.
GREEDY_CHUNK = 16


@dataclass
class OptimizerState:
    """Adam's step count and moments; ``m`` and ``v`` are flat buffers laid out
    like the arena's, made by ``np.zeros`` on the first step: lazily mapped."""

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_update(arena: T.ParamArena, state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam step over every parameter of ``arena``.

    One pass over the flat parameters, gradients and moments, ``CHUNK``
    elements at a time, in place: every intermediate lands in one of two
    chunk-sized scratch buffers, in the order of ``m += (1-b1)(g-m);
    v += (1-b2)(g*g-v); p -= (lr/c1) m / (sqrt(v/c2) + eps)``, so each
    element is bit for bit that expression's.  A block whose gradients and
    moments are all zero, which that leaves unchanged, is skipped; any other
    block's gradients are zeroed once consumed, so all are zero on return.
    The gradients must be finite; ``clip_gradients`` checks that first.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    if state.m is None:  # np.zeros: a page is mapped when first written
        state.m = np.zeros(arena.data.shape, arena.data.dtype)
        state.v = np.zeros(arena.data.shape, arena.data.dtype)
    n = arena.data.size
    s_buf = np.empty(min(CHUNK, n), arena.data.dtype)
    t_buf = np.empty_like(s_buf)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        g, m, v, p = (a[lo:hi] for a in (arena.grad, state.m, state.v, arena.data))
        if not (g.any() or m.any() or v.any()):
            continue  # the step would leave p, m and v bit for bit as they are
        s, t = s_buf[:hi - lo], t_buf[:hi - lo]
        np.subtract(g, m, out=s)
        s *= 1.0 - b1
        m += s
        np.multiply(g, g, out=s)
        g.fill(0)  # consumed: the next step starts from zero gradients
        s -= v
        s *= 1.0 - b2
        v += s
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.multiply(m, lr / c1, out=t)
        t /= s
        p -= t


def clip_gradients(arena: T.ParamArena, max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale all gradients of ``arena`` so their global L2 norm is at most
    ``max_norm``; returns the norm before scaling.

    Each ``CHUNK`` block's squares are summed by one dot product in the
    arena's dtype, and the blocks' sums are added in float64.  A block whose
    sum is not finite is summed again in float64, so finite values whose
    squares overflow float32 are clipped.  A non-finite gradient raises
    ``TrainingError`` naming its parameter, and a norm that overflows
    float64 raises one saying so, before anything is scaled or stepped.
    Scaling writes only the blocks holding a non-zero gradient.
    """
    grad = arena.grad
    total = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, grad.size, CHUNK):
            b = grad[lo:lo + CHUNK]
            square_sum = float(b @ b)
            if not math.isfinite(square_sum):  # an overflow, or a non-finite gradient
                finite = np.isfinite(b)
                if not finite.all():
                    bad = lo + int(np.argmin(finite))
                    raise TrainingError(
                        f"non-finite gradient for parameter {arena.name_at(bad)!r}")
                square_sum = float(np.square(b, dtype=np.float64).sum())
            total += square_sum
    if not math.isfinite(total):
        raise TrainingError("the gradient norm overflows float64")
    norm = math.sqrt(total)
    if norm > max_norm:
        for lo in range(0, grad.size, CHUNK):
            b = grad[lo:lo + CHUNK]
            if b.any():  # not the square sum, which is 0 for tiny values
                b *= max_norm / norm
    return norm


@dataclass
class ScheduleConfig:
    warmup: int = 10000
    t0: int = 4000
    eta_max: float | None = None  # None: d_model^-0.5 * warmup^-0.5

    def __post_init__(self):
        if self.warmup < 1 or self.t0 < 1:
            raise ContractError("warmup and t0 must be >= 1")
        if self.eta_max is not None and not (math.isfinite(self.eta_max) and self.eta_max >= 0):
            raise ContractError(f"eta_max must be finite and >= 0, got {self.eta_max}")


def lr_at(step: int, s: ScheduleConfig, d_model: int) -> float:
    """Learning rate for 1-based optimizer step ``step`` of a model of width ``d_model``."""
    if step < 1:
        raise ContractError("step must be >= 1")
    eta_max = d_model ** -0.5 * s.warmup ** -0.5 if s.eta_max is None else s.eta_max
    eta_min = eta_max / 100.0
    if step <= s.warmup:
        return eta_max * step / s.warmup
    u = step - s.warmup
    cycle = s.t0
    while u >= cycle:
        u -= cycle
        cycle *= 2
    return eta_min + (eta_max - eta_min) * 0.5 * (1.0 + math.cos(math.pi * u / cycle))


@dataclass
class TrainRunConfig:
    epochs: int = 50
    batch_size: int = 128
    seed: int = 7
    patience: int = 10  # validations without improvement before stopping; 0 = off
    out_dir: str = "run"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.patience < 0:
            raise ContractError("patience must be >= 0")


@dataclass
class TrainResult:
    best_path: Path
    best_epoch: int
    best_cider_d: float
    history: list
    history_path: Path


def caption_pairs(samples, vocab: Vocabulary, l_max: int) -> list:
    """(sample index, token ids) for every reference caption."""
    return [(i, truncate(encode(cap, vocab), l_max, vocab))
            for i, s in enumerate(samples) for cap in s.captions]


def teacher_forcing(captions) -> tuple:
    """(inputs, targets, real) of a padded caption batch, each (B, L).

    Row b holds ``captions[b][:-1]`` as inputs and ``captions[b][1:]`` as
    targets, padded with ``[PAD]`` to the longest: id 0 in every
    vocabulary, by ``Vocabulary.from_tokens``'s rule.  ``real`` is 1.0 on
    each caption's own targets and 0.0 on the padding.
    """
    width = max(len(c) for c in captions)
    if min(len(c) for c in captions) < 2:
        raise ContractError("a caption needs BOS plus one token")
    ids = np.zeros((len(captions), width), dtype=np.int64)
    for row, c in zip(ids, captions):
        row[:len(c)] = c
    lengths = np.array([len(c) - 1 for c in captions])
    real = (np.arange(width - 1) < lengths[:, None]).astype(np.float64)
    return ids[:, :-1], ids[:, 1:], real


def _xe_sum(model: TransformerModel, samples, pairs) -> tuple:
    """Summed cross entropy over the real target tokens of ``pairs``, run as
    one padded batch, plus their count."""
    inputs, targets, real = teacher_forcing([ids for _, ids in pairs])
    place = {}  # sample index -> its video's place in the encoder batch
    rows = [place.setdefault(i, len(place)) for i, _ in pairs]
    enc = model.encode([(samples[i].frames, samples[i].audio) for i in place])
    logits = model.forward_teacher_forced(enc, rows, inputs)
    return T.cross_entropy(logits, targets, real), float(real.sum())


def batch_xe_loss(model: TransformerModel, samples, batch_pairs):
    """Mean cross entropy per real target token over a batch of caption pairs."""
    if not batch_pairs:
        raise ContractError("batch contains no scorable tokens")
    total, denom = _xe_sum(model, samples, batch_pairs)
    return T.scale(total, 1.0 / denom)


def validation_loss(model: TransformerModel, samples, pairs, batch_size: int) -> float:
    """Teacher-forced mean CE per real target token over all (video, caption)
    pairs, ``batch_size`` pairs per forward pass."""
    total = denom = 0.0
    with T.no_grad():
        for lo in range(0, len(pairs), batch_size):
            ce, n_tok = _xe_sum(model, samples, pairs[lo:lo + batch_size])
            total += ce.item()
            denom += n_tok
    return total / denom if denom else 0.0


def greedy_texts(model: TransformerModel, samples, vocab: Vocabulary) -> list:
    """The greedy caption of every sample, as text.

    The samples are encoded ``GREEDY_CHUNK`` at a time, one encoder pass per
    chunk, and each video is then decoded alone (``greedy_decode``) from its
    chunk's encoding.  The key mask keeps a video's encoding, beyond float
    rounding, from depending on which videos share its chunk.
    """
    texts = []
    with T.no_grad():
        for lo in range(0, len(samples), GREEDY_CHUNK):
            chunk = samples[lo:lo + GREEDY_CHUNK]
            enc = model.encode([(s.frames, s.audio) for s in chunk])
            texts += [decode(greedy_decode(model, enc, i, vocab.bos_id, vocab.eos_id), vocab)
                      for i in range(len(chunk))]
    return texts


def evaluate(model: TransformerModel, samples, vocab: Vocabulary, tables) -> MetricReport:
    """Greedy-decode every sample (``greedy_texts``: one encoder pass per
    chunk of ``GREEDY_CHUNK`` videos, one decode per video) and score the
    word tokens of its caption against its table in ``tables``: corpus
    BLEU-4 and mean CIDEr and CIDEr-D."""
    return score_corpus([normalize_words(text) for text in greedy_texts(model, samples, vocab)],
                        tables)


def _fit(model: TransformerModel, n_items: int, step_fn, lr_fn, validate_fn,
         run: TrainRunConfig, rng: RngState) -> TrainResult:
    """The training loop of XE and SCST, writing under ``run.out_dir``.

    ``step_fn(indices, step)`` runs forward and backward on the items at
    ``indices`` for 1-based step ``step`` and returns the loss; ``lr_fn(step)``
    is the step's learning rate; ``validate_fn()`` returns a history row's
    metrics, ``cider_d`` among them.  Each row also records ``train_loss`` and
    ``grad_norm``, the mean loss and pre-clip gradient norm of the steps since
    the previous row (None on the step-0 row), and ``clipped``, how many of
    those steps were clipped.  Rows go to ``history.jsonl``; each validation
    saves ``checkpoints/last.vttc``, a new file, and one with a new best
    CIDEr-D makes ``best.vttc`` a second name for it (``link_checkpoint``).
    """
    out_dir = Path(run.out_dir)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    last_path, best_path = ckpt_dir / "last.vttc", ckpt_dir / "best.vttc"
    history_path = out_dir / "history.jsonl"
    state = OptimizerState()
    history = []

    def write_history():
        """Rewrite the whole file, so a crash midway leaves the previous one intact."""
        write_text(history_path, "".join(json.dumps(r) + "\n" for r in history))

    write_history()
    best = (-1.0, 0)  # (cider_d, epoch)
    step = 0
    losses = []  # training losses and pre-clip gradient norms since the previous row
    norms = []

    def validate(epoch: int) -> bool:
        """Record one validation; True when its CIDEr-D is a new best."""
        nonlocal best
        row = {"epoch": epoch, "step": step, "lr": lr_fn(step),
               "train_loss": statistics.fmean(losses) if losses else None,
               "grad_norm": statistics.fmean(norms) if norms else None,
               "clipped": sum(n > GRAD_CLIP_NORM for n in norms),
               **validate_fn()}
        losses.clear()
        norms.clear()
        history.append(row)
        write_history()
        save_checkpoint(model, last_path)
        improved = row["cider_d"] > best[0]
        if improved:
            best = (row["cider_d"], epoch)
            link_checkpoint(last_path, best_path)
        return improved

    validate(0)  # the starting point
    stall = 0
    for epoch in range(1, run.epochs + 1):
        order = rng.permutation(n_items)
        for lo in range(0, n_items, run.batch_size):
            step += 1
            loss = step_fn(order[lo:lo + run.batch_size], step)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite training loss {loss} at step {step}")
            norms.append(clip_gradients(model.arena))
            adam_update(model.arena, state, lr_fn(step))
            losses.append(loss)
        stall = 0 if validate(epoch) else stall + 1
        if run.patience and stall >= run.patience:
            break
    return TrainResult(best_path=best_path, best_epoch=best[1], best_cider_d=best[0],
                       history=history, history_path=history_path)


def train_xe(model: TransformerModel, vocab: Vocabulary, train_samples, val_samples,
             sched: ScheduleConfig, run: TrainRunConfig) -> TrainResult:
    """Teacher-forced cross-entropy training of ``model`` under ``sched``.

    Validation rows add the teacher-forced ``val_loss``; the row at step 0
    records lr 0.
    """
    train_pairs = caption_pairs(train_samples, vocab, model.cfg.l_max)
    val_pairs = caption_pairs(val_samples, vocab, model.cfg.l_max)
    val_tables = reference_tables(s.captions for s in val_samples)
    rng = RngState(run.seed).derive("train_xe")

    def step_fn(indices, step: int) -> float:
        loss = batch_xe_loss(model, train_samples, [train_pairs[i] for i in indices])
        loss.backward()
        return loss.item()

    def validate_fn() -> dict:
        return {**evaluate(model, val_samples, vocab, val_tables).as_dict(),
                "val_loss": validation_loss(model, val_samples, val_pairs, run.batch_size)}

    return _fit(model, len(train_pairs), step_fn,
                lambda step: lr_at(step, sched, model.cfg.d_model) if step else 0.0,
                validate_fn, run, rng)
