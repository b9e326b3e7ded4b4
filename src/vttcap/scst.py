"""Self-critical sequence training: sampled rollouts against a greedy baseline.

Each step encodes its batch of videos once, with grad; from that encoding
it greedy-decodes a baseline caption per video, draws ``n_samples``
rollouts from the model's own distribution (temperature 1), scores both
with one fixed reward, sentence CIDEr-D plus smoothed sentence BLEU-4
(``mixed_reward``), and minimizes

    -(1/(B*N)) * sum_videos sum_samples (r(sample) - r(baseline)) * sum_t log p(token_t)

so samples beating the baseline are reinforced and the rest suppressed.
Rewards are constants in the surrogate; gradient flows only through the
token log-probabilities of the sampled captions, which the surrogate
recomputes as one padded teacher-forced batch over the same encoding
(``forward_teacher_forced``): a rollout's real tokens weigh advantage /
(B*N) in the loss, its padding 0.  ``scst_batch_step`` returns the loss
and each video's trace record; ``finetune_scst`` runs it inside the
training loop XE uses (``training._fit``), with Adam at the constant
learning rate ``RewardConfig.eta``; every reward reads the video's
``metrics.References`` table, built once per run under the training
references' IDF.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .features import DatasetManifest
from .metrics import References, bleu4, cider_sentence, reference_tables
from .model import TransformerModel, greedy_decode, load_checkpoint_for, sample_decode
from .tensor import RngState
from .tokenizer import Vocabulary, decode, normalize_words
from .training import TrainResult, TrainRunConfig, _fit, evaluate, greedy_texts, teacher_forcing


@dataclass
class RewardConfig:
    n_samples: int = 5
    eta: float = 5e-6

    def __post_init__(self):
        if self.n_samples < 1:
            raise ContractError("n_samples must be >= 1")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ContractError(f"eta must be finite and >= 0, got {self.eta}")


def mixed_reward(candidate, refs: References) -> float:
    """Sentence CIDEr-D plus smoothed sentence BLEU-4, weighted equally, of
    the word tokens ``candidate`` against the video's reference table."""
    return cider_sentence(candidate, refs)[1] + bleu4(candidate, refs)


def scst_surrogate_loss(model: TransformerModel, enc, items) -> T.Tensor:
    """Differentiable surrogate with frozen advantages.

    ``items`` holds (video, token ids, advantage) triples, ``video`` an index
    into the encoding ``enc``; the loss is the mean over items of advantage *
    (-sum_t log p(token_t)), so zero advantage contributes exactly zero value
    and gradient.  All rollouts run as one batch padded with PAD (id 0 in
    every vocabulary), and backward sums each video's rollouts' gradients
    through its encoding.
    """
    if not items:
        raise ContractError("surrogate loss needs at least one rollout")
    inputs, targets, real = teacher_forcing([ids for _, ids, _ in items], 0)
    weight = np.array([advantage for _, _, advantage in items], dtype=np.float64) / len(items)
    logits = model.forward_teacher_forced(enc, [video for video, _, _ in items], inputs)
    return T.cross_entropy(logits, targets, real * weight[:, None])


def scst_batch_step(model: TransformerModel, batch, vocab: Vocabulary,
                    rc: RewardConfig, rng: RngState, reward_fn) -> tuple:
    """Rollouts, rewards, surrogate backward for one batch of videos, over one encoding.

    Returns (loss value, records), one record per video in batch order: the
    dict ``finetune_scst`` writes for that video in its trace line.
    Gradients are left in the model's parameter buffers.
    ``reward_fn(candidate_words, sample)`` scores a caption of ``sample``.
    """
    records = []
    items = []
    enc = model.encode([(sample.frames, sample.audio) for sample in batch])
    for video, sample in enumerate(batch):
        base_ids = greedy_decode(model, enc, video, vocab.bos_id, vocab.eos_id)
        r_base = reward_fn(normalize_words(decode(base_ids, vocab)), sample)
        rollouts = [ids for ids, _ in sample_decode(
            model, enc, video, vocab.bos_id, vocab.eos_id, rc.n_samples, rng)]
        rewards = [reward_fn(normalize_words(decode(ids, vocab)), sample) for ids in rollouts]
        advantages = [r - r_base for r in rewards]
        items += [(video, ids, a) for ids, a in zip(rollouts, advantages)]
        records.append({"id": sample.id, "baseline_reward": r_base,
                        "sample_rewards": rewards, "advantages": advantages,
                        "baseline_length": len(base_ids) - 1,
                        "sample_lengths": [len(ids) - 1 for ids in rollouts],
                        "truncated": sum(ids[-1] != vocab.eos_id for ids in rollouts)})

    model.zero_grad()
    loss = scst_surrogate_loss(model, enc, items)
    loss.backward()
    return loss.item(), records


def validation_mixed_reward(model: TransformerModel, samples, vocab: Vocabulary,
                            tables) -> float:
    """Mean mixed reward of greedy captions over a validation set, against ``tables``."""
    texts = greedy_texts(model, samples, vocab)
    return statistics.fmean(mixed_reward(normalize_words(text), refs)
                            for text, refs in zip(texts, tables))


def finetune_scst(checkpoint, train: DatasetManifest, val: DatasetManifest,
                  vocab: Vocabulary, rc: RewardConfig, run: TrainRunConfig,
                  trace_path=None) -> TrainResult:
    """SCST finetuning from an XE checkpoint at constant learning rate ``rc.eta``.

    Each video's reward table, under the training references' IDF, and each
    validation video's report table, under the validation references' own,
    is built once, before the first step.  Validation rows add the mean
    validation mixed reward and the mean advantage of the steps since the
    previous row.  ``trace_path`` receives one JSON line per step,
    ``{"step": s, "videos": [...]}``, with one record per video of the
    batch, in batch order, holding these keys in this order: ``id``;
    ``baseline_reward`` and ``sample_rewards``, the mixed rewards of the
    greedy baseline and of each rollout; ``advantages``, each rollout's
    reward minus the baseline's; ``baseline_length`` and ``sample_lengths``,
    the tokens each emitted, BOS excluded; ``truncated``, the rollouts cut
    at l_max+2 tokens without EOS.
    """
    model = load_checkpoint_for(checkpoint, vocab)
    if len(train) == 0 or len(val) == 0:
        raise ContractError("train and val manifests must be non-empty")
    train_samples = train.load_samples(model.cfg.check_video)
    val_samples = val.load_samples(model.cfg.check_video)
    train_tables = reference_tables(s.captions for s in train_samples)
    train_rewards = {s.id: t for s, t in zip(train_samples, train_tables)}
    val_rewards = reference_tables((s.captions for s in val_samples), train_tables[0].idf)
    val_tables = reference_tables(s.captions for s in val_samples)
    rng = RngState(run.seed).derive("scst")
    sample_rng = rng.derive("rollouts")
    advantage_window = []

    with open(trace_path, "w", encoding="utf-8") if trace_path \
            else contextlib.nullcontext() as trace_fh:
        def step_fn(indices, step: int) -> float:
            batch = [train_samples[i] for i in indices]
            loss, records = scst_batch_step(
                model, batch, vocab, rc, sample_rng,
                lambda cand, sample: mixed_reward(cand, train_rewards[sample.id]))
            advantage_window.append(statistics.fmean(a for r in records
                                                     for a in r["advantages"]))
            if trace_fh is not None:
                trace_fh.write(json.dumps({"step": step, "videos": records}) + "\n")
            return loss

        def validate_fn() -> dict:
            row = {**evaluate(model, val_samples, vocab, val_tables).as_dict(),
                   "mixed_reward": validation_mixed_reward(model, val_samples, vocab, val_rewards),
                   "mean_advantage": (statistics.fmean(advantage_window)
                                      if advantage_window else None)}
            advantage_window.clear()
            return row

        return _fit(model, len(train_samples), step_fn, lambda step: rc.eta,
                    validate_fn, run, rng)
