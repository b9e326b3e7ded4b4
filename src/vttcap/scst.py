"""Self-critical sequence training: sampled rollouts against a greedy baseline.

Each step encodes its batch of videos once, with grad; from that encoding
it greedy-decodes a baseline caption per video, draws ``n_samples``
rollouts from the model's own distribution (temperature 1), scores both
with one fixed reward, sentence CIDEr-D plus smoothed sentence BLEU-4
(``mixed_reward``) against the video's own reference table, and minimizes

    -(1/(B*N)) * sum_videos sum_samples (r(sample) - r(baseline)) * sum_t log p(token_t)

so samples beating the baseline are reinforced and the rest suppressed.
Rewards are constants in the surrogate; gradient flows only through the
token log-probabilities of the sampled captions, which the surrogate
recomputes teacher-forced over the same encoding
(``training.teacher_forced_loss``).  Identical rollouts of one video share
their log-probabilities, so it holds one row per distinct (video, token ids)
pair, whose real tokens weigh its rollouts' summed advantage / (B*N) and its
padding 0.  The rows run shortest first, in groups of at most
``TEACHER_ROWS`` padded to each group's longest, so rollouts of similar
length share a group.  A row whose sum is 0.0, such as a rollout that ties
its baseline, adds nothing and is dropped; a step where every rollout ties
runs no teacher-forced pass.  Since no dropped row can carry a NaN
model's NaN into the loss, the step checks the sampled log-probabilities
of the rollouts instead and raises ``TrainingError`` on a non-finite one.

``scst_batch_step`` returns the loss and each video's trace record;
``finetune_scst`` starts from the model it is given (the CLI reads it from
an XE checkpoint) and runs the step inside the training loop XE uses
(``training._fit``), with Adam at the constant learning rate
``RewardConfig.eta``; every reward reads its video's ``metrics.References``
table, built once per run under the training references' IDF.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, TrainingError
from .metrics import References, bleu4, cider_sentence, reference_tables
from .model import TransformerModel, greedy_decode, sample_decode
from .tensor import RngState
from .tokenizer import Vocabulary, decode, normalize_words
from .training import (TrainResult, TrainRunConfig, _fit, evaluate, greedy_texts,
                       teacher_forced_loss)


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
    (-sum_t log p(token_t)), in value and gradient.  Each distinct (video,
    token ids) pair is one row, weighted by its items' summed advantage (in
    float64) over the item count; a row whose sum is exactly 0.0 is dropped
    (a NaN sum stays, so a non-finite reward still reaches the loss).  The
    rows are ordered by caption length, rows of one length in order of first
    appearance, and run through ``teacher_forced_loss``: in groups of at
    most ``TEACHER_ROWS``, each padded with PAD (id 0 in every vocabulary)
    to its own longest row, under one backward that sums each video's rows'
    gradients through its encoding.  With no row left the loss is a zero
    constant, and no decoder pass runs.
    """
    if not items:
        raise ContractError("surrogate loss needs at least one rollout")
    summed = {}  # (video, token ids) -> summed advantage, in order of first appearance
    for video, ids, advantage in items:
        key = (video, tuple(ids))
        summed[key] = summed.get(key, 0.0) + advantage
    rows = sorted(((video, ids, total) for (video, ids), total in summed.items()
                   if total != 0.0), key=lambda row: len(row[1]))  # stable: ties keep their order
    if not rows:
        return T.constant(np.zeros((), dtype=model.dtype))
    weights = np.array([total for _, _, total in rows], dtype=np.float64) / len(items)
    return teacher_forced_loss(model, enc, [video for video, _, _ in rows],
                               [ids for _, ids, _ in rows], weights)


def scst_batch_step(model: TransformerModel, batch, tables, vocab: Vocabulary,
                    rc: RewardConfig, rng: RngState) -> tuple:
    """Rollouts, rewards, surrogate backward for one batch of videos, over one encoding.

    Video ``i``'s captions are scored by ``mixed_reward`` against
    ``tables[i]``.  Returns (loss value, records), one record per video in
    batch order: the dict ``finetune_scst`` writes for that video in its
    trace line.  The surrogate merges identical rollouts of a video and
    drops rows whose summed advantage is 0.0, so a NaN model, whose rollouts
    all tie their baseline, leaves it no row; a non-finite sampled
    log-probability raises ``TrainingError`` naming the video instead.
    ``loss.backward()`` runs once per step, with or without rows.
    Gradients accumulate in the model's parameter buffers, which the
    previous Adam step left zero.
    """
    records = []
    items = []
    enc = model.encode([(sample.frames, sample.audio) for sample in batch])
    for video, (sample, refs) in enumerate(zip(batch, tables)):
        base_ids = greedy_decode(model, enc, video, vocab.bos_id, vocab.eos_id)
        r_base = mixed_reward(normalize_words(decode(base_ids, vocab)), refs)
        sampled = sample_decode(model, enc, video, vocab.bos_id, vocab.eos_id, rc.n_samples, rng)
        if not all(math.isfinite(lp) for _, logps in sampled for lp in logps):
            raise TrainingError(f"non-finite rollout log-probability for video {sample.id}")
        rollouts = [ids for ids, _ in sampled]
        rewards = [mixed_reward(normalize_words(decode(ids, vocab)), refs) for ids in rollouts]
        advantages = [r - r_base for r in rewards]
        items += [(video, ids, a) for ids, a in zip(rollouts, advantages)]
        records.append({"id": sample.id, "baseline_reward": r_base,
                        "sample_rewards": rewards, "advantages": advantages,
                        "baseline_length": len(base_ids) - 1,
                        "sample_lengths": [len(ids) - 1 for ids in rollouts],
                        "truncated": sum(ids[-1] != vocab.eos_id for ids in rollouts)})

    loss = scst_surrogate_loss(model, enc, items)
    loss.backward()
    return loss.item(), records


def validation_mixed_reward(model: TransformerModel, samples, vocab: Vocabulary,
                            tables) -> float:
    """Mean mixed reward of greedy captions over a validation set, against ``tables``."""
    texts = greedy_texts(model, samples, vocab)
    return statistics.fmean(mixed_reward(normalize_words(text), refs)
                            for text, refs in zip(texts, tables))


def finetune_scst(model: TransformerModel, vocab: Vocabulary, train_samples, val_samples,
                  rc: RewardConfig, run: TrainRunConfig, out_dir, trace_path=None) -> TrainResult:
    """SCST finetuning of ``model`` at constant learning rate ``rc.eta``, into ``out_dir``.

    Each training video's reward table, under the training references' IDF,
    and each validation video's report table, under the validation
    references' own, is built once, before the first step.  Validation rows
    add the mean validation mixed reward and the mean advantage of the steps
    since the previous row.  ``trace_path`` receives one JSON line per step,
    ``{"step": s, "videos": [...]}``, with one record per video of the
    batch, in batch order, holding these keys in this order: ``id``;
    ``baseline_reward`` and ``sample_rewards``, the mixed rewards of the
    greedy baseline and of each rollout; ``advantages``, each rollout's
    reward minus the baseline's; ``baseline_length`` and ``sample_lengths``,
    the tokens each emitted, BOS excluded; ``truncated``, the rollouts cut
    at l_max+2 tokens without EOS.  The trace's directory is made, with its
    parents, when the file is opened, so a trace may lie in ``out_dir``.
    """
    train_tables = reference_tables(s.captions for s in train_samples)
    val_rewards = reference_tables((s.captions for s in val_samples), train_tables[0].idf)
    val_tables = reference_tables(s.captions for s in val_samples)
    rng = RngState(run.seed).derive("scst")
    sample_rng = rng.derive("rollouts")
    advantage_window = []
    if trace_path:
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)

    with open(trace_path, "w", encoding="utf-8") if trace_path \
            else contextlib.nullcontext() as trace_fh:
        def step_fn(indices, step: int) -> float:
            loss, records = scst_batch_step(model, [train_samples[i] for i in indices],
                                            [train_tables[i] for i in indices], vocab, rc,
                                            sample_rng)
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
                    validate_fn, run, out_dir, rng)
