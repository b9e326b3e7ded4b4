"""Self-critical sequence training: sampled rollouts against a greedy baseline.

Each step encodes its batch of videos without a graph, ``GREEDY_CHUNK``
videos per encoder pass (``training.encodings``); from that encoding it
greedy-decodes a baseline caption per video, draws ``n_samples`` rollouts
from the model's own distribution (temperature 1), scores both with one
fixed reward, sentence CIDEr-D plus smoothed sentence BLEU-4
(``mixed_reward``) against the video's own reference table, and minimizes

    -(1/(B*N)) * sum_videos sum_samples (r(sample) - r(baseline)) * sum_t log p(token_t)

so samples beating the baseline are reinforced and the rest suppressed.
Rewards are constants in the surrogate; gradient flows only through the
token log-probabilities of the sampled captions, which the surrogate
recomputes teacher-forced.  Identical rollouts of one video share their
log-probabilities, so it holds one row per distinct (video, token ids)
pair, whose real tokens weigh its rollouts' summed advantage / (B*N) and
its padding 0.  The rows run shortest first, so rollouts of similar length
share a chunk, through ``training.backward_in_chunks``: ``TEACHER_ROWS``
rows per chunk, each chunk encoding its distinct videos with grad and
running its own backward, so a step's memory does not grow with its batch.
A row whose sum is 0.0, such as a rollout that ties its baseline, adds
nothing and is dropped; a step where every rollout ties runs no
teacher-forced pass and no backward.  Since no dropped row can carry a NaN
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

from .errors import ContractError, TrainingError
from .metrics import References, bleu4, cider_sentence, reference_tables
from .model import TransformerModel, greedy_decode, sample_decode
from .tensor import RngState
from .tokenizer import Vocabulary, decode, normalize_words
from .training import (TrainResult, TrainRunConfig, _fit, backward_in_chunks, encodings,
                       evaluate, greedy_texts)


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


def scst_surrogate_loss(model: TransformerModel, samples, items) -> float:
    """Forward and backward of the differentiable surrogate with frozen advantages.

    ``items`` holds (video, token ids, advantage) triples, ``video`` an index
    into ``samples``; the loss is the mean over items of advantage *
    (-sum_t log p(token_t)), in value and gradient.  Each distinct (video,
    token ids) pair is one row, weighted by its items' summed advantage (in
    float64) over the item count; a row whose sum is exactly 0.0 is dropped
    (a NaN sum stays, so a non-finite reward still reaches the loss).  The
    rows are ordered by caption length, rows of one length in order of first
    appearance, and run through ``backward_in_chunks``: ``TEACHER_ROWS`` rows
    per graph, each padded with PAD (id 0 in every vocabulary) to its own
    longest row and freed by its backward before the next is built.  Returns
    the summed value; with no row left it is 0.0, and no pass runs.
    """
    if not items:
        raise ContractError("surrogate loss needs at least one rollout")
    summed = {}  # (video, token ids) -> summed advantage, in order of first appearance
    for video, ids, advantage in items:
        key = (video, tuple(ids))
        summed[key] = summed.get(key, 0.0) + advantage
    rows = sorted(((video, ids, total) for (video, ids), total in summed.items()
                   if total != 0.0), key=lambda row: len(row[1]))  # stable: ties keep their order
    weights = np.array([total for _, _, total in rows], dtype=np.float64) / len(items)
    return backward_in_chunks(model, samples, [(video, ids) for video, ids, _ in rows], weights)


def scst_batch_step(model: TransformerModel, batch, tables, vocab: Vocabulary,
                    rc: RewardConfig, rng: RngState) -> tuple:
    """Rollouts, rewards, surrogate forward and backward for one batch of videos.

    Video ``i``'s captions are scored by ``mixed_reward`` against
    ``tables[i]``.  Returns (loss value, records), one record per video in
    batch order: the dict ``finetune_scst`` writes for that video in its
    trace line.  The surrogate merges identical rollouts of a video and
    drops rows whose summed advantage is 0.0, so a NaN model, whose rollouts
    all tie their baseline, leaves it no row; a non-finite sampled
    log-probability raises ``TrainingError`` naming the video instead.
    ``scst_surrogate_loss`` runs one backward per chunk of rows, none
    without rows.  Gradients accumulate in the model's parameter buffers,
    which the previous Adam step left zero.
    """
    records = []
    items = []
    for video, ((enc, row), sample, refs) in enumerate(zip(encodings(model, batch), batch, tables)):
        base_ids = greedy_decode(model, enc, row, vocab.bos_id, vocab.eos_id)
        r_base = mixed_reward(normalize_words(decode(base_ids, vocab)), refs)
        sampled = sample_decode(model, enc, row, vocab.bos_id, vocab.eos_id, rc.n_samples, rng)
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
    return scst_surrogate_loss(model, batch, items), records


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
