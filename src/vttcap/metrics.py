"""Caption evaluation metrics: BLEU-4, CIDEr and CIDEr-D.

All metrics operate on word tokens produced by the shared caption
normalizer (lowercase, punctuation split), never on subword pieces, and
read a video's references from its ``References`` table, which
``reference_tables`` alone builds from captions, once per run and set.
CIDEr is the standard TF-IDF n-gram cosine (n = 1..4 averaged, scaled by
10); the D variant adds count clipping and a gaussian length penalty
(sigma = 6), and one pass gives both.  BLEU-4 is the geometric mean of
clipped modified precisions times the brevity penalty: corpus BLEU-4 in
reports, counts and lengths summed over the corpus first (Papineni et al.
2002), and add-one smoothed sentence BLEU-4 in the SCST reward.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ContractError
from .tokenizer import normalize_words

N_MAX = 4
CIDER_SIGMA = 6.0


def ngram_counts(tokens, n: int) -> Counter:
    """Sliding-window n-gram counts; shorter-than-n sequences give an empty table."""
    if not 1 <= n <= N_MAX:
        raise ContractError(f"n must be in 1..{N_MAX}, got {n}")
    tokens = list(tokens)
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class IdfTable:
    """Per-n-gram document frequencies over a corpus of reference sets."""

    df: dict
    n_docs: int

    def idf(self, gram) -> float:
        # n-grams unseen in any reference set get the maximum weight ln(N).
        return math.log(self.n_docs / max(1.0, self.df.get(gram, 0)))


def compute_idf(refs_corpus) -> IdfTable:
    """df(g) = number of videos whose reference set contains g."""
    refs_corpus = list(refs_corpus)
    if not refs_corpus:
        raise ContractError("idf needs at least one document")
    df = {}
    for refs in refs_corpus:
        grams = set()
        for ref in refs:
            for n in range(1, N_MAX + 1):
                grams.update(ngram_counts(ref, n))
        for g in grams:
            df[g] = df.get(g, 0) + 1
    return IdfTable(df=df, n_docs=len(refs_corpus))


class References:
    """One video's word-token reference set, counted once under ``idf``: for
    each order n = 1..4, each gram's largest count in one reference
    (``max_counts[n - 1]``) and each reference's TF-IDF vector and norm
    (``vectors[n - 1]``); ``lengths`` holds the reference lengths."""

    def __init__(self, refs, idf: IdfTable):
        refs = [list(ref) for ref in refs]
        if not refs:
            raise ContractError("a reference set needs at least one reference")
        self.idf = idf
        self.lengths = [len(ref) for ref in refs]
        self.max_counts, self.vectors = [], []
        for n in range(1, N_MAX + 1):
            max_count, vectors = Counter(), []
            for counts in (ngram_counts(ref, n) for ref in refs):
                max_count |= counts  # each gram's larger count
                vec = {g: c * idf.idf(g) for g, c in counts.items()}
                vectors.append((vec, math.sqrt(sum(v * v for v in vec.values()))))
            self.max_counts.append(max_count)
            self.vectors.append(vectors)


def reference_tables(caption_sets, idf: IdfTable | None = None) -> list:
    """One ``References`` table per caption set, each caption normalized to
    word tokens, under ``idf`` when given, else under the sets' own IDF."""
    ref_sets = [[normalize_words(c) for c in captions] for captions in caption_sets]
    idf = compute_idf(ref_sets) if idf is None else idf
    return [References(refs, idf) for refs in ref_sets]


def _grams(tokens) -> list:
    """The n-gram counts of ``tokens`` for n = 1..4: a counted candidate."""
    return [ngram_counts(tokens, n) for n in range(1, N_MAX + 1)]


def _bleu_counts(grams, refs: References) -> list:
    """What corpus BLEU-4 sums over a counted candidate ``grams``: for each
    order the clipped matches and the candidate n-grams, then the candidate
    length and the closest reference length (ties go to the shorter)."""
    counts = []
    for cand, max_count in zip(grams, refs.max_counts):
        counts += [sum(min(c, max_count[g]) for g, c in cand.items()), sum(cand.values())]
    length = sum(grams[0].values())
    return counts + [length, min(refs.lengths, key=lambda r: (abs(r - length), r))]


def _bleu(counts, smooth: bool) -> float:
    """BLEU-4 from one candidate's ``_bleu_counts`` or their sum over a corpus.
    ``smooth`` adds one to both counts of a zero-match order with n-grams."""
    log_sum = 0.0
    for matches, total in zip(counts[0:-2:2], counts[1:-2:2]):
        if total == 0:
            return 0.0
        if matches == 0:
            if not smooth:
                return 0.0
            p = (matches + 1) / (total + 1)
        else:
            p = matches / total
        log_sum += math.log(p)
    cand_len, ref_len = counts[-2:]
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / N_MAX)


def bleu4(candidate, refs: References) -> float:
    """Smoothed sentence BLEU-4, the SCST reward's."""
    return _bleu(_bleu_counts(_grams(candidate), refs), smooth=True)


def _cider(grams, refs: References) -> tuple:
    """(CIDEr, CIDEr-D) of counted candidate ``grams``: 10 * mean over n of the
    mean per-reference cosine.  Zero-norm (n, ref) pairs contribute 0."""
    cand_len = sum(grams[0].values())
    per_n, per_n_d = [], []
    for cand, vectors in zip(grams, refs.vectors):
        vc = {g: c * refs.idf.idf(g) for g, c in cand.items()}
        norm_c = math.sqrt(sum(v * v for v in vc.values()))
        acc = acc_d = 0.0
        for (vr, norm_r), ref_len in zip(vectors, refs.lengths):
            if norm_c == 0.0 or norm_r == 0.0:
                continue
            acc += sum(w * vr[g] for g, w in vc.items() if g in vr) / (norm_c * norm_r)
            dot = sum(min(w, vr[g]) * vr[g] for g, w in vc.items() if g in vr)
            penalty = math.exp(-(cand_len - ref_len) ** 2 / (2.0 * CIDER_SIGMA ** 2))
            acc_d += penalty * dot / (norm_c * norm_r)
        per_n.append(acc / len(vectors))
        per_n_d.append(acc_d / len(vectors))
    return 10.0 * sum(per_n) / N_MAX, 10.0 * sum(per_n_d) / N_MAX


def cider_sentence(candidate, refs: References) -> tuple:
    """Per-video (CIDEr, CIDEr-D) of word-token ``candidate``."""
    return _cider(_grams(candidate), refs)


@dataclass
class MetricReport:
    """Corpus metric values."""

    bleu4: float
    cider: float
    cider_d: float

    def as_dict(self) -> dict:
        return {"bleu4": self.bleu4, "cider": self.cider, "cider_d": self.cider_d}


def score_corpus(candidates, tables) -> MetricReport:
    """Corpus BLEU-4 and mean CIDEr and CIDEr-D of word-token ``candidates``
    against their ``tables``, counting each candidate's n-grams once for all three."""
    sums, ciders = [0] * (2 * N_MAX + 2), []
    for candidate, table in zip(candidates, tables, strict=True):
        grams = _grams(candidate)
        sums = [a + b for a, b in zip(sums, _bleu_counts(grams, table))]
        ciders.append(_cider(grams, table))
    plain, d = zip(*ciders)
    return MetricReport(_bleu(sums, smooth=False), sum(plain) / len(plain), sum(d) / len(d))
