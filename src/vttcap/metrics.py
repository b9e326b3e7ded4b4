"""Caption evaluation metrics: BLEU-4, CIDEr and CIDEr-D.

All metrics operate on word tokens produced by the shared caption
normalizer (lowercase, punctuation split), never on subword pieces.
CIDEr follows the standard TF-IDF n-gram cosine definition (n = 1..4
averaged, scaled by 10); the D variant adds count clipping and a gaussian
length penalty (sigma = 6).  BLEU-4 is the geometric mean of clipped
modified precisions times the brevity penalty; an add-one smoothed mode
exists for sentence-level rewards, evaluation reports use the exact form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ContractError

N_MAX = 4
CIDER_SIGMA = 6.0


def ngram_counts(tokens, n: int) -> Counter:
    """Sliding-window n-gram counts; shorter-than-n sequences give an empty table."""
    if not 1 <= n <= N_MAX:
        raise ContractError(f"n must be in 1..{N_MAX}, got {n}")
    tokens = list(tokens)
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def modified_precisions(candidate, refs) -> list:
    """Per-order (clipped matches, candidate total) pairs for n = 1..4."""
    out = []
    for n in range(1, N_MAX + 1):
        cand = ngram_counts(candidate, n)
        total = sum(cand.values())
        if total == 0:
            out.append((0, 0))
            continue
        max_ref = Counter()
        for ref in refs:
            for g, c in ngram_counts(ref, n).items():
                if c > max_ref[g]:
                    max_ref[g] = c
        matches = sum(min(c, max_ref[g]) for g, c in cand.items())
        out.append((matches, total))
    return out


def brevity_penalty(cand_len: int, ref_lens) -> float:
    if cand_len == 0:
        return 0.0
    # closest reference length, ties broken toward the shorter one
    r = min(ref_lens, key=lambda L: (abs(L - cand_len), L))
    if cand_len >= r:
        return 1.0
    return math.exp(1.0 - r / cand_len)


def bleu4(candidate, refs, smooth: bool = False) -> float:
    """Sentence BLEU-4.  ``smooth`` applies add-one smoothing to zero-match
    orders that do have candidate n-grams (used only in the SCST reward path)."""
    refs = list(refs)
    if not refs:
        raise ContractError("bleu4 needs at least one reference")
    candidate = list(candidate)
    if not candidate:
        return 0.0
    log_sum = 0.0
    for matches, total in modified_precisions(candidate, refs):
        if total == 0:
            return 0.0
        if matches == 0:
            if not smooth:
                return 0.0
            p = (matches + 1) / (total + 1)
        else:
            p = matches / total
        log_sum += math.log(p)
    bp = brevity_penalty(len(candidate), [len(r) for r in refs])
    return bp * math.exp(log_sum / N_MAX)


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


def _tfidf_vec(tokens, n: int, idf: IdfTable):
    vec = {g: c * idf.idf(g) for g, c in ngram_counts(tokens, n).items()}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    return vec, norm


def cider_sentence(candidate, refs, idf: IdfTable, variant: str = "plain") -> float:
    """Per-video CIDEr: 10 * mean over n of the mean per-reference cosine.

    ``variant="D"`` clips candidate weights at the reference's and applies the
    gaussian length penalty.  Zero-norm (n, ref) pairs contribute 0.
    """
    if variant not in ("plain", "D"):
        raise ContractError(f"unknown cider variant {variant!r}")
    refs = list(refs)
    if not refs:
        raise ContractError("cider needs at least one reference")
    candidate = list(candidate)
    per_n = []
    for n in range(1, N_MAX + 1):
        vc, norm_c = _tfidf_vec(candidate, n, idf)
        acc = 0.0
        for ref in refs:
            vr, norm_r = _tfidf_vec(ref, n, idf)
            if norm_c == 0.0 or norm_r == 0.0:
                continue
            if variant == "D":
                dot = sum(min(w, vr[g]) * vr[g] for g, w in vc.items() if g in vr)
                delta = len(candidate) - len(ref)
                penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA ** 2))
                acc += penalty * dot / (norm_c * norm_r)
            else:
                dot = sum(w * vr[g] for g, w in vc.items() if g in vr)
                acc += dot / (norm_c * norm_r)
        per_n.append(acc / len(refs))
    return 10.0 * sum(per_n) / N_MAX


def cider(candidates, refs_corpus, idf: IdfTable, variant: str = "plain") -> tuple:
    """Corpus CIDEr: per-video sentence scores and their mean."""
    refs_corpus = list(refs_corpus)
    if len(candidates) != len(refs_corpus):
        raise ContractError(f"{len(candidates)} candidates for "
                            f"{len(refs_corpus)} reference sets")
    scores = [cider_sentence(c, refs, idf, variant)
              for c, refs in zip(candidates, refs_corpus)]
    return (sum(scores) / len(scores) if scores else 0.0), scores


@dataclass
class MetricReport:
    """Corpus metric values."""

    bleu4: float
    cider: float
    cider_d: float

    def as_dict(self) -> dict:
        return {"bleu4": self.bleu4, "cider": self.cider, "cider_d": self.cider_d}


def score_corpus(candidates, refs_corpus) -> MetricReport:
    """Score word-token candidates against their reference sets.

    BLEU-4 is the mean of exact sentence scores; both CIDEr variants use the
    IDF statistics of ``refs_corpus`` itself.
    """
    refs_corpus = list(refs_corpus)
    idf = compute_idf(refs_corpus)
    bleus = [bleu4(c, refs) for c, refs in zip(candidates, refs_corpus)]
    c_mean, _ = cider(candidates, refs_corpus, idf, "plain")
    d_mean, _ = cider(candidates, refs_corpus, idf, "D")
    mean_bleu = sum(bleus) / len(bleus) if bleus else 0.0
    return MetricReport(bleu4=mean_bleu, cider=c_mean, cider_d=d_mean)
