"""Metric contracts plus brute-force oracle equivalence for BLEU and CIDEr.

The oracle implementations below are written straight-line from the metric
definitions (explicit dict loops, no shared helpers with the package) so
they stay independent of the code under test.
"""

import math
import random

import pytest

from vttcap.errors import ContractError
from vttcap.metrics import (References, bleu4, cider_sentence, compute_idf, ngram_counts,
                            reference_tables, score_corpus)

# ---------------------------------------------------------------------------
# oracles


def oracle_ngrams(tokens, n):
    table = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        table[g] = table.get(g, 0) + 1
    return table


def oracle_bleu4(candidate, refs, smooth=False):
    if len(candidate) == 0:
        return 0.0
    log_ps = []
    for n in (1, 2, 3, 4):
        cand = oracle_ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            return 0.0
        matches = 0
        for g, c in cand.items():
            best = 0
            for ref in refs:
                rc = oracle_ngrams(ref, n).get(g, 0)
                if rc > best:
                    best = rc
            matches += min(c, best)
        if matches == 0:
            if not smooth:
                return 0.0
            log_ps.append(math.log(1.0 / (total + 1)))
        else:
            log_ps.append(math.log(matches / total))
    c_len = len(candidate)
    best_r = None
    for ref in refs:
        if best_r is None or abs(len(ref) - c_len) < abs(best_r - c_len) or \
                (abs(len(ref) - c_len) == abs(best_r - c_len) and len(ref) < best_r):
            best_r = len(ref)
    bp = 1.0 if c_len >= best_r else math.exp(1.0 - best_r / c_len)
    return bp * math.exp(sum(log_ps) / 4.0)


def oracle_corpus_bleu4(candidates, refs_corpus):
    """Papineni et al. 2002: clipped matches, candidate n-grams, candidate
    lengths and closest reference lengths summed over the corpus first."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    c_len = 0
    r_len = 0
    for candidate, refs in zip(candidates, refs_corpus):
        for n in (1, 2, 3, 4):
            for g, c in oracle_ngrams(candidate, n).items():
                best = 0
                for ref in refs:
                    rc = oracle_ngrams(ref, n).get(g, 0)
                    if rc > best:
                        best = rc
                matches[n - 1] += min(c, best)
                totals[n - 1] += c
        c_len += len(candidate)
        best_r = None
        for ref in refs:
            if best_r is None or abs(len(ref) - len(candidate)) < abs(best_r - len(candidate)) \
                    or (abs(len(ref) - len(candidate)) == abs(best_r - len(candidate))
                        and len(ref) < best_r):
                best_r = len(ref)
        r_len += best_r
    if 0 in totals or 0 in matches:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4.0
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_p)


def oracle_idf(refs_corpus):
    df = {}
    for refs in refs_corpus:
        present = set()
        for ref in refs:
            for n in (1, 2, 3, 4):
                for g in oracle_ngrams(ref, n):
                    present.add(g)
        for g in present:
            df[g] = df.get(g, 0) + 1
    return df, len(refs_corpus)


def oracle_cider_sentence(candidate, refs, df, n_docs, variant):
    def weight(g, count):
        return count * math.log(n_docs / max(1.0, df.get(g, 0)))

    score = 0.0
    for n in (1, 2, 3, 4):
        acc = 0.0
        cvec = {g: weight(g, c) for g, c in oracle_ngrams(candidate, n).items()}
        cnorm = math.sqrt(sum(v * v for v in cvec.values()))
        for ref in refs:
            rvec = {g: weight(g, c) for g, c in oracle_ngrams(ref, n).items()}
            rnorm = math.sqrt(sum(v * v for v in rvec.values()))
            if cnorm == 0.0 or rnorm == 0.0:
                continue
            dot = 0.0
            for g, v in cvec.items():
                if g in rvec:
                    if variant == "D":
                        dot += min(v, rvec[g]) * rvec[g]
                    else:
                        dot += v * rvec[g]
            sim = dot / (cnorm * rnorm)
            if variant == "D":
                delta = len(candidate) - len(ref)
                sim *= math.exp(-(delta * delta) / 72.0)  # 2 * 6^2
            acc += sim
        score += acc / len(refs)
    return 10.0 * score / 4.0


def random_corpus(rnd, max_videos=5, max_len=8):
    words = ["cat", "dog", "sun", "red", "run", "sit", "big", "sky"]
    n_videos = rnd.randint(1, max_videos)
    refs_corpus = []
    candidates = []
    for _ in range(n_videos):
        n_refs = rnd.randint(1, 3)
        refs_corpus.append([[rnd.choice(words)
                             for _ in range(rnd.randint(1, max_len))]
                            for _ in range(n_refs)])
        if rnd.random() < 0.2:
            candidates.append(rnd.choice(refs_corpus[-1]))  # exact-match case
        else:
            candidates.append([rnd.choice(words)
                               for _ in range(rnd.randint(0, max_len))])
    return candidates, refs_corpus


# ---------------------------------------------------------------------------
# contracts


class TestNgrams:
    def test_unigram_counts(self):
        assert ngram_counts(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}

    def test_too_short(self):
        assert ngram_counts(["a", "b"], 4) == {}

    def test_overlapping(self):
        assert ngram_counts(["a", "a", "a"], 2) == {("a", "a"): 2}


def table(refs, refs_corpus=None):
    """``refs`` counted under the IDF of ``refs_corpus`` (default: ``refs`` alone)."""
    return References(refs, compute_idf(refs_corpus or [refs]))


def corpus_tables(refs_corpus):
    """One table per reference set, all under the IDF of ``refs_corpus``."""
    idf = compute_idf(refs_corpus)
    return [References(refs, idf) for refs in refs_corpus]


def sentence_bleu4(candidate, refs):
    """Exact sentence BLEU-4: corpus BLEU-4 of a one-video corpus."""
    return score_corpus([candidate], corpus_tables([refs])).bleu4


class TestBleu:
    def test_perfect_match(self):
        ref = "the cat sat on the mat".split()
        assert bleu4(ref, table([ref])) == 1.0
        assert sentence_bleu4(ref, [ref]) == 1.0

    def test_clipping_hand_case(self):
        cand = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        refs = table([ref])
        assert refs.max_counts[0][("the",)] == 2  # so 2 of the 7 "the" match
        p = [2 / 7, 1 / 7, 1 / 6, 1 / 5]  # orders 2-4 match nothing and are smoothed
        assert bleu4(cand, refs) == pytest.approx(math.exp(sum(map(math.log, p)) / 4),
                                                  abs=1e-12)

    def test_empty_candidate(self):
        assert bleu4([], table([["a", "b"]])) == 0.0
        assert sentence_bleu4([], [["a", "b"]]) == 0.0

    def test_smoothing_only_helps_zero_orders(self):
        cand = "the cat sat on a rug".split()
        ref = "the cat sat on the mat".split()
        exact = sentence_bleu4(cand, [ref])
        smoothed = bleu4(cand, table([ref]))
        assert exact == 0.0 or exact == smoothed
        assert smoothed > 0.0

    def test_reference_order_invariant(self):
        cand = "a b c d".split()
        refs = [["a", "b", "x", "y"], ["c", "d", "a", "b"]]
        assert bleu4(cand, table(refs)) == bleu4(cand, table(refs[::-1]))
        assert sentence_bleu4(cand, refs) == sentence_bleu4(cand, refs[::-1])

    def test_needs_references(self):
        with pytest.raises(ContractError):
            References([], compute_idf([[["a"]]]))


class TestIdf:
    def test_everywhere_gram_zero(self):
        refs = [[["cat", "dog"]], [["cat", "sun"]], [["cat"]]]
        idf = compute_idf(refs)
        assert idf.idf(("cat",)) == 0.0

    def test_single_doc_gram(self):
        refs = [[["cat"]], [["dog"]], [["sun"]]]
        idf = compute_idf(refs)
        assert idf.idf(("dog",)) == pytest.approx(math.log(3))

    def test_unseen_gram_max_weight(self):
        idf = compute_idf([[["cat"]], [["dog"]]])
        assert idf.idf(("zebra",)) == pytest.approx(math.log(2))

    def test_matches_brute_force(self):
        refs = [[["a", "b", "a"], ["b", "c"]], [["a", "c"]], [["c", "c", "b"]]]
        table = compute_idf(refs)
        df, n_docs = oracle_idf(refs)
        assert table.n_docs == n_docs
        assert table.df == df

    def test_empty_corpus(self):
        with pytest.raises(ContractError):
            compute_idf([])


class TestCider:
    def test_empty_candidate_zero(self):
        refs = [["a", "b", "c", "d"]]
        assert cider_sentence([], table(refs)) == (0.0, 0.0)

    def test_disjoint_exact_match_scores_ten(self):
        refs_corpus = [[["cat", "dog", "sun", "red"]], [["run", "sit", "big", "sky"]]]
        for refs in refs_corpus:
            for score in cider_sentence(refs[0], table(refs, refs_corpus)):
                assert score == pytest.approx(10.0, abs=1e-9)

    def test_all_shared_grams_score_zero(self):
        common = ["the", "cat", "sat", "mat"]
        refs_corpus = [[list(common)], [list(common)], [list(common)]]
        assert cider_sentence(list(common), table(refs_corpus[0], refs_corpus)) == (0.0, 0.0)

    def test_reference_order_invariant(self):
        refs = [["a", "b", "c", "d"], ["d", "c", "b", "a"]]
        cand = ["a", "b", "c"]
        assert cider_sentence(cand, table(refs)) == cider_sentence(cand, table(refs[::-1]))

    def test_plain_equals_d_on_exact_single_ref(self):
        refs_corpus = [[["cat", "dog", "sun", "red"]], [["run", "dog", "big", "sky"]]]
        for refs in refs_corpus:
            plain, d = cider_sentence(refs[0], table(refs, refs_corpus))
            assert plain == pytest.approx(d, abs=1e-12)
        report = score_corpus([refs[0] for refs in refs_corpus], corpus_tables(refs_corpus))
        assert report.cider == pytest.approx(report.cider_d, abs=1e-12)

    def test_monotone_under_vandalism(self):
        rnd = random.Random(4)
        for _ in range(10):
            candidates, refs_corpus = random_corpus(rnd)
            idf = compute_idf(refs_corpus)
            for cand, refs in zip(candidates, refs_corpus):
                if not cand:
                    continue
                refs_table = References(refs, idf)
                vandal = ["qqq" if w == cand[0] else w for w in cand]
                assert cider_sentence(vandal, refs_table)[1] <= \
                    cider_sentence(cand, refs_table)[1] + 1e-12
                assert bleu4(vandal, refs_table) <= bleu4(cand, refs_table) + 1e-12
                assert sentence_bleu4(vandal, refs) <= sentence_bleu4(cand, refs) + 1e-12


class TestOracleEquivalence:
    """Acceptance: >= 20 random toy corpora match brute force to 1e-9."""

    @pytest.mark.parametrize("seed", range(25))
    def test_corpus_matches_brute_force(self, seed):
        rnd = random.Random(seed)
        candidates, refs_corpus = random_corpus(rnd)
        idf = compute_idf(refs_corpus)
        df, n_docs = oracle_idf(refs_corpus)
        ciders = {"plain": [], "D": []}
        for cand, refs in zip(candidates, refs_corpus):
            assert sentence_bleu4(cand, refs) == pytest.approx(
                oracle_bleu4(cand, refs), abs=1e-9)
            refs_table = References(refs, idf)
            assert bleu4(cand, refs_table) == pytest.approx(
                oracle_bleu4(cand, refs, smooth=True), abs=1e-9)
            for variant, score in zip(("plain", "D"), cider_sentence(cand, refs_table)):
                ciders[variant].append(oracle_cider_sentence(cand, refs, df, n_docs, variant))
                assert score == pytest.approx(ciders[variant][-1], abs=1e-9)
        report = score_corpus(candidates, [References(refs, idf) for refs in refs_corpus])
        assert report.bleu4 == pytest.approx(oracle_corpus_bleu4(candidates, refs_corpus),
                                             abs=1e-9)
        assert report.cider == pytest.approx(sum(ciders["plain"]) / len(candidates), abs=1e-9)
        assert report.cider_d == pytest.approx(sum(ciders["D"]) / len(candidates), abs=1e-9)


class TestScoreCorpus:
    def test_perfect_hypotheses(self):
        refs_corpus = [[["a", "cat", "on", "mat"]], [["dog", "in", "the", "sun"]]]
        report = score_corpus([r[0] for r in refs_corpus], corpus_tables(refs_corpus))
        assert report.bleu4 == 1.0
        assert 0.0 <= report.cider <= 10.0 and 0.0 <= report.cider_d <= 10.0

    def test_bounds(self):
        rnd = random.Random(77)
        candidates, refs_corpus = random_corpus(rnd)
        report = score_corpus(candidates, corpus_tables(refs_corpus))
        assert 0.0 <= report.bleu4 <= 1.0
        assert 0.0 <= report.cider <= 10.0
        assert 0.0 <= report.cider_d <= 10.0


class TestReferenceTables:
    CAPTIONS = [["A cat, on the MAT.", "the cat"], ["Dogs  run!"]]
    WORDS = [[["a", "cat", ",", "on", "the", "mat", "."], ["the", "cat"]], [["dogs", "run", "!"]]]

    @staticmethod
    def same(a, b):
        return (a.lengths, a.max_counts, a.vectors) == (b.lengths, b.max_counts, b.vectors)

    def test_normalized_under_the_sets_own_idf(self):
        built = reference_tables(iter(self.CAPTIONS))
        idf = built[0].idf
        assert all(t.idf is idf for t in built)
        assert (idf.df, idf.n_docs) == (compute_idf(self.WORDS).df, 2)
        assert all(self.same(t, References(refs, idf)) for t, refs in zip(built, self.WORDS))

    def test_given_idf(self):
        idf = compute_idf([[["a", "cat"]], [["dogs"]], [["x"]]])
        built = reference_tables(self.CAPTIONS, idf)
        assert all(t.idf is idf for t in built)
        assert all(self.same(t, References(refs, idf)) for t, refs in zip(built, self.WORDS))
