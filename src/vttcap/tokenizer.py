"""WordPiece subword tokenizer: vocab loading/building, encode, decode.

Captions are normalized (lowercase; a run of letters and digits is a word,
any other non-space character a word of its own), then each word is
segmented by greedy longest-match against the vocabulary, continuation
pieces carrying the ``##`` prefix.
A small frequency-merge builder produces desk-scale vocabularies so no
pretrained vocabulary file is required.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import ContractError, FormatError
from .fileio import read_text, write_text

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
BOS_TOKEN = "[BOS]"
EOS_TOKEN = "[EOS]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)


@dataclass
class Vocabulary:
    """Ordered subword inventory; index in ``tokens`` is the token id."""

    tokens: list
    id_of: dict = field(repr=False)
    pad_id: int
    unk_id: int
    bos_id: int
    eos_id: int

    def __len__(self):
        return len(self.tokens)

    @property
    def special_ids(self):
        return (self.pad_id, self.unk_id, self.bos_id, self.eos_id)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        tokens = list(tokens)
        id_of = {}
        for i, tok in enumerate(tokens):
            if tok in id_of:
                raise FormatError(f"duplicate token {tok!r} at line {i + 1}")
            if not tok:
                raise FormatError(f"empty token at line {i + 1}")
            id_of[tok] = i
        for sp in SPECIAL_TOKENS:
            if sp not in id_of:
                id_of[sp] = len(tokens)
                tokens.append(sp)
        if id_of[PAD_TOKEN] != 0:
            raise FormatError(
                f"{PAD_TOKEN} must be the first token, found at id {id_of[PAD_TOKEN]}")
        return cls(tokens=tokens, id_of=id_of,
                   pad_id=id_of[PAD_TOKEN], unk_id=id_of[UNK_TOKEN],
                   bos_id=id_of[BOS_TOKEN], eos_id=id_of[EOS_TOKEN])


def load_vocab(path) -> Vocabulary:
    """Read a one-token-per-line UTF-8 file; line index = token id.

    Specials are matched by exact string.  ``[PAD]`` must be on the first
    line, so masks can rely on pad id 0: a non-empty file without it is
    rejected.  The other specials are appended when absent.
    """
    tokens = read_text(path).split("\n")
    while tokens and tokens[-1] == "":
        tokens.pop()
    return Vocabulary.from_tokens(tokens)


def save_vocab(vocab: Vocabulary, path) -> None:
    write_text(path, "".join(tok + "\n" for tok in vocab.tokens))


def normalize_words(text: str) -> list:
    """Lowercase, then split into words: each run of letters and digits is a
    word, and every other non-space character is a word on its own.

    The same normalizer feeds both the tokenizer and the word-level metrics.
    """
    return re.findall(r"[^\W_]+|\S", text.lower())


def _word_to_char_pieces(word: str) -> list:
    return [word[0]] + ["##" + c for c in word[1:]]


def build_vocab(corpus, target_size: int) -> Vocabulary:
    """Frequency-merge vocabulary builder for desk-scale corpora.

    Starts from the observed single-character pieces (word-start and ``##``
    continuation forms counted separately), then repeatedly merges the most
    frequent adjacent pair until ``target_size`` tokens exist.  Ties break
    lexicographically on the (left, right) pair, so the result is a pure
    function of corpus order and target size.
    """
    word_counts = Counter()
    char_forms = []
    seen_forms = set()
    for text in corpus:
        for word in normalize_words(text):
            word_counts[word] += 1
            for piece in _word_to_char_pieces(word):
                if piece not in seen_forms:
                    seen_forms.add(piece)
                    char_forms.append(piece)

    base = list(SPECIAL_TOKENS) + char_forms
    if target_size < len(base):
        raise ContractError(
            f"target_size {target_size} cannot hold {len(SPECIAL_TOKENS)} specials "
            f"plus {len(char_forms)} single-character pieces")

    vocab_tokens = list(base)
    vocab_set = set(vocab_tokens)
    segments = {w: _word_to_char_pieces(w) for w in word_counts}

    while len(vocab_tokens) < target_size:
        pair_counts = Counter()
        for word, pieces in segments.items():
            n = word_counts[word]
            for left, right in zip(pieces, pieces[1:]):
                pair_counts[(left, right)] += n
        if not pair_counts:
            break
        left, right = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        merged = left + right[2:] if right.startswith("##") else left + right
        for word, pieces in segments.items():
            segments[word] = _merge_pieces(pieces, left, right, merged)
        if merged not in vocab_set:
            vocab_tokens.append(merged)
            vocab_set.add(merged)

    return Vocabulary.from_tokens(vocab_tokens)


def _merge_pieces(pieces, left, right, merged):
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == left and pieces[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def _wordpiece(word: str, vocab: Vocabulary):
    """Greedy longest-match segmentation; None when the word cannot be covered."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab.id_of:
                match = sub
                break
            end -= 1
        if match is None:
            return None
        pieces.append(match)
        start = end
    return pieces


def encode(text: str, vocab: Vocabulary) -> list:
    """Token ids for ``text``, wrapped in BOS/EOS; unsegmentable words map to UNK."""
    ids = [vocab.bos_id]
    for word in normalize_words(text):
        pieces = _wordpiece(word, vocab)
        if pieces is None:
            ids.append(vocab.unk_id)
        else:
            ids.extend(vocab.id_of[p] for p in pieces)
    ids.append(vocab.eos_id)
    return ids


def decode(ids: list, vocab: Vocabulary) -> str:
    """Text for a token id sequence: specials stripped, ``##`` pieces glued."""
    words = []
    specials = set(vocab.special_ids)
    for i in ids:
        if not 0 <= i < len(vocab):
            raise ContractError(f"token id {i} out of range for |V|={len(vocab)}")
        if i in specials:
            continue
        tok = vocab.tokens[i]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok[2:] if tok.startswith("##") else tok)
    return " ".join(words)


def truncate(ids: list, l_max: int, vocab: Vocabulary) -> list:
    """Clip a BOS..EOS sequence to at most ``l_max`` content tokens."""
    content = [i for i in ids if i not in (vocab.bos_id, vocab.eos_id, vocab.pad_id)]
    return [vocab.bos_id] + content[:l_max] + [vocab.eos_id]
