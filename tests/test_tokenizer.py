"""WordPiece tokenizer: vocab files, builder, encode/decode roundtrips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vttcap.errors import ContractError, FormatError
from vttcap.tokenizer import (BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, SPECIAL_TOKENS,
                              UNK_TOKEN, Vocabulary, build_vocab, decode, encode,
                              load_vocab, normalize_words, save_vocab, truncate)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def piece_vocab(*pieces) -> Vocabulary:
    return Vocabulary.from_tokens(list(SPECIAL_TOKENS) + list(pieces))


class TestLoadVocab:
    def test_six_line_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_lines(path, ["[PAD]", "[UNK]", "[BOS]", "[EOS]", "un", "##aff"])
        v = load_vocab(path)
        assert len(v) == 6
        assert v.id_of["un"] == 4
        assert v.special_ids == (0, 1, 2, 3)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_lines(path, ["[PAD]", "un", "un"])
        with pytest.raises(FormatError, match="line 3"):
            load_vocab(path)

    def test_missing_specials_appended(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_lines(path, ["[PAD]", "cat"])
        v = load_vocab(path)
        assert len(v) == 5
        assert v.tokens[:2] == ["[PAD]", "cat"]
        assert {UNK_TOKEN, BOS_TOKEN, EOS_TOKEN} <= set(v.tokens[2:])

    def test_pad_off_line_zero_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_lines(path, ["cat", "[PAD]"])
        with pytest.raises(FormatError, match=r"\[PAD\]"):
            load_vocab(path)

    def test_bert_scale_file(self, tmp_path):
        # paper-scale vocabulary: 30522 lines, one token per line
        tokens = list(SPECIAL_TOKENS) + [f"tok{i}" for i in range(30522 - 4)]
        path = tmp_path / "vocab.txt"
        write_lines(path, tokens)
        v = load_vocab(path)
        assert len(v) == 30522

    def test_roundtrip_with_save(self, tmp_path):
        v = build_vocab(["the cat sat on the mat"], 40)
        path = tmp_path / "v.txt"
        save_vocab(v, path)
        again = load_vocab(path)
        assert again.tokens == v.tokens

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "v.txt"
        save_vocab(build_vocab(["the cat"], 20), path)
        before = path.read_bytes()
        broken = build_vocab(["the dog"], 20)
        broken.tokens.append(None)  # fails after the real tokens are written
        with pytest.raises(TypeError):
            save_vocab(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.txt"]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_vocab(tmp_path / "missing.txt")


class TestNormalize:
    def test_lowercase_and_punct_split(self):
        assert normalize_words("Hello, World!") == ["hello", ",", "world", "!"]

    def test_whitespace_collapse(self):
        assert normalize_words("  a \t b\nc ") == ["a", "b", "c"]

    def test_empty(self):
        assert normalize_words("") == []

    @pytest.mark.parametrize("text, words", [
        ("snake_case", ["snake", "_", "case"]),  # "_" is no letter
        ("don't", ["don", "'", "t"]),
        ("İstanbul", ["i", "\u0307", "stanbul"]),  # lowercases to i + combining dot
        ("x１２y", ["x１２y"]),  # fullwidth digits
        ("x² 2²", ["x²", "2²"]),  # superscript digits
        ("a\u00a0b\tc\nd", ["a", "b", "c", "d"]),  # NBSP, tab and newline
        ("一只猫在跑", ["一只猫在跑"]),  # a CJK run has no spaces to split on
        ("dog🐕🐕run", ["dog", "🐕", "🐕", "run"]),  # an emoji is no letter
    ])
    def test_character_classes(self, text, words):
        assert normalize_words(text) == words


class TestBuildVocab:
    def test_char_coverage(self):
        v = build_vocab(["aa"], 8)
        assert "a" in v.id_of and "##a" in v.id_of

    def test_deterministic(self):
        corpus = ["abab abab zz", "the cat"]
        assert build_vocab(corpus, 30).tokens == build_vocab(corpus, 30).tokens

    def test_frequency_ordered_merges(self):
        # «abab» x10 dominates; the single «zz» never earns a merge slot.
        corpus = ["abab"] * 10 + ["zz"]
        v = build_vocab(corpus, 12)
        assert "##b" in v.id_of
        assert "zz" not in v.id_of
        assert "##ab" in v.id_of  # first, highest-frequency merge

    def test_capacity_error(self):
        with pytest.raises(ContractError, match=r"^target_size 7 cannot hold 4 specials plus "
                                                r"6 single-character pieces$"):
            build_vocab(["abc def"], 7)

    def test_pad_is_id_zero(self):
        v = build_vocab(["xyz"], 16)
        assert v.tokens[0] == PAD_TOKEN and v.pad_id == 0


class TestEncode:
    def test_greedy_longest_match(self):
        v = piece_vocab("un", "##aff", "##able")
        ids = encode("unaffable", v)
        assert [v.tokens[i] for i in ids] == \
            [BOS_TOKEN, "un", "##aff", "##able", EOS_TOKEN]

    def test_unknown_character_word(self):
        v = piece_vocab("un")
        assert encode("qqq", v) == [v.bos_id, v.unk_id, v.eos_id]

    def test_unsegmentable_tail_is_unk(self):
        # prefix matches but the remainder cannot be covered: whole word -> UNK
        v = piece_vocab("un")
        assert encode("unx", v) == [v.bos_id, v.unk_id, v.eos_id]

    def test_empty_string(self):
        v = piece_vocab("a")
        assert encode("", v) == [v.bos_id, v.eos_id]

    def test_no_continuation_at_word_start(self):
        v = build_vocab(["abc abc ab", "cab"], 24)
        for text in ("abc cab", "ab abc", "cab ab"):
            toks = [v.tokens[i] for i in encode(text, v)]
            prev = None
            for tok in toks:
                if tok.startswith("##"):
                    assert prev not in (BOS_TOKEN, None)
                    assert not prev.startswith("[")
                prev = tok

    def test_length_bound(self):
        v = build_vocab(["abcd efg"], 30)
        text = "abcd efg abcd"
        ids = encode(text, v)
        assert len(ids) <= 2 + sum(len(w) for w in normalize_words(text))


class TestDecode:
    def test_glue_rule(self):
        v = piece_vocab("un", "##aff", "##able")
        ids = [v.bos_id, v.id_of["un"], v.id_of["##aff"], v.id_of["##able"], v.eos_id]
        assert decode(ids, v) == "unaffable"

    def test_empty_sequence(self):
        v = piece_vocab("a")
        assert decode([v.bos_id, v.eos_id], v) == ""

    def test_out_of_range(self):
        v = piece_vocab("a")
        with pytest.raises(ContractError):
            decode([0, 99], v)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=6),
                    min_size=0, max_size=6))
    def test_roundtrip_on_covered_text(self, words):
        # every single character form exists, so no word can fall to UNK
        v = piece_vocab("a", "b", "c", "d", "##a", "##b", "##c", "##d")
        text = " ".join(words)
        assert decode(encode(text, v), v) == " ".join(normalize_words(text))

    def test_roundtrip_with_built_vocab(self):
        corpus = ["the quick brown fox", "a dog and a cat", "the cat sat"]
        v = build_vocab(corpus, 64)
        for text in corpus:
            assert decode(encode(text, v), v) == text


class TestTruncate:
    def test_clips_content(self):
        v = piece_vocab("a", "b", "c")
        ids = encode("a b c", v)
        out = truncate(ids, 2, v)
        assert out == [v.bos_id, v.id_of["a"], v.id_of["b"], v.eos_id]

    def test_noop_when_short(self):
        v = piece_vocab("a")
        ids = encode("a", v)
        assert truncate(ids, 5, v) == ids
