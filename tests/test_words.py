"""Word and alphabet primitives against the naive string oracle."""

import copy
import pickle

import pytest

import oracles
from richwords import (
    Alphabet,
    AlphabetMismatch,
    DomainError,
    EmptyPattern,
    LengthViolation,
    PreconditionViolation,
    Word,
    factors,
    format_word_file,
    infer_alphabet_size,
    is_factor,
    iter_factors,
    lcp,
    lcs,
    ltrim,
    occ,
    parse_word_file,
    reverse,
    rtrim,
    trim,
    word,
)
from richwords.words import common_prefix_len

W1 = "123999322399932442399932255223993"


# -- construction and display ---------------------------------------------


def test_alphabet_letters_and_bounds():
    assert Alphabet(2).letters == "01"
    assert Alphabet(10).letters == "0123456789"
    assert Alphabet(36).letters.endswith("xyz")
    for size in (0, 37, 2.5, 2.0, "2", None, [2], False):
        message = f"alphabet size must be an integer in 1..36, got {size!r}"
        with pytest.raises(DomainError) as raised:
            Alphabet(size)
        assert str(raised.value) == message
        if size is not None:  # word() infers the size from None
            with pytest.raises(DomainError) as raised:
                word("0", size)
            assert str(raised.value) == message
    # a bool is an int: True is the size 1
    assert Alphabet(True) is Alphabet(1) and word("0", True).alphabet is Alphabet(1)


def test_alphabet_is_one_shared_value_per_size():
    for q in range(1, 37):
        alphabet = Alphabet(q)
        assert alphabet is Alphabet(q) and alphabet.size == q
        assert word("0", q).alphabet is alphabet and alphabet.word("").alphabet is alphabet
    assert word("0110").alphabet is Alphabet(2)
    assert parse_word_file("q=3\n012\n")[0] is Alphabet(3)
    assert parse_word_file("0110\n")[1][0].alphabet is Alphabet(2)


def test_alphabet_attributes_cannot_be_assigned():
    alphabet = Alphabet(2)
    for name, value in (("size", 3), ("letters", "012"), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(alphabet, name, value)
    for name in ("size", "letters"):
        with pytest.raises(AttributeError):
            delattr(alphabet, name)
    assert (alphabet.size, alphabet.letters) == (2, "01")


def test_copies_and_pickles_give_back_the_shared_alphabet():
    alphabet = Alphabet(3)
    w = word("0120", 3)
    clones = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for clone in clones:
        assert clone(alphabet) is alphabet
        assert clone(w) == w and clone(w).alphabet is alphabet


def test_word_validates_letters():
    assert word("0110", 2).chars == "0110"
    with pytest.raises(DomainError):
        word("012", 2)
    with pytest.raises(DomainError):
        word("0!1", 2)


@pytest.mark.parametrize("text", ["20110", "01201", "01102"])
def test_word_error_names_the_first_bad_letter(text):
    with pytest.raises(DomainError, match=r"letter '2' is not in the 2-letter alphabet"):
        word(text, 2)
    with pytest.raises(DomainError, match=r"letter '!' is not"):
        word(text.replace("2", "!") + "9", 2)


def test_word_infers_alphabet_from_max_symbol():
    assert word("0110").alphabet.size == 2
    assert word("124135").alphabet.size == 6
    assert word("").alphabet.size == 1
    assert infer_alphabet_size("01", "2") == 3


def test_word_behaves_like_a_sequence():
    w = word("0110", 2)
    assert len(w) == 4
    assert w[0].chars == "0"
    assert w[1:3].chars == "11"
    assert (w + w).chars == "01100110"
    assert word("11", 2) in w
    assert "01" in w and "00" not in w
    assert str(w) == "0110"
    assert list(w) == ["0", "1", "1", "0"]
    with pytest.raises(TypeError):
        w + 1
    for other in (1, None, b"0"):  # as with a str, a non-text operand is refused
        with pytest.raises(TypeError):
            other in w


def test_word_equality_is_content_only():
    assert word("01", 2) == word("01", 3)
    assert hash(word("01", 2)) == hash(word("01", 3))
    assert word("01", 2) != word("10", 2)


def test_cross_alphabet_operations_require_matching_sizes():
    # one check, one message, for every operation on a pair of words
    for call in (Word.__add__, lcp, lcs):
        with pytest.raises(AlphabetMismatch, match="^words over alphabets of size 2 and 3$"):
            call(word("01", 2), word("01", 3))


# -- reversal and trims ----------------------------------------------------


def test_reverse_examples():
    assert reverse(word("124135")).chars == "531421"
    assert reverse(word("")).chars == ""
    assert reverse(word("0110")).chars == "0110"


def test_reverse_involution_small(rich2):
    for s in rich2:
        w = word(s, 2)
        assert reverse(reverse(w)) == w


def test_trim_examples():
    assert trim(word("124135")).chars == "2413"
    assert ltrim(word("124135")).chars == "24135"
    assert rtrim(word("124135")).chars == "12413"


def test_trims_error_instead_of_truncating():
    with pytest.raises(LengthViolation):
        trim(word("0", 2))
    with pytest.raises(LengthViolation):
        trim(word("", 2))
    with pytest.raises(LengthViolation):
        ltrim(word("", 2))
    with pytest.raises(LengthViolation):
        rtrim(word("", 2))


def test_trim_commutes_with_one_sided_trims(rich2):
    for s in rich2:
        if len(s) < 2:
            continue
        w = word(s, 2)
        assert trim(w) == ltrim(rtrim(w)) == rtrim(ltrim(w))


# -- lcp / lcs -------------------------------------------------------------


def test_lcp_lcs_examples():
    assert lcp(word("123999"), word("1239932")).chars == "12399"
    # letters a=0, b=1, c=2, d=3 mapped to digits
    assert lcs(word("01201", 4), word("3201", 4)).chars == "201"
    assert lcp(word("01", 2), word("", 2)).chars == ""
    w = word("0101", 2)
    assert lcp(w, w) == w


def test_common_prefix_len_matches_naive_loop():
    # Every pair of binary strings up to length 6: empty, equal, and one a
    # prefix of the other included.
    strings = [s for n in range(7) for s in oracles.all_words(2, n)]
    for a in strings:
        for b in strings:
            i = 0
            while i < min(len(a), len(b)) and a[i] == b[i]:
                i += 1
            assert common_prefix_len(a, b) == i, (a, b)


def test_lcp_is_mirrored_lcs(rich2):
    words2 = [word(s, 2) for s in rich2 if len(s) <= 6]
    for u in words2[:60]:
        for v in words2[:60]:
            assert lcp(u, v) == reverse(lcs(reverse(u), reverse(v)))


# -- occurrence counting ---------------------------------------------------


def test_occ_examples():
    assert occ(word("000", 2), word("00", 2)) == 2
    assert occ(word(W1), word("999")) == 3
    assert occ(word("01", 2), word("010", 2)) == 0
    with pytest.raises(EmptyPattern):
        occ(word("01", 2), word("", 2))


def test_occ_matches_naive_scan(rich2):
    pats = ["0", "1", "00", "01", "010", "0110"]
    for s in rich2:
        if len(s) > 7:
            continue
        for p in pats:
            assert occ(word(s, 2), word(p, 2)) == oracles.occ(s, p)


# -- factors ---------------------------------------------------------------


def test_factor_examples():
    assert {f.chars for f in factors(word("01", 2))} == {"", "0", "1", "01"}
    assert is_factor(word("110101100110011"), word("001100"))
    assert is_factor(word("01", 2), word("", 2))
    assert not is_factor(word("01", 2), word("10", 2))


def test_factor_count_bound_and_oracle(rich2):
    for s in rich2:
        if len(s) > 7:
            continue
        w = word(s, 2)
        fs = {f.chars for f in factors(w)}
        assert fs == oracles.factor_set(s)
        n = len(s)
        assert len(fs) <= n * (n + 1) // 2 + 1
        assert len(list(iter_factors(w))) >= len(fs)


def test_reverse_maps_factors_onto_factors():
    w = word("0100110", 2)
    rev = {f.chars for f in factors(reverse(w))}
    assert {f.chars[::-1] for f in factors(w)} == rev


# -- word files ------------------------------------------------------------


def test_word_file_round_trip():
    ws = [word("0110", 2), word("10", 2)]
    text = format_word_file(ws)
    alphabet, back = parse_word_file(text)
    assert alphabet.size == 2
    assert back == ws


def test_word_file_skips_blank_lines():
    alphabet, ws = parse_word_file("q=2\n01\n\n  \n10\n")
    assert [w.chars for w in ws] == ["01", "10"]


def test_word_file_header_and_inference():
    alphabet, ws = parse_word_file("q=3\n01\n2\n")
    assert alphabet.size == 3 and [w.chars for w in ws] == ["01", "2"]
    alphabet, ws = parse_word_file("01\n2\n")
    assert alphabet.size == 3
    with pytest.raises(DomainError):
        parse_word_file("q=2\n012\n")
    for text in ("q=abc\n01\n", "q=\n01\n"):
        with pytest.raises(PreconditionViolation, match="bad alphabet header"):
            parse_word_file(text)
