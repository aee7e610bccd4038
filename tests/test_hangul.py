import unicodedata

import pytest
from hypothesis import given, strategies as st

from saek import hangul
from saek.errors import IndexOutOfRange, NotHangulSyllable


def nfd_triple(ch: str) -> tuple[int, int, int]:
    """Independent oracle: jamo indices via Unicode NFD decomposition."""
    d = unicodedata.normalize("NFD", ch)
    lead = ord(d[0]) - 0x1100
    vowel = ord(d[1]) - 0x1161
    tail = (ord(d[2]) - 0x11A7) if len(d) > 2 else 0
    return lead, vowel, tail


def test_decompose_against_nfd_oracle():
    j = hangul.decompose("한")
    assert (j.lead, j.vowel, j.tail) == nfd_triple("한")
    assert hangul.LEADS[j.lead] == "ㅎ"
    assert hangul.VOWELS[j.vowel] == "ㅏ"
    assert hangul.TAILS[j.tail] == "ㄴ"


def test_decompose_base_syllable():
    assert hangul.decompose("가") == hangul.JamoTriple(0, 0, 0)


def test_decompose_rejects_non_hangul():
    for ch in ["a", "1", "ㄱ", "ᄀ", "!", chr(0)]:
        with pytest.raises(NotHangulSyllable):
            hangul.decompose(ch)
    with pytest.raises(NotHangulSyllable):
        hangul.decompose("한국")  # single codepoint only


def test_compose_examples():
    assert hangul.compose(hangul.JamoTriple(0, 0, 0)) == "가"
    # NFC oracle for the inverse direction
    assert hangul.compose(hangul.JamoTriple(*nfd_triple("한"))) == unicodedata.normalize(
        "NFC", "한"
    )


def test_compose_index_errors():
    with pytest.raises(IndexOutOfRange):
        hangul.compose(hangul.JamoTriple(19, 0, 0))
    with pytest.raises(IndexOutOfRange):
        hangul.compose(hangul.JamoTriple(0, 21, 0))
    with pytest.raises(IndexOutOfRange):
        hangul.compose(hangul.JamoTriple(0, 0, 28))
    with pytest.raises(IndexOutOfRange):
        hangul.compose(hangul.JamoTriple(-1, 0, 0))


def test_round_trip_full_block():
    for cp in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(cp)
        assert hangul.compose(hangul.decompose(ch)) == ch


def test_round_trip_matches_nfd_everywhere():
    # spot-check the oracle across the block at a coarse stride
    for cp in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1, 97):
        ch = chr(cp)
        j = hangul.decompose(ch)
        assert (j.lead, j.vowel, j.tail) == nfd_triple(ch)


@given(st.characters())
def test_decompose_total_never_panics(ch):
    try:
        j = hangul.decompose(ch)
    except NotHangulSyllable:
        assert not (hangul.SYLLABLE_BASE <= ord(ch) <= hangul.SYLLABLE_LAST)
    else:
        assert 0 <= j.lead <= 18 and 0 <= j.vowel <= 20 and 0 <= j.tail <= 27


def test_tail_helpers():
    assert hangul.TAILS[hangul.tail("합")] == "ㅂ"
    assert hangul.TAILS[hangul.tail("하")] == ""
    assert hangul.with_tail("오", hangul.TAIL_NIEUN) == "온"
    assert hangul.with_tail("팔", hangul.TAIL_NONE) == "파"
    assert hangul.tail("달") == hangul.TAIL_RIEUL
    assert hangul.tail("하") == hangul.TAIL_NONE
    assert [hangul.tail(s) for s in ("ㄹ", "x", "", "달달")] == [-1, -1, -1, -1]
    assert hangul.tail("왔") == nfd_triple("왔")[2] == hangul.TAIL_SSANG_SIOT  # oracle shows coda ㅆ


def test_tail_is_the_decomposed_tail_of_every_syllable():
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(code)
        assert hangul.tail(ch) == hangul.decompose(ch).tail, ch
    for s in ("ㄱ", "ㄹ", "ㅏ", "a", "1", " ", "", "가나", "ㄹ지"):
        assert hangul.tail(s) == -1, s
