"""Unicode Hangul syllable arithmetic.

Precomposed syllables (U+AC00..U+D7A3) factor as
``0xAC00 + (lead * 21 + vowel) * 28 + tail``.  Only modern precomposed
syllables are handled; compatibility jamo and archaic blocks are rejected.
Callers are expected to pass NFC text.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IndexOutOfRange, NotHangulSyllable

SYLLABLE_BASE = 0xAC00
SYLLABLE_LAST = 0xD7A3

LEADS = [
    "ㄱ", "ㄲ", "ㄴ", "ㄷ", "ㄸ", "ㄹ", "ㅁ", "ㅂ", "ㅃ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅉ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
]
VOWELS = [
    "ㅏ", "ㅐ", "ㅑ", "ㅒ", "ㅓ", "ㅔ", "ㅕ", "ㅖ", "ㅗ", "ㅘ",
    "ㅙ", "ㅚ", "ㅛ", "ㅜ", "ㅝ", "ㅞ", "ㅟ", "ㅠ", "ㅡ", "ㅢ", "ㅣ",
]
# index 0 = no final consonant
TAILS = [
    "", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ",
    "ㄻ", "ㄼ", "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
]

TAIL_NONE = 0
TAIL_RIEUL = TAILS.index("ㄹ")
TAIL_NIEUN = TAILS.index("ㄴ")
TAIL_SSANG_SIOT = TAILS.index("ㅆ")


class JamoTriple(NamedTuple):
    """Lead / vowel / tail indices of one precomposed syllable."""

    lead: int
    vowel: int
    tail: int


def is_syllable(ch: str) -> bool:
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


_FIRST, _LAST = chr(SYLLABLE_BASE), chr(SYLLABLE_LAST)


def all_syllables(s: str) -> bool:
    """Whether ``s`` is non-empty and every character of it a precomposed
    syllable: its smallest and largest code points fall in the block."""
    return s != "" and _FIRST <= min(s) and max(s) <= _LAST


def decompose(ch: str) -> JamoTriple:
    """Split a precomposed syllable into its jamo indices."""
    if not is_syllable(ch):
        raise NotHangulSyllable(f"not a precomposed Hangul syllable: {ch!r}")
    offset = ord(ch) - SYLLABLE_BASE
    lead, rest = divmod(offset, 21 * 28)
    vowel, tail = divmod(rest, 28)
    return JamoTriple(lead, vowel, tail)


def compose(j: JamoTriple) -> str:
    """Exact inverse of :func:`decompose`."""
    if not (0 <= j.lead < len(LEADS)):
        raise IndexOutOfRange(f"lead index {j.lead} outside 0..{len(LEADS) - 1}")
    if not (0 <= j.vowel < len(VOWELS)):
        raise IndexOutOfRange(f"vowel index {j.vowel} outside 0..{len(VOWELS) - 1}")
    if not (0 <= j.tail < len(TAILS)):
        raise IndexOutOfRange(f"tail index {j.tail} outside 0..{len(TAILS) - 1}")
    return chr(SYLLABLE_BASE + (j.lead * 21 + j.vowel) * 28 + j.tail)


def tail(ch: str) -> int:
    """Tail index of a syllable (TAIL_NONE when open); -1 for any other string."""
    if len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST:
        return (ord(ch) - SYLLABLE_BASE) % 28
    return -1


def with_tail(ch: str, tail_index: int) -> str:
    """Replace the final consonant of a syllable."""
    j = decompose(ch)
    return compose(JamoTriple(j.lead, j.vowel, tail_index))
