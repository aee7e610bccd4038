"""Predicate forms: the argument shapes rebuilt from a predicate stem.

A stem is what is left of a token once its ending is cut off (왔, 먹었,
마실).  Each function here builds one form an argument ends in, from the
stem string alone: the adnominal (온, 먹는), the form ``중 … 것`` takes,
-는지, the -(으)면 core and the -기 nominal.  Korean verbal morphology as in
Sohn, *The Korean Language* (CUP 1999).
"""

from __future__ import annotations

from typing import Optional

from . import hangul
from .errors import ExtractionFailed

# vowel of a fused past syllable -> vowel of the bare stem
_CONTRACTION_VOWELS = {
    "ㅘ": "ㅗ",  # 왔 -> 오
    "ㅝ": "ㅜ",  # 줬 -> 주
    "ㅙ": "ㅚ",  # 됐 -> 되
    "ㅏ": "ㅏ",  # 갔 -> 가
    "ㅓ": "ㅓ",  # 섰 -> 서
    "ㅐ": "ㅐ",  # 냈 -> 내
    "ㅕ": "ㅕ",  # 켰 -> 켜
}

# lexical coda-ㅆ stems that carry no past marking
_PLAIN_SSANG_STEMS = ("있", "없")

_EMBEDDED_Q_SUFFIXES = ("는지", "은지", "인지", "을지")


def is_past(stem: str) -> bool:
    """True iff the stem ends in a past-marked coda-ㅆ syllable."""
    return not stem.endswith(_PLAIN_SSANG_STEMS) and hangul.tail(stem[-1:]) == hangul.TAIL_SSANG_SIOT


def adnominal(stem: str, notes: list[str]) -> str:
    """Adnominal (noun-modifying) form of a predicate stem.

    Nonpast attaches 는 (an ㄹ coda drops: 팔 -> 파는); past undoes the 았/었
    contraction before attaching ㄴ/은 (왔 -> 온, 먹었 -> 먹은).  A fused past
    vowel outside the contraction table appends ``contraction-fallback`` to
    ``notes`` and attaches 은 to the whole stem.
    """
    if not stem:
        raise ExtractionFailed("empty predicate stem")
    last = stem[-1]
    if not is_past(stem):
        if hangul.tail(last) == hangul.TAIL_RIEUL:
            return stem[:-1] + hangul.with_tail(last, hangul.TAIL_NONE) + "는"
        return stem + "는"
    if last == "했":
        return stem[:-1] + "한"
    if last in ("었", "았"):
        bare = stem[:-1]
        if not bare:
            raise ExtractionFailed("empty predicate stem")
        if hangul.tail(bare[-1]) == hangul.TAIL_NONE:
            return bare[:-1] + hangul.with_tail(bare[-1], hangul.TAIL_NIEUN)
        return bare + "은"
    j = hangul.decompose(last)
    mapped = _CONTRACTION_VOWELS.get(hangul.VOWELS[j.vowel])
    if mapped is None:
        notes.append("contraction-fallback")
        return stem + "은"
    return stem[:-1] + hangul.compose(
        hangul.JamoTriple(j.lead, hangul.VOWELS.index(mapped), hangul.TAIL_NIEUN)
    )


def choice(stem: str, notes: list[str]) -> str:
    """The form ``중 … 것`` takes: the past adnominal (온), else -(으)ㄹ,
    which an ㄹ-final stem already shows (살, 마실, 먹을)."""
    if not stem:
        raise ExtractionFailed("empty shared predicate")
    last = stem[-1]
    tail = hangul.tail(last)
    if tail == hangul.TAIL_RIEUL:
        return stem
    if tail == hangul.TAIL_NONE:
        return stem[:-1] + hangul.with_tail(last, hangul.TAIL_RIEUL)
    if is_past(stem):
        return adnominal(stem, notes)
    return stem + "을"


def whether(stem: str) -> str:
    """Embedded-question form: -는지, or -지 after -(으)ㄹ (마실지)."""
    return stem + ("지" if hangul.tail(stem[-1:]) == hangul.TAIL_RIEUL else "는지")


def embedded_question_stem(surface: str) -> Optional[str]:
    """The stem before an embedded-question suffix (가는지 -> 가), the surface
    itself when it is only the suffix, and None when it ends in none.

    After an open stem the suffix -ㄹ지 fuses its ㄹ onto the stem's last
    syllable (갈지 -> 가), so it shows as an ㄹ coda before 지; 을지 is
    tested first (먹을지 -> 먹)."""
    for s in _EMBEDDED_Q_SUFFIXES:
        if surface.endswith(s):
            return surface[: -len(s)] or surface
    if surface.endswith("지") and hangul.tail(surface[-2:-1]) == hangul.TAIL_RIEUL:
        return surface[:-2] + hangul.with_tail(surface[-2], hangul.TAIL_NONE)
    return None


def looks_adnominal(surface: str) -> bool:
    """Surface already carries the -는 or -(으)ㄹ noun-modifying suffix."""
    return surface.endswith("는") or hangul.tail(surface[-1:]) == hangul.TAIL_RIEUL


def conditional_core(surface: str) -> str:
    """A -(으)면 conditional token without -(으)면 (먹으면 -> 먹, 안매면 -> 안매)."""
    return surface[:-2] if surface.endswith("으면") and len(surface) > 2 else surface[:-1]


def nominal(text: str) -> str:
    """Requirement head without an imperative ending, from its content: a
    bare verbal noun takes 하기, a nominalized form (-기, -길, -기를) keeps -기."""
    if not text:
        raise ExtractionFailed("empty required action")
    if text.endswith("기를"):
        return text[:-1]
    if text.endswith("길"):
        return text[:-1] + "기"
    if text.endswith("기"):
        return text
    return text + "하기"
