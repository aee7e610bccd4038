"""Predicate forms: the argument shapes rebuilt from a predicate stem.

A stem is what is left of a token once its ending is cut off (왔, 먹었,
마실).  Each function here builds one form an argument ends in, from the
stem string alone: the adnominal (온, 먹는), -는지, the -지 host, the
-(으)면 core, the -기 nominal and the frames ``중 … 것``, ``… 여부`` and
``… 않기``; no other module of the analysis spells a suffix.  Korean verbal
morphology as in Sohn, *The Korean Language* (CUP 1999).
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

# the host -지 of the long negation and of a ma/malgo negator (먹지 않기, 나가지 마)
NEGATION_HOST = "지"

# the -기 nominalizer and 하다's nominal; the stems of 하다 that fold onto the
# verbal noun before them, and the adverb endings that block the fold (조용히 해)
_NOMINALIZER, _LIGHT_NOMINAL = "기", "하기"
_FOLDING_STEMS = ("하", "해", "했")
_ADVERB_ENDINGS = ("히", "게", "이", "리", "로")


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
    """The frame ``중 … 것`` of a choice argument around the form the shared
    predicate takes: the past adnominal (온), else -(으)ㄹ, which an ㄹ-final
    stem already shows (살, 마실, 먹을)."""
    if not stem:
        raise ExtractionFailed("empty shared predicate")
    last = stem[-1]
    tail = hangul.tail(last)
    if tail == hangul.TAIL_RIEUL:
        form = stem
    elif tail == hangul.TAIL_NONE:
        form = stem[:-1] + hangul.with_tail(last, hangul.TAIL_RIEUL)
    elif is_past(stem):
        form = adnominal(stem, notes)
    else:
        form = stem + "을"
    return f"중 {form} 것"


def whether(stem: str, copula: bool = False, light: bool = False) -> str:
    """Embedded-question form: -인지 on a copula's stem (학생인지), else -는지,
    or -지 after -(으)ㄹ (마실지) on any but a light verb's stem (할는지)."""
    if copula:
        return stem + "인지"
    rieul = not light and hangul.tail(stem[-1:]) == hangul.TAIL_RIEUL
    return stem + ("지" if rieul else "는지")


def polar(parts: list[str]) -> str:
    """A yes/no argument: its content, then 여부 (밥 먹었는지 여부)."""
    return " ".join(parts + ["여부"])


def is_negation_host(surface: str) -> bool:
    """The token ends in -지, a negator's host; a bare 지 is one (지 마)."""
    return surface.endswith(NEGATION_HOST)


def negation_host(core: str) -> str:
    """The -지 host of a -(으)면 core (먹 -> 먹지, 만지 -> 만지지)."""
    return core + NEGATION_HOST


def prohibition(parts: list[str], host: str) -> str:
    """A prohibited action: its clause, the -지 ``host``, then 않기."""
    return " ".join(parts + [host, "않기"])


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


# the last syllable of a -(으)면 conditional, the analyzer's gate for the cue
CONDITIONAL = "면"


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
        return text[:-1] + _NOMINALIZER
    if text.endswith(_NOMINALIZER):
        return text
    return text + _LIGHT_NOMINAL


def stem_nominal(stem: str, light: bool, noun: str) -> tuple[str, bool]:
    """The -기 nominal of an imperative's stem (매 -> 매기), and whether it
    takes ``noun``, the bare noun before it ("" for none), along. The stem of
    the light verb 하다 (``light``: a lexicon row) is 하기, folded onto the
    noun unless that is an adverb (청소 해 -> 청소하기, 조용히 해 -> 하기)."""
    if not (light and stem in _FOLDING_STEMS):
        return stem + _NOMINALIZER, False
    if noun and not noun.endswith(_ADVERB_ENDINGS):
        return noun + _LIGHT_NOMINAL, True
    return _LIGHT_NOMINAL, False
