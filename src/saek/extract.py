"""Argument phrase extraction from classified utterances.

Output phrases are extractive: content stems joined by single spaces,
nominalizer suffixes attached without a space, replacement nouns set off
by one.  The engine never invents tokens that are absent from the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import hangul
from .analyze import Analyzer, Eojeol, NegationProfile, NormalizedUtterance, negative_imperative
from .classify import Classification, IntentLabel, Negativeness, negativeness
from .errors import ExtractionFailed, OptionsNotFound, UnsupportedContraction
from .lexicon import (
    ArgumentCategory,
    EndingKind,
    Lexicon,
    WH_TO_CATEGORY,
    WhCategory,
    default_lexicon,
)


class Tense(Enum):
    PAST = "past"
    NONPAST = "nonpast"


@dataclass(frozen=True)
class Argument:
    """Nominalized argument phrase with its category tag."""

    text: str
    category: ArgumentCategory
    source_label: IntentLabel
    notes: tuple[str, ...] = ()  # extraction fallbacks worth surfacing


# vowel of a fused past syllable -> vowel of the bare stem
_CONTRACTION_VOWELS = {
    "ㅘ": "ㅗ",  # 왔 -> 오
    "ㅝ": "ㅜ",  # 줬 -> 주
    "ㅏ": "ㅏ",  # 갔 -> 가
    "ㅓ": "ㅓ",  # 섰 -> 서
    "ㅐ": "ㅐ",  # 냈 -> 내
    "ㅕ": "ㅕ",  # 켰 -> 켜
}

# lexical coda-ㅆ stems that carry no past marking
_PLAIN_SSANG_STEMS = ("있", "없")

_EMBEDDED_Q_SUFFIXES = ("는지", "은지", "인지", "을지", "ㄹ지")


def _vowel_index(letter: str) -> int:
    return hangul.VOWELS.index(letter)


class Extractor:
    """Per-label extraction rules over analyzer output."""

    def __init__(self, lexicon: Optional[Lexicon] = None, analyzer: Optional[Analyzer] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self.analyzer = analyzer if analyzer is not None else Analyzer(self.lexicon)

    # -- dispatch --------------------------------------------------------

    def extract(self, u: NormalizedUtterance, c: Classification) -> Argument:
        rules = c.rules()
        if c.label is IntentLabel.YES_NO:
            return self.extract_yesno(u.tokens)
        if c.label is IntentLabel.ALTERNATIVE:
            return self.extract_alternative(u.tokens)
        if c.label is IntentLabel.WH:
            assert c.wh is not None
            return self.extract_wh(
                u.tokens,
                c.wh,
                info="info-seeking" in rules,
                universal="universal-quantifier" in rules,
            )
        return self.extract_command(u.tokens, negativeness(c.label), u.negation)

    # -- shared helpers ---------------------------------------------------

    def _question_content(self, e: Eojeol) -> str:
        """Aggressively particle-stripped content form for question arguments."""
        if e.ending is not None:
            return e.stem
        return self.analyzer.strip_josa_all(e.surface)

    def _command_content(self, e: Eojeol) -> str:
        """Conservative form for command arguments: drop only case particles."""
        if e.ending is not None:
            return e.stem
        return self.analyzer.strip_josa_all(e.surface, droppable_only=True)

    def _droppable_in_question(self, e: Eojeol) -> bool:
        lex = self.lexicon
        stem = self._question_content(e)
        if e.is_vocative:
            return True
        if stem in lex.pronouns or e.surface in lex.pronouns:
            return True
        if e.negation == "preverbal":
            return True
        if e.ending is None and stem in lex.lightverb_stems:
            return True  # bare light verb forms (하는, 했던) carry no content
        return stem in lex.depnouns

    def _clean_parts(self, parts: list[str]) -> list[str]:
        """Drop content homographs of sentence-final endings (자, 게, 해 as
        bare nouns); the no-ending-leakage contract outranks recall here."""
        return [p for p in parts if p and p not in self.lexicon.endings]

    def _after_malgo(self, items: list[Eojeol]) -> list[Eojeol]:
        """말고 marks rejected material: only the clause after it survives."""
        cut = None
        for i, t in enumerate(items[:-1]):
            if t.negation == "malgo":
                cut = i
        return items[cut + 1 :] if cut is not None else items

    def _is_bare_noun(self, e: Eojeol) -> bool:
        return (
            e.ending is None
            and e.particle is None
            and bool(e.surface)
            and all(hangul.is_syllable(ch) for ch in e.surface)
        )

    def _tense(self, stem: str) -> Tense:
        if not stem:
            return Tense.NONPAST
        if stem.endswith(_PLAIN_SSANG_STEMS):
            return Tense.NONPAST
        last = stem[-1]
        if hangul.is_syllable(last) and hangul.decompose(last).tail == hangul.TAIL_SSANG_SIOT:
            return Tense.PAST
        return Tense.NONPAST

    # -- adnominalization --------------------------------------------------

    def adnominalize(self, stem: str, tense: Tense) -> str:
        """Adnominal (noun-modifying) form of a predicate stem.

        Nonpast attaches 는; past undoes the 았/었 contraction before
        attaching ㄴ/은.  Coda-ㅆ syllables whose vowel is outside the
        contraction table raise UnsupportedContraction.
        """
        if not stem:
            raise ExtractionFailed("empty predicate stem")
        last = stem[-1]
        if tense is Tense.NONPAST:
            if hangul.is_syllable(last) and hangul.decompose(last).tail == hangul.TAIL_RIEUL:
                return stem[:-1] + hangul.with_tail(last, hangul.TAIL_NONE) + "는"
            return stem + "는"
        # past
        if last == "했":
            return stem[:-1] + "한"
        if last in ("었", "았"):
            return self._attach_nieun(stem[:-1])
        if hangul.is_syllable(last) and hangul.decompose(last).tail == hangul.TAIL_SSANG_SIOT:
            j = hangul.decompose(last)
            vowel = hangul.VOWELS[j.vowel]
            mapped = _CONTRACTION_VOWELS.get(vowel)
            if mapped is None:
                raise UnsupportedContraction(f"no contraction rule for syllable {last!r}")
            bare = hangul.compose(
                hangul.JamoTriple(j.lead, _vowel_index(mapped), hangul.TAIL_NIEUN)
            )
            return stem[:-1] + bare
        return self._attach_nieun(stem)

    @staticmethod
    def _attach_nieun(stem: str) -> str:
        if not stem:
            raise ExtractionFailed("empty predicate stem")
        last = stem[-1]
        if hangul.is_syllable(last) and not hangul.has_batchim(last):
            return stem[:-1] + hangul.with_tail(last, hangul.TAIL_NIEUN)
        return stem + "은"

    def _adnominal_or_fallback(self, stem: str, notes: list[str]) -> str:
        try:
            return self.adnominalize(stem, self._tense(stem))
        except UnsupportedContraction:
            notes.append("contraction-fallback")
            return stem + "은"

    def _future_adnominal(self, stem: str) -> str:
        last = stem[-1]
        if not hangul.is_syllable(last):
            return stem + "을"
        tail = hangul.decompose(last).tail
        if tail == hangul.TAIL_RIEUL:
            return stem
        if tail == hangul.TAIL_NONE:
            return stem[:-1] + hangul.with_tail(last, hangul.TAIL_RIEUL)
        return stem + "을"

    # -- yes/no questions ---------------------------------------------------

    def extract_yesno(self, tokens: Sequence[Eojeol]) -> Argument:
        lex = self.lexicon
        items = [t for t in tokens if not self._droppable_in_question(t)]
        items = self._after_malgo(items)
        items = self._drop_want_cue(items)

        head = ""
        if items:
            last = items[-1]
            if last.ending is not None:
                stem = last.stem
                if last.ending.copula:
                    head = (stem + "인지") if stem else ""
                    items = items[:-1]
                elif stem in lex.lightverb_stems:
                    # the action lives in the preceding verbal noun
                    items = items[:-1]
                    if not (items and self._is_bare_noun(items[-1])):
                        head = (stem + "는지") if stem else ""
                elif not stem:
                    items = items[:-1]
                else:
                    last_ch = stem[-1]
                    if (
                        hangul.is_syllable(last_ch)
                        and hangul.decompose(last_ch).tail == hangul.TAIL_RIEUL
                    ):
                        head = stem + "지"  # future -(으)ㄹ already exposed: 마실지
                    else:
                        head = stem + "는지"
                    items = items[:-1]
            elif any(last.surface.endswith(s) for s in _EMBEDDED_Q_SUFFIXES):
                head = last.surface
                items = items[:-1]

        content = self._clean_parts([self._question_content(t) for t in items])
        parts = content + ([head] if head else []) + ["여부"]
        if len(parts) == 1:
            raise ExtractionFailed("no content left for a polar argument")
        return Argument(" ".join(parts), ArgumentCategory.WHETHER, IntentLabel.YES_NO)

    def _drop_want_cue(self, items: list[Eojeol]) -> list[Eojeol]:
        cue = self.lexicon.match_cue([t.surface for t in items])
        if cue is not None:
            return items[: len(items) - len(cue)]
        return items

    # -- alternative questions ------------------------------------------------

    def extract_alternative(self, tokens: Sequence[Eojeol]) -> Argument:
        lex = self.lexicon
        items = self._after_malgo([t for t in tokens if not t.is_vocative])
        pred_idx = [
            i
            for i, t in enumerate(items)
            if (m := lex.match_ending(t.surface)) is not None
            and m.kind is EndingKind.INTERROGATIVE
        ]
        notes: list[str] = []
        options: list[str] = []
        if len(pred_idx) >= 2:
            start = 0
            for i in pred_idx:
                options.extend(self._option_phrases(items[start:i]))
                start = i + 1
            pred = items[pred_idx[-1]]
        elif pred_idx and any(t.surface in lex.disjunction for t in items):
            pred = items[pred_idx[-1]]
            options = self._option_phrases(
                [t for t in items if t is not pred and t.surface not in lex.disjunction]
            )
        else:
            raise OptionsNotFound("no parallel clauses or disjunction marker")
        if len(options) < 2:
            raise OptionsNotFound("fewer than two option phrases")

        match = lex.match_ending(pred.surface)
        stem = pred.surface[: len(pred.surface) - len(match.surface)] if match else pred.surface
        if not stem:
            raise ExtractionFailed("empty shared predicate")
        last = stem[-1]
        if hangul.is_syllable(last) and hangul.decompose(last).tail == hangul.TAIL_RIEUL:
            adnominal = stem  # the ending strip already exposed -(으)ㄹ
        elif self._tense(stem) is Tense.PAST:
            adnominal = self._adnominal_or_fallback(stem, notes)
        else:
            adnominal = self._future_adnominal(stem)
        text = " ".join(options + ["중", adnominal, "것"])
        return Argument(text, ArgumentCategory.CHOICE, IntentLabel.ALTERNATIVE, tuple(notes))

    def _option_phrases(self, clause: list[Eojeol]) -> list[str]:
        out = []
        for t in clause:
            if self._droppable_in_question(t):
                continue
            stem = self._question_content(t)
            if stem:
                out.append(stem)
        return self._clean_parts(out)

    # -- wh questions -----------------------------------------------------------

    def extract_wh(
        self,
        tokens: Sequence[Eojeol],
        wh: WhCategory,
        info: bool = False,
        universal: bool = False,
    ) -> Argument:
        lex = self.lexicon
        category = WH_TO_CATEGORY[wh.kind]
        items = [t for t in tokens if not t.is_wh and not self._droppable_in_question(t)]
        items = self._after_malgo(items)
        if info:
            items = self._drop_info_verb(items)
        if info and universal:
            return self._object_span(items, category)

        notes: list[str] = []
        items = self._drop_want_cue(items)

        predicate: Optional[Eojeol] = None
        if items and items[-1].ending is not None:
            predicate = items[-1]
            items = items[:-1]
        elif info and items and any(
            items[-1].surface.endswith(s) for s in _EMBEDDED_Q_SUFFIXES
        ):
            predicate = items[-1]
            items = items[:-1]

        adnominal = ""
        append_noun = ""
        if predicate is not None:
            stem = predicate.stem
            if predicate.ending is None:
                # embedded question form inside an info-seeking frame
                stem = self._strip_embedded_q(predicate.surface)
            if predicate.ending is not None and predicate.ending.copula:
                append_noun = stem  # nominal predicate joins the content
            elif stem in lex.knowstems or stem in lex.lightverb_stems:
                pass  # matrix know-verbs and bare light verbs carry no content
            elif stem:
                adnominal = self._adnominal_or_fallback(stem, notes)
            elif items and self._looks_adnominal(items[-1].surface):
                # periphrastic V-는/-(으)ㄹ 거야: the real predicate sits on
                # the token before the bare ending, already adnominalized
                adnominal = items.pop().surface

        content = self._clean_parts([self._question_content(t) for t in items])
        if append_noun:
            content.append(append_noun)

        if wh.kind.value == "why":
            # reason arguments keep only the predicate; context tokens are noise
            if not adnominal:
                raise ExtractionFailed("reason question without a predicate")
            parts = [adnominal, wh.primary_noun]
        else:
            parts = content + ([adnominal] if adnominal else []) + [wh.primary_noun]
            if len(parts) == 1:
                raise ExtractionFailed("no content around the wh word")
        return Argument(" ".join(parts), category, IntentLabel.WH, tuple(notes))

    def _looks_adnominal(self, surface: str) -> bool:
        """Surface already carries the -는 or -(으)ㄹ noun-modifying suffix."""
        if not surface or surface in self.lexicon.lightverb_stems:
            return False
        if surface.endswith("는"):
            return True
        last = surface[-1]
        return hangul.is_syllable(last) and hangul.decompose(last).tail == hangul.TAIL_RIEUL

    def _strip_embedded_q(self, surface: str) -> str:
        for s in _EMBEDDED_Q_SUFFIXES:
            if surface.endswith(s) and len(surface) > len(s):
                return surface[: -len(s)]
        return surface

    def _drop_info_verb(self, items: list[Eojeol]) -> list[Eojeol]:
        lex = self.lexicon
        if items and items[-1].surface in lex.infoverbs:
            return items[:-1]
        if (
            len(items) >= 2
            and items[-1].ending is not None
            and items[-1].ending.stem == "주"
            and items[-2].surface in lex.infoverbs
        ):
            return items[:-2]
        return items

    def _object_span(self, items: list[Eojeol], category: ArgumentCategory) -> Argument:
        """Information-seeking imperatives keep their object span verbatim,
        with universal quantifier adverbs converted to determiners."""
        lex = self.lexicon
        stems: list[str] = []
        quant: Optional[str] = None
        object_pos: Optional[int] = None
        for t in items:
            stem = self._question_content(t)
            if not stem:
                continue
            if stem in lex.advdet and quant is None:
                quant = lex.advdet[stem]
                continue
            if t.particle in ("을", "를"):
                object_pos = len(stems)
            stems.append(stem)
        stems = self._clean_parts(stems)
        if not stems:
            raise ExtractionFailed("empty object span")
        if quant is not None:
            at = object_pos if object_pos is not None else len(stems) - 1
            stems.insert(at, quant)
        return Argument(" ".join(stems), category, IntentLabel.WH)

    # -- commands -------------------------------------------------------------

    def extract_command(
        self,
        tokens: Sequence[Eojeol],
        neg: Negativeness,
        profile: NegationProfile,
    ) -> Argument:
        lex = self.lexicon
        items = [
            t
            for t in tokens
            if not t.is_vocative
            and t.surface not in lex.pronouns
            and self._command_content(t) not in lex.pronouns
        ]
        if neg is Negativeness.SR:
            if profile.malgo is not None:
                # a bearer with a pronoun stem (전해) is not in items, so 말고 can be last
                if not any(t.negation == "malgo" for t in items[:-1]):
                    raise ExtractionFailed("coordination marker vanished before extraction")
                # _requirement keeps only what follows the last 말고
                return self._requirement(items, IntentLabel.STRONG_REQUIREMENT)
            return self._sr_from_double_negation(items)
        if neg is Negativeness.PH:
            if profile.suffix_ci_ma:
                return self._ph_from_negative_imperative(items)
            return self._ph_from_danger_conditional(items)
        return self._requirement(items)

    # clause trimming: everything up to the last subordinate connective goes
    def _trim_subordinate(self, items: list[Eojeol], end: int) -> list[Eojeol]:
        lex = self.lexicon
        start = 0
        for i in range(end):
            s = items[i].surface
            for conn in lex.connectives:
                if not s.endswith(conn) or len(s) <= len(conn):
                    continue
                if conn == "니까":
                    prev = s[-len(conn) - 1]
                    if hangul.is_syllable(prev) and hangul.tail_jamo(prev) == "ㅂ":
                        continue
                start = i + 1
                break
        return items[start:end]

    def _ph_from_negative_imperative(self, items: list[Eojeol]) -> Argument:
        found = negative_imperative(items)
        if found is None:
            raise ExtractionFailed("negative imperative without a -지 predicate")
        pred_idx, pred_text = found
        if not pred_text:
            raise ExtractionFailed("empty prohibited action")
        span = self._trim_subordinate(items, pred_idx)
        parts = self._clean_parts([self._command_content(t) for t in span])
        parts = parts + [pred_text, "않기"]
        return Argument(" ".join(parts), ArgumentCategory.PROHIBITION, IntentLabel.PROHIBITION)

    def _conditional_core(self, items: list[Eojeol]) -> tuple[int, str]:
        for i, t in enumerate(items[:-1]):
            s = t.surface
            if t.conditional:
                core = s[:-2] if (s.endswith("으면") and len(s) > 2) else s[:-1]
                return i, core
        raise ExtractionFailed("no conditional clause found")

    def _ph_from_danger_conditional(self, items: list[Eojeol]) -> Argument:
        idx, core = self._conditional_core(items)
        span = self._trim_subordinate(items, idx)
        parts = self._clean_parts([self._command_content(t) for t in span])
        if not core:
            raise ExtractionFailed("empty prohibited action")
        text = " ".join(parts + [core + "지", "않기"])
        return Argument(text, ArgumentCategory.PROHIBITION, IntentLabel.PROHIBITION)

    def _sr_from_double_negation(self, items: list[Eojeol]) -> Argument:
        idx, core = self._conditional_core(items)
        core = self.analyzer.strip_preverbal(core)
        span = self._trim_subordinate(items, idx)
        span = [t for t in span if t.negation != "preverbal"]
        nominal = self._nominalize_stem(core, span)
        parts = self._clean_parts([self._command_content(t) for t in span])
        if not nominal:
            raise ExtractionFailed("empty required action")
        text = " ".join(parts + [nominal]) if parts else nominal
        return Argument(text, ArgumentCategory.REQUIREMENT, IntentLabel.STRONG_REQUIREMENT)

    def _requirement(
        self, items: list[Eojeol], label: IntentLabel = IntentLabel.REQUIREMENT
    ) -> Argument:
        items = self._after_malgo(items)
        if not items:
            raise ExtractionFailed("empty required action")
        span = self._trim_subordinate(items, len(items) - 1) + [items[-1]]
        last = span[-1]
        rest = span[:-1]
        if last.ending is not None and last.ending.kind is EndingKind.IMPERATIVE:
            stem = last.stem + last.ending.stem  # 확인 + 하 for 확인해
            if stem:
                nominal = self._nominalize_stem(stem, rest)
            else:
                # the whole token was a request cue (바랍니다): nominalize the
                # remaining action, whose head is typically a verbal noun
                if not rest:
                    raise ExtractionFailed("request cue with no action span")
                nominal = self._noun_to_nominal(rest.pop())
        else:
            nominal = self._noun_to_nominal(span.pop())
            rest = span
        parts = self._clean_parts([self._command_content(t) for t in rest])
        if not nominal:
            raise ExtractionFailed("empty required action")
        return Argument(" ".join(parts + [nominal]), ArgumentCategory.REQUIREMENT, label)

    def _nominalize_stem(self, stem: str, preceding: list[Eojeol]) -> str:
        """Attach the -기 nominalizer; a bare light verb folds onto the
        preceding verbal noun (확인 + 하 -> 확인하기)."""
        if stem in self.lexicon.lightverb_stems and stem in ("하", "해", "했"):
            if (
                preceding
                and self._is_bare_noun(preceding[-1])
                and not preceding[-1].surface.endswith(("히", "게", "이", "리", "로"))
            ):
                noun = preceding.pop()
                return noun.surface + "하기"
            return "하기"
        return stem + "기"

    def _noun_to_nominal(self, token: Eojeol) -> str:
        """Requirement head without an imperative ending: bare verbal nouns
        take 하기, already-nominalized forms (-기/-길) are kept."""
        text = self._command_content(token)
        if not text:
            return ""
        if text.endswith("기를"):
            return text[:-1]
        if text.endswith("길"):
            return text[:-1] + "기"
        if text.endswith("기"):
            return text
        return text + "하기"
