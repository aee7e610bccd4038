"""Six-way intent labeling for normalized utterances.

Labels follow the dataset encoding (0..5): yes/no, alternative and wh
questions, then prohibition, requirement and strong requirement commands.
A fixed first-match rule cascade keeps the decision deterministic; every
fired rule leaves an evidence span for explainability.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import NamedTuple, Optional

from .analyze import NormalizedUtterance
from .errors import Unclassifiable, WrongSuperType
from .lexicon import (
    EndingKind,
    Lexicon,
    WhCategory,
    WhKind,
    default_lexicon,
)


class IntentLabel(IntEnum):
    YES_NO = 0
    ALTERNATIVE = 1
    WH = 2
    PROHIBITION = 3
    REQUIREMENT = 4
    STRONG_REQUIREMENT = 5


LABEL_NAMES = {
    IntentLabel.YES_NO: "yes_no",
    IntentLabel.ALTERNATIVE: "alternative",
    IntentLabel.WH: "wh",
    IntentLabel.PROHIBITION: "prohibition",
    IntentLabel.REQUIREMENT: "requirement",
    IntentLabel.STRONG_REQUIREMENT: "strong_requirement",
}

QUESTION_LABELS = frozenset(
    {IntentLabel.YES_NO, IntentLabel.ALTERNATIVE, IntentLabel.WH}
)
COMMAND_LABELS = frozenset(
    {IntentLabel.PROHIBITION, IntentLabel.REQUIREMENT, IntentLabel.STRONG_REQUIREMENT}
)


class QuestionType(Enum):
    YES_NO = "yes/no"
    ALTERNATIVE = "alternative"
    WH = "wh"


class Negativeness(Enum):
    PH = "prohibition"
    REQ = "requirement"
    SR = "strong requirement"


_QUESTION_TYPES = {
    IntentLabel.YES_NO: QuestionType.YES_NO,
    IntentLabel.ALTERNATIVE: QuestionType.ALTERNATIVE,
    IntentLabel.WH: QuestionType.WH,
}
_NEGATIVENESS = {
    IntentLabel.PROHIBITION: Negativeness.PH,
    IntentLabel.REQUIREMENT: Negativeness.REQ,
    IntentLabel.STRONG_REQUIREMENT: Negativeness.SR,
}


def question_type(label: IntentLabel) -> QuestionType:
    """Project a question label onto the three-way question taxonomy."""
    if label not in _QUESTION_TYPES:
        raise WrongSuperType(f"label {int(label)} is not a question")
    return _QUESTION_TYPES[label]


def negativeness(label: IntentLabel) -> Negativeness:
    """Project a command label onto the three-way negativeness taxonomy."""
    if label not in _NEGATIVENESS:
        raise WrongSuperType(f"label {int(label)} is not a command")
    return _NEGATIVENESS[label]


class Evidence(NamedTuple):
    rule: str
    span: tuple[int, int]  # char span within NormalizedUtterance.text


class Classification(NamedTuple):
    label: IntentLabel
    wh: Optional[WhCategory] = None  # present exactly when label == WH
    evidence: tuple[Evidence, ...] = ()

    def rules(self) -> set[str]:
        return {e.rule for e in self.evidence}


class Classifier:
    """First-match rule cascade over the features ``normalize`` computed."""

    def __init__(self, lexicon: Optional[Lexicon] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()

    def classify(self, u: NormalizedUtterance) -> Classification:
        lex = self.lexicon
        surfaces = u.surfaces()
        profile = u.negation
        wh_hits = u.wh_hits

        bearer_idx = next(
            (i for i, t in enumerate(u.tokens) if t.ending is not None), None
        )
        bearer = u.tokens[bearer_idx] if bearer_idx is not None else None
        cue = lex.match_cue(surfaces)

        def token_span(i: int) -> tuple[int, int]:
            start = u.offsets[i]
            return (start, start + len(surfaces[i]))

        def ending_span(i: int) -> tuple[int, int]:
            start = u.offsets[i]
            t = u.tokens[i]
            return (start + len(t.stem), start + len(t.surface))

        def wh_category(kind: WhKind) -> WhCategory:
            return lex.wh_category(kind)

        # (1) information-seeking imperatives are treated as questions
        info_idx = self._info_verb_index(u)
        if info_idx is not None:
            evidence = [Evidence("info-seeking", token_span(info_idx))]
            if wh_hits:
                hit = wh_hits[0]
                evidence.append(Evidence("wh-word", (hit.char_start, hit.char_end)))
                return Classification(IntentLabel.WH, wh_category(hit.kind), tuple(evidence))
            quant = self._universal_quantifier_index(u, exclude=info_idx)
            if quant is not None:
                evidence.append(Evidence("universal-quantifier", token_span(quant)))
                return Classification(
                    IntentLabel.WH, wh_category(WhKind.WHAT), tuple(evidence)
                )
            return Classification(IntentLabel.YES_NO, evidence=tuple(evidence))

        interrogative = (
            bearer is not None
            and bearer.ending is not None
            and bearer.ending.kind is EndingKind.INTERROGATIVE
        )
        imperative = (
            bearer is not None
            and bearer.ending is not None
            and bearer.ending.kind is EndingKind.IMPERATIVE
        )

        # (2) wh word with an interrogative or want-to-know reading
        if wh_hits and (interrogative or cue is not None):
            hit = wh_hits[0]
            return Classification(
                IntentLabel.WH,
                wh_category(hit.kind),
                (Evidence("wh-word", (hit.char_start, hit.char_end)),),
            )

        # (3) parallel clauses with a repeated predicate, or explicit disjunction
        if interrogative and bearer_idx is not None:
            repeat = next(
                (i for i in range(bearer_idx) if surfaces[i] == surfaces[bearer_idx]),
                None,
            )
            if repeat is not None:
                return Classification(
                    IntentLabel.ALTERNATIVE,
                    evidence=(
                        Evidence("parallel-clauses", token_span(repeat)),
                        Evidence("parallel-clauses", token_span(bearer_idx)),
                    ),
                )
            i = next((i for i, s in enumerate(surfaces) if s in lex.disjunction), None)
            if i is not None:
                return Classification(
                    IntentLabel.ALTERNATIVE,
                    evidence=(Evidence("disjunction", token_span(i)),),
                )

        # (4) plain polar question
        if interrogative and bearer_idx is not None:
            return Classification(
                IntentLabel.YES_NO, evidence=(Evidence("polar-ending", ending_span(bearer_idx)),)
            )
        if cue is not None:
            i = len(surfaces) - 1
            return Classification(
                IntentLabel.YES_NO, evidence=(Evidence("want-to-know", token_span(i)),)
            )

        # (5) negated clause coordinated onto a positive imperative
        if profile.malgo is not None and imperative and bearer_idx is not None:
            m = profile.malgo
            fused = u.tokens[m].fused is not None  # 놀지말고
            negated = fused or (m > 0 and surfaces[m - 1].endswith("지"))
            if negated and bearer_idx > m:
                return Classification(
                    IntentLabel.STRONG_REQUIREMENT,
                    evidence=(Evidence("negation-coordination", token_span(m)),),
                )

        # (6) negated conditional whose consequence induces prohibition
        if profile.preverbal_an and profile.conditional_myen and profile.danger_pred:
            return Classification(
                IntentLabel.STRONG_REQUIREMENT,
                evidence=(Evidence("double-negation", token_span(len(surfaces) - 1)),),
            )

        # (7) negative imperative, or conditional with a danger consequence
        if profile.suffix_ci_ma:
            return Classification(
                IntentLabel.PROHIBITION,
                evidence=(Evidence("negative-imperative", token_span(len(surfaces) - 1)),),
            )
        if profile.conditional_myen and profile.danger_pred:
            return Classification(
                IntentLabel.PROHIBITION,
                evidence=(Evidence("danger-conditional", token_span(len(surfaces) - 1)),),
            )

        # (8) plain imperative / request / wish
        if imperative and bearer_idx is not None:
            return Classification(
                IntentLabel.REQUIREMENT,
                evidence=(Evidence("imperative-ending", ending_span(bearer_idx)),),
            )

        raise Unclassifiable(f"no rule fires for: {u.text!r}")

    # -- helpers ---------------------------------------------------------

    def _info_verb_index(self, u: NormalizedUtterance) -> Optional[int]:
        """Index of a final information-seeking verb, if any."""
        lex = self.lexicon
        idx = None
        for i in range(len(u.tokens) - 1, -1, -1):
            if not u.tokens[i].is_vocative:
                idx = i
                break
        if idx is None:
            return None
        if u.tokens[idx].surface in lex.infoverbs:
            return idx
        # spaced benefactive: 말해 줘
        t = u.tokens[idx]
        if (
            t.ending is not None
            and t.ending.stem == "주"
            and idx > 0
            and u.tokens[idx - 1].surface in lex.infoverbs
        ):
            return idx - 1
        return None

    def _universal_quantifier_index(
        self, u: NormalizedUtterance, exclude: int
    ) -> Optional[int]:
        """A universal quantifier adverb with at least one noun to range over."""
        lex = self.lexicon
        quant = None
        has_noun = False
        for i, t in enumerate(u.tokens):
            if i == exclude or t.is_vocative:
                continue
            if t.stem in lex.advdet:
                quant = i
            elif t.stem and t.stem not in lex.pronouns and t.negation is None:
                has_noun = True
        return quant if (quant is not None and has_noun) else None
