"""Six-way intent labeling for normalized utterances.

Labels follow the dataset encoding (0..5): yes/no, alternative and wh
questions, then prohibition, requirement and strong requirement commands.
A fixed first-match rule cascade keeps the decision deterministic; ``STEPS``
gives each step its label and evidence rules, every fired rule leaves an
evidence span for explainability, and the step that fired picks the
extraction routine, so the rule is decided here only.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Optional

from . import predicate
from .analyze import NormalizedUtterance, negative_imperative
from .errors import Unclassifiable
from .lexicon import ArgumentCategory, EndingKind, Lexicon, default_lexicon


class IntentLabel(IntEnum):
    YES_NO = 0
    ALTERNATIVE = 1
    WH = 2
    PROHIBITION = 3
    REQUIREMENT = 4
    STRONG_REQUIREMENT = 5


class Evidence(NamedTuple):
    rule: str
    span: Optional[tuple[int, int]]  # char span in NormalizedUtterance.text; None: a note


class Classification(NamedTuple):
    label: IntentLabel
    step: str  # the cascade step that fired; it picks the extraction routine
    wh: Optional[ArgumentCategory] = None  # present exactly when label == WH
    evidence: tuple[Evidence, ...] = ()
    # index into NormalizedUtterance.tokens of the token the step was decided
    # on, which the argument's material ends before: the info verb, the -지
    # host of a negative imperative or the -(으)면 clause (None: no such token)
    end: Optional[int] = None


# the cascade's steps, in the order they are tried: step -> (label, the
# evidence rule of each span the step leaves); README's "Rule cascade" table
# and Extractor.extract's routines follow it
STEPS: dict[str, tuple[IntentLabel, tuple[str, ...]]] = {
    "info-seeking+wh-word": (IntentLabel.WH, ("info-seeking", "wh-word")),
    "info-seeking+universal-quantifier": (IntentLabel.WH, ("info-seeking", "universal-quantifier")),
    "info-seeking": (IntentLabel.YES_NO, ("info-seeking",)),
    "wh-word": (IntentLabel.WH, ("wh-word",)),
    "parallel-clauses": (IntentLabel.ALTERNATIVE, ("parallel-clauses", "parallel-clauses")),
    "disjunction": (IntentLabel.ALTERNATIVE, ("disjunction",)),
    "polar-ending": (IntentLabel.YES_NO, ("polar-ending",)),
    "want-to-know": (IntentLabel.YES_NO, ("want-to-know",)),
    "negation-coordination": (IntentLabel.STRONG_REQUIREMENT, ("negation-coordination",)),
    "double-negation": (IntentLabel.STRONG_REQUIREMENT, ("double-negation",)),
    "negative-imperative": (IntentLabel.PROHIBITION, ("negative-imperative",)),
    "danger-conditional": (IntentLabel.PROHIBITION, ("danger-conditional",)),
    "imperative-ending": (IntentLabel.REQUIREMENT, ("imperative-ending",)),
}


# tuple.__new__ skips a NamedTuple's keyword-handling constructor and its
# field count: test_records pins the field order the calls below write
_new = tuple.__new__


def _fired(
    step: str,
    *spans: tuple[int, int],
    wh: Optional[ArgumentCategory] = None,
    end: Optional[int] = None,
) -> Classification:
    """The step that fired, with its label, one evidence span per rule and
    the token it was decided on."""
    label, rules = STEPS[step]
    evidence = tuple([_new(Evidence, pair) for pair in zip(rules, spans, strict=True)])
    return _new(Classification, (label, step, wh, evidence, end))


class Classifier:
    """First-match rule cascade over the features ``normalize`` computed."""

    def __init__(self, lexicon: Optional[Lexicon] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()

    def classify(self, u: NormalizedUtterance) -> Classification:
        lex = self.lexicon
        tokens = u.tokens
        if not tokens:  # every token was a name call
            raise Unclassifiable(f"no rule fires for: {u.text!r}")
        offsets = u.offsets
        surfaces = u.surfaces
        wh_hits = u.wh_hits
        last = len(tokens) - 1

        ending = tokens[last].ending
        kind = ending.kind if ending is not None else None
        interrogative = kind is EndingKind.INTERROGATIVE
        imperative = kind is EndingKind.IMPERATIVE
        # a cue ends on the last token, so only one that starts with a key of
        # the cue table's gate can carry one; the last cue_length tokens decide it
        cue = None
        if surfaces[last][0] in lex.cue_starts:
            cue = lex.match_cue(surfaces[-lex.cue_length :])

        # the last token's char span; every other span is spelled where its step fires
        start = offsets[last]
        stop = start + len(surfaces[last])

        # (1) information-seeking imperatives are treated as questions
        info_idx = self._info_verb_index(u)
        if info_idx is not None:
            verb = (offsets[info_idx], offsets[info_idx] + len(surfaces[info_idx]))
            if wh_hits:
                hit = wh_hits[0]
                span = (hit.char_start, hit.char_end)
                return _fired("info-seeking+wh-word", verb, span, wh=hit.kind, end=info_idx)
            quant = self._universal_quantifier_index(u, exclude=info_idx)
            if quant is not None:
                span = (offsets[quant], offsets[quant] + len(surfaces[quant]))
                return _fired(
                    "info-seeking+universal-quantifier",
                    verb,
                    span,
                    wh=ArgumentCategory.MEANING,
                    end=info_idx,
                )
            return _fired("info-seeking", verb, end=info_idx)

        # (2) wh word with an interrogative or want-to-know reading
        if wh_hits and (interrogative or cue is not None):
            hit = wh_hits[0]
            return _fired("wh-word", (hit.char_start, hit.char_end), wh=hit.kind)

        # (3) parallel clauses with a repeated predicate, or explicit disjunction
        if interrogative:
            # the first token with the last token's surface: itself when none repeats it
            repeat = surfaces.index(surfaces[last])
            if repeat < last:
                span = (offsets[repeat], offsets[repeat] + len(surfaces[repeat]))
                return _fired("parallel-clauses", span, (start, stop))
            if not lex.disjunction.isdisjoint(surfaces):
                i = next(i for i, s in enumerate(surfaces) if s in lex.disjunction)
                return _fired("disjunction", (offsets[i], offsets[i] + len(surfaces[i])))

            # (4) plain polar question
            return _fired("polar-ending", (start + len(tokens[last].stem), stop))
        # (4) so is a want-to-know cue without an interrogative ending
        if cue is not None:
            return _fired("want-to-know", (start, stop))

        # steps (5)-(7) read the negation and conditional tags of the cued tokens only
        malgo = myen = None  # first 말고 and first -면 token, never the last token
        ma: list[int] = []
        preverbal = False
        for i in u.cued:
            t = tokens[i]
            negation = t.negation
            if i < last:
                if malgo is None and negation == "malgo":
                    malgo = i
                if myen is None and t.conditional:
                    myen = i
            if negation == "ma":
                ma.append(i)
            # a preverbal negator counts up to the first -면 clause, and not
            # inside a danger pair (안 돼)
            elif negation == "preverbal" and (myen is None or myen == i):
                if i == last or (t.surface, surfaces[i + 1]) not in lex.danger_pairs:
                    preverbal = True

        # (5) negated clause coordinated onto a positive imperative (놀지 말고)
        if malgo is not None and imperative:
            if negative_imperative(tokens, (malgo,)) is not None:
                span = (offsets[malgo], offsets[malgo] + len(surfaces[malgo]))
                return _fired("negation-coordination", span)

        # (6) negated conditional whose consequence induces prohibition; the
        # negator may be fused onto the -면 clause (안매면). The consequence is
        # the predicate that ends at the last token.
        consequence = surfaces[-2:]
        danger = myen is not None and lex.is_danger_predicate(consequence)
        if danger and not preverbal:
            core = predicate.conditional_core(surfaces[myen])
            preverbal = lex.strip_preverbal(core) != core
        if danger and preverbal:
            return _fired("double-negation", (start, stop), end=myen)

        # (7) negative imperative, or conditional with a danger consequence
        host = negative_imperative(tokens, ma) if ma else None
        if host is not None:
            return _fired("negative-imperative", (start, stop), end=host[0])
        if danger:
            return _fired("danger-conditional", (start, stop), end=myen)

        # (8) plain imperative / request / wish
        if imperative:
            return _fired("imperative-ending", (start + len(tokens[last].stem), stop))

        raise Unclassifiable(f"no rule fires for: {u.text!r}")

    # -- helpers ---------------------------------------------------------

    def _info_verb_index(self, u: NormalizedUtterance) -> Optional[int]:
        """Index of an information-seeking verb ending on the last token, if any."""
        lex = self.lexicon
        final = len(u.tokens) - 1
        t = u.tokens[final]
        if t.surface in lex.infoverbs:
            return final
        # spaced benefactive: 말해 줘
        if (
            t.ending is not None
            and t.ending.stem == predicate.BENEFACTIVE
            and final > 0
            and u.tokens[final - 1].surface in lex.infoverbs
        ):
            return final - 1
        return None

    def _universal_quantifier_index(
        self, u: NormalizedUtterance, exclude: int
    ) -> Optional[int]:
        """A universal quantifier adverb with at least one noun to range over."""
        lex = self.lexicon
        quant = None
        has_noun = False
        for i, t in enumerate(u.tokens):
            if i == exclude:
                continue
            if t.stem in lex.advdet:
                quant = i
            elif t.stem and t.stem not in lex.pronouns and t.negation is None:
                has_noun = True
        return quant if (quant is not None and has_noun) else None
