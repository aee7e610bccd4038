"""Six-way intent labeling for normalized utterances.

Labels follow the dataset encoding (0..5): yes/no, alternative and wh
questions, then prohibition, requirement and strong requirement commands.
A fixed first-match rule cascade keeps the decision deterministic. ``STEPS``
gives each step its label, evidence rules and extraction routine, so the rule
is decided here only, and every fired rule leaves an evidence span.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple, Optional

from . import predicate
from .analyze import Eojeol, NormalizedUtterance, negative_imperative
from .errors import Unclassifiable
from .lexicon import ArgumentCategory, EndingKind, Lexicon


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
    # the form the argument ends in, read off that token: the -지 host's
    # form (negative-imperative, danger-conditional) or the negator-free
    # -(으)면 core (double-negation); None on every other step
    form: Optional[str] = None


class Step(NamedTuple):
    label: IntentLabel
    rules: tuple[str, ...]  # the evidence rule of each span the step leaves
    routine: str  # the Extractor method that builds the step's argument


# the cascade's steps, in the order they are tried; README's "Rule cascade"
# table follows it, and Extractor looks up each step's routine in it
STEPS: dict[str, Step] = {
    "info-seeking+wh-word": Step(IntentLabel.WH, ("info-seeking", "wh-word"), "extract_wh"),
    "info-seeking+universal-quantifier": Step(IntentLabel.WH, ("info-seeking", "universal-quantifier"), "_object_span"),
    "info-seeking": Step(IntentLabel.YES_NO, ("info-seeking",), "extract_yesno"),
    "wh-word": Step(IntentLabel.WH, ("wh-word",), "extract_wh"),
    "parallel-clauses": Step(IntentLabel.ALTERNATIVE, ("parallel-clauses", "parallel-clauses"), "extract_alternative"),
    "disjunction": Step(IntentLabel.ALTERNATIVE, ("disjunction",), "extract_alternative"),
    "polar-ending": Step(IntentLabel.YES_NO, ("polar-ending",), "extract_yesno"),
    "want-to-know": Step(IntentLabel.YES_NO, ("want-to-know",), "extract_yesno"),
    "negation-coordination": Step(IntentLabel.STRONG_REQUIREMENT, ("negation-coordination",), "_requirement"),
    "double-negation": Step(IntentLabel.STRONG_REQUIREMENT, ("double-negation",), "_sr_from_double_negation"),
    "negative-imperative": Step(IntentLabel.PROHIBITION, ("negative-imperative",), "_prohibition"),
    "danger-conditional": Step(IntentLabel.PROHIBITION, ("danger-conditional",), "_prohibition"),
    "imperative-ending": Step(IntentLabel.REQUIREMENT, ("imperative-ending",), "_requirement"),
}


# tuple.__new__ skips a NamedTuple's keyword-handling constructor and its
# field count: test_records pins the field order the calls below write
_new = tuple.__new__


def _fired(
    step: str,
    *spans: tuple[int, int],
    wh: Optional[ArgumentCategory] = None,
    end: Optional[int] = None,
    form: Optional[str] = None,
) -> Classification:
    """The step that fired, with its label, one evidence span per rule, the
    token it was decided on and the form read off that token."""
    label, rules, _ = STEPS[step]
    # map builds each Evidence in C, with no comprehension frame
    evidence = tuple(map(_new, repeat(Evidence), zip(rules, spans, strict=True)))
    return _new(Classification, (label, step, wh, evidence, end, form))


class Classifier:
    """First-match rule cascade over the features ``normalize`` computed."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    def classify(self, u: NormalizedUtterance) -> Classification:
        lex = self.lexicon
        tokens = u.tokens
        if not tokens:  # every token was a name call
            raise Unclassifiable(f"no rule fires for: {u.text!r}")
        wh_hits = u.wh_hits
        last = len(tokens) - 1
        final = tokens[last]
        surface = final.surface

        ending = final.ending
        kind = ending.kind if ending is not None else None
        interrogative = kind is EndingKind.INTERROGATIVE
        imperative = kind is EndingKind.IMPERATIVE
        # a cue ends on the last token, so only one that starts with a key of
        # the cue table's gate can carry one; the last cue_length tokens decide it
        cue = None
        if surface[0] in lex.cue_starts:
            cue = lex.match_cue(tuple(map(attrgetter("surface"), tokens[-lex.cue_length :])))

        # the last token's char span; every other span is spelled where its step fires
        start = final.start
        stop = start + len(surface)

        # (1) information-seeking imperatives are treated as questions: an
        # info verb is the last token, or precedes a spaced benefactive (말해 줘)
        info_idx = None
        if surface in lex.infoverbs:
            info_idx = last
        elif (
            ending is not None
            and ending.stem == predicate.BENEFACTIVE
            and last > 0
            and tokens[last - 1].surface in lex.infoverbs
        ):
            info_idx = last - 1
        if info_idx is not None:
            info = tokens[info_idx]
            verb = (info.start, info.start + len(info.surface))
            if wh_hits:
                hit = wh_hits[0]
                span = (hit.char_start, hit.char_end)
                return _fired("info-seeking+wh-word", verb, span, wh=hit.kind, end=info_idx)
            quant = self._universal_quantifier(u, exclude=info_idx)
            if quant is not None:
                span = (quant.start, quant.start + len(quant.surface))
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
            surfaces = tuple(map(attrgetter("surface"), tokens))
            # the first token with the last token's surface: itself when none repeats it
            repeat = surfaces.index(surface)
            if repeat < last:
                span = (tokens[repeat].start, tokens[repeat].start + len(surface))
                return _fired("parallel-clauses", span, (start, stop))
            if not lex.disjunction.isdisjoint(surfaces):
                t = next(t for t in tokens if t.surface in lex.disjunction)
                return _fired("disjunction", (t.start, t.start + len(t.surface)))

            # (4) plain polar question
            return _fired("polar-ending", (start + len(final.stem), stop))
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
                if i == last or (t.surface, tokens[i + 1].surface) not in lex.danger_pairs:
                    preverbal = True

        # (5) negated clause coordinated onto a positive imperative (놀지 말고)
        if malgo is not None and imperative:
            if negative_imperative(tokens, (malgo,)) is not None:
                t = tokens[malgo]
                return _fired("negation-coordination", (t.start, t.start + len(t.surface)))

        # (6) negated conditional whose consequence induces prohibition; the
        # negator may be fused onto the -면 clause (안매면). The consequence is
        # the predicate that ends at the last token; the clause's core is cut once
        core = None
        if myen is not None and lex.is_danger_predicate(tuple(map(attrgetter("surface"), tokens[-2:]))):
            core = predicate.conditional_core(tokens[myen].surface)
            required = lex.strip_preverbal(core)
            if preverbal or required != core:
                return _fired("double-negation", (start, stop), end=myen, form=required)

        # (7) negative imperative, or conditional with a danger consequence
        host = negative_imperative(tokens, ma) if ma else None
        if host is not None:
            return _fired("negative-imperative", (start, stop), end=host[0], form=host[1])
        if core is not None:
            form = predicate.negation_host(core)
            return _fired("danger-conditional", (start, stop), end=myen, form=form)

        # (8) plain imperative / request / wish
        if imperative:
            return _fired("imperative-ending", (start + len(final.stem), stop))

        raise Unclassifiable(f"no rule fires for: {u.text!r}")

    # -- helpers ---------------------------------------------------------

    def _universal_quantifier(self, u: NormalizedUtterance, exclude: int) -> Optional[Eojeol]:
        """A universal quantifier adverb with at least one noun to range over."""
        lex = self.lexicon
        quant = None
        has_noun = False
        for i, t in enumerate(u.tokens):
            if i == exclude:
                continue
            if t.stem in lex.advdet:
                quant = t
            elif t.stem and t.stem not in lex.pronouns and t.negation is None:
                has_noun = True
        return quant if (quant is not None and has_noun) else None
