"""Argument phrase extraction from classified utterances.

Output phrases are extractive: content stems joined by single spaces,
nominalizer suffixes attached without a space, replacement nouns set off
by one.  The engine never invents tokens that are absent from the input.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import NamedTuple, Optional, Sequence

from . import hangul, predicate
from .analyze import Eojeol, NormalizedUtterance
from .classify import STEPS, Classification
from .errors import ExtractionFailed, OptionsNotFound
from .lexicon import ArgumentCategory, Ending, EndingKind, Lexicon


class Argument(NamedTuple):
    """Nominalized argument phrase with its category tag."""

    text: str
    category: ArgumentCategory
    notes: tuple[str, ...] = ()  # extraction fallbacks worth surfacing


# the codas of a tense (먹었, 겠) or prospective ㄹ (살까, 먹을래) marker
_MARKED_TAILS = (hangul.TAIL_SSANG_SIOT, hangul.TAIL_RIEUL)

# tuple.__new__ skips a NamedTuple's keyword-handling constructor and its
# field count: test_records pins the field order each routine writes
_new = tuple.__new__


class Extractor:
    """One extraction routine per step of the classifier's rule cascade."""

    def __init__(self, lexicon: Lexicon):
        lex = self.lexicon = lexicon
        # a plain token (no particle, ending or negation) is its own content,
        # and _question_items' drop rule for it reduces to one probe of the
        # union of the tables it reads
        self._plain_droppable = lex.pronouns | lex.lightverb_stems | lex.depnouns
        # what _clean_parts drops: empty content and ending homographs
        self._unclean = frozenset({*lex.endings, ""})
        # each step's routine, looked up once: a missing one fails here
        self._routines = {step: getattr(self, s.routine) for step, s in STEPS.items()}

    # -- dispatch --------------------------------------------------------

    def extract(self, u: NormalizedUtterance, c: Classification) -> Argument:
        """Run the routine ``STEPS`` names for the step that fired, on
        ``u.tokens[u.kept : c.end]``. The step decided the rule and the token
        the argument ends before (``c.end``), which lies at or after the 말고
        cut, so no routine decides or searches again."""
        return self._routines[c.step](u, c, u.tokens[u.kept : c.end])

    # -- shared helpers ---------------------------------------------------

    def _question_items(self, tokens: Sequence[Eojeol]) -> tuple[list[Eojeol], list[str]]:
        """The tokens a question argument keeps and the content of each at
        the same index, computed once; a routine trims both lists from the
        end only. Content loses every particle, stripping on from
        normalize's split; pronouns, preverbal negators, bare light verb
        forms (하는, 했던) and dependent nouns carry none."""
        lex = self.lexicon
        plain_droppable = self._plain_droppable
        items: list[Eojeol] = []
        content: list[str] = []
        for t in tokens:
            stem = t.stem
            if t.particle is None and t.ending is None and t.negation is None:
                if stem in plain_droppable:  # a plain token: see ``_plain_droppable``
                    continue
            else:
                if t.particle is not None:
                    stem = lex.strip_josa_all(stem)
                if (
                    stem in lex.pronouns
                    or t.surface in lex.pronouns
                    or t.negation == "preverbal"
                    or (t.ending is None and stem in lex.lightverb_stems)
                    or stem in lex.depnouns
                ):
                    continue
            items.append(t)
            content.append(stem)
        return items, content

    def _clean_parts(self, parts: list[str]) -> list[str]:
        """Drop empty parts and content homographs of sentence-final endings
        (자, 게, 해 as bare nouns); the no-ending-leakage contract outranks
        recall here."""
        return list(filterfalse(self._unclean.__contains__, parts))

    def _is_bare_noun(self, e: Eojeol) -> bool:
        return e.ending is None and e.particle is None and hangul.all_syllables(e.surface)

    # -- yes/no questions ---------------------------------------------------

    def extract_yesno(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        lex = self.lexicon
        items, content = self._question_items(tokens)
        items, frame = self._drop_want_cue(items, c)

        head = ""
        if items:
            last = items[-1]
            stem, ending = last.stem, last.ending
            if ending is None and predicate.embedded_question_stem(last.surface) is not None:
                head = last.surface  # already the embedded form (먹었는지)
                items = items[:-1]
            elif ending is None and frame:
                # a finite question before the frame (먹었니 말해줘, 먹었니 궁금해)
                stem, ending = self._finite_question(last, frame)
            if ending is not None:
                copula = ending.copula
                items = items[:-1]
                # a bare light verb's action lives in the preceding verbal noun
                light = not copula and stem in lex.lightverb_stems
                if stem and not (light and items and self._is_bare_noun(items[-1])):
                    head = predicate.whether(stem, copula, light)

        parts = self._clean_parts(content[: len(items)]) + ([head] if head else [])
        if not parts:
            raise ExtractionFailed("no content left for a polar argument")
        return _new(Argument, (predicate.polar(parts), ArgumentCategory.WHETHER, ()))

    def _finite_question(self, t: Eojeol, frame: str) -> tuple[Optional[str], Optional[Ending]]:
        """The stem and the interrogative ending of ``t`` (먹었니 -> 먹었, 니),
        or (None, None); inside a frame, normalize matched the ending of the
        info verb or cue, which ends the tokens, and not this one's. An
        ending within the particle normalize split off is part of that
        particle (친구에게: 에게, not 게). Before a cue, only a stem that ends
        in a tense or ㄹ marker (먹었, 살, 먹을) is a predicate's: the last
        syllable of a noun (어머니, 노래, 가게) or of the connective 가니까
        matches an ending too. After an info verb any stem is taken
        (어머니 말해줘 is a known defect)."""
        lex = self.lexicon
        surface = t.surface
        if surface[-1] in lex.ending_ends:
            m = lex.match_ending(surface)
            if (
                m is not None
                and m.kind is EndingKind.INTERROGATIVE
                and len(m.surface) > len(t.particle or "")
            ):
                stem = surface[: len(surface) - len(m.surface)]
                if frame == "verb" or hangul.tail(stem[-1:]) in _MARKED_TAILS:
                    return stem, m
        return None, None

    def _drop_want_cue(
        self, items: list[Eojeol], c: Classification
    ) -> tuple[list[Eojeol], Optional[str]]:
        """``items`` without a want-to-know cue at the end, and the frame
        that ends them: "verb" for the info verb of ``c.end``, "cue" for a
        dropped cue, None for neither. A frame asks for the question before
        it (먹었니 말해줘, 먹었니 궁금해)."""
        lex = self.lexicon
        frame = None if c.end is None else "verb"
        # only a last item that starts with a key of the cue table's gate can
        # end a cue; a cue is matched at the end, so the last cue_length
        # items decide it
        if items and items[-1].surface[0] in lex.cue_starts:
            cue = lex.match_cue([t.surface for t in items[-lex.cue_length :]])
            if cue is not None:
                return items[: len(items) - len(cue)], frame or "cue"
        return items, frame

    # -- alternative questions ------------------------------------------------

    def extract_alternative(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        """Both alternative steps fire on the last token's interrogative
        ending, so the last token is the shared predicate."""
        lex = self.lexicon
        # the index of each interrogative predicate: parallel clauses repeat
        # the last token, and a token that ends in no ending's last
        # character matches no ending
        final = tokens[-1]
        preds = []
        for i, t in enumerate(tokens):
            if t.surface == final.surface:
                preds.append(i)
            elif t.surface[-1] in lex.ending_ends:
                m = lex.match_ending(t.surface)
                if m is not None and m.kind is EndingKind.INTERROGATIVE:
                    preds.append(i)
        notes: list[str] = []
        options: list[str] = []
        if len(preds) >= 2:
            start = 0
            for i in preds:
                options.extend(self._option_phrases(tokens[start:i]))
                start = i + 1
        elif any(t.surface in lex.disjunction for t in tokens):
            options = self._option_phrases(tokens[:-1])
        else:
            raise OptionsNotFound("no parallel clauses or disjunction marker")
        if len(options) < 2:
            raise OptionsNotFound("fewer than two option phrases")

        text = " ".join(options + [predicate.choice(final.stem, notes)])
        return _new(Argument, (text, ArgumentCategory.CHOICE, tuple(notes)))

    def _option_phrases(self, clause: Sequence[Eojeol]) -> list[str]:
        """Option content of a clause, kept as a question argument keeps it;
        the disjunction (아니면) is no option. ``extract`` has cut the
        material before the last 말고 from the clauses."""
        disjunction = self.lexicon.disjunction
        items, content = self._question_items(clause)
        return self._clean_parts(
            [c for t, c in zip(items, content) if t.surface not in disjunction]
        )

    # -- wh questions -----------------------------------------------------------

    def extract_wh(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        """The tokens of every wh hit go. An info verb (the token ``c.end``
        that ends ``tokens``) or a want-to-know cue at the end frames the
        material before it."""
        lex = self.lexicon
        wh_tokens = {i for h in u.wh_hits for i in range(h.token_start, h.token_end)}
        items, content = self._question_items(
            [t for i, t in enumerate(tokens, u.kept) if i not in wh_tokens]
        )

        notes: list[str] = []
        items, frame = self._drop_want_cue(items, c)

        # the predicate's stem, and whether it is a copula (None: no predicate)
        stem: Optional[str] = None
        copula = False
        if items and items[-1].ending is not None:
            verb = items.pop()
            stem, copula = verb.stem, verb.ending.copula
        elif frame and items:
            # inside a frame, an embedded question form (먹었는지), or a
            # finite question (먹었니)
            last = items[-1]
            stem = predicate.embedded_question_stem(last.surface)
            if stem is None:
                stem, m = self._finite_question(last, frame)
                copula = m is not None and m.copula
            if stem is not None:
                items.pop()

        adnominal = ""
        append_noun = ""
        if copula:
            append_noun = stem  # nominal predicate joins the content
        elif stem is None or stem in lex.knowstems or stem in lex.lightverb_stems:
            pass  # no predicate; matrix know-verbs and bare light verbs carry no content
        elif stem:
            adnominal = predicate.adnominal(stem, notes)
        elif (
            items
            and items[-1].surface not in lex.lightverb_stems
            and predicate.looks_adnominal(items[-1].surface)
        ):
            # periphrastic V-는/-(으)ㄹ 거야: the real predicate sits on
            # the token before the bare ending, already adnominalized
            adnominal = items.pop().surface

        stems = self._clean_parts(content[: len(items)])
        if append_noun:
            stems.append(append_noun)

        # the category's word is the replacement noun (_value_: no Enum.value call)
        noun = c.wh._value_
        if c.wh is ArgumentCategory.REASON:
            # reason arguments keep only the predicate; context tokens are noise
            if not adnominal:
                raise ExtractionFailed("reason question without a predicate")
            parts = [adnominal, noun]
        else:
            parts = stems + ([adnominal] if adnominal else []) + [noun]
            if len(parts) == 1:
                raise ExtractionFailed("no content around the wh word")
        return _new(Argument, (" ".join(parts), c.wh, tuple(notes)))

    def _object_span(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        """Information-seeking imperatives with a universal quantifier keep
        their object span verbatim, the quantifier adverb turned determiner."""
        lex = self.lexicon
        items, content = self._question_items(tokens)  # no wh word: that step fires first
        stems: list[str] = []
        quant: Optional[str] = None
        object_pos: Optional[int] = None
        for t, stem in zip(items, content):
            if not stem:
                continue
            if stem in lex.advdet and quant is None:
                quant = lex.advdet[stem]
                continue
            particle = lex.josa.get(t.particle)
            if particle is not None and particle.object:
                object_pos = len(stems)
            stems.append(stem)
        stems = self._clean_parts(stems)
        if not stems:
            raise ExtractionFailed("empty object span")
        if quant is not None:
            at = object_pos if object_pos is not None else len(stems) - 1
            stems.insert(at, quant)
        return _new(Argument, (" ".join(stems), c.wh, ()))

    # -- commands -------------------------------------------------------------

    def _command_items(self, tokens: Sequence[Eojeol]) -> tuple[list[Eojeol], list[str]]:
        """The tokens a command argument keeps and the content of each at
        the same index, computed once."""
        lex = self.lexicon
        pronouns = lex.pronouns
        items: list[Eojeol] = []
        content: list[str] = []
        for t in tokens:
            if t.surface in pronouns:
                continue
            stem = t.stem
            if t.particle is not None:
                # only case particles go: stripping goes on from a case
                # particle normalize split, and past any other starts over
                # from the surface, which a shorter case particle may end
                split = stem if lex.josa[t.particle].droppable else t.surface
                stem = lex.strip_josa_all(split, droppable_only=True)
            if stem in pronouns:
                continue
            items.append(t)
            content.append(stem)
        return items, content

    def _clause_start(self, items: list[Eojeol], end: int) -> int:
        """Where the clause that ends before ``items[end]`` starts: after the
        last token before ``end`` that ends in a subordinate connective, else
        0. Only tokens that end in a connective's last character are probed,
        from ``end`` back."""
        lex = self.lexicon
        ends, connectives, endings = lex.connective_ends, lex.connectives, lex.endings
        for i in range(end - 1, -1, -1):
            s = items[i].surface
            for k in ends.get(s[-1], ()):
                conn = s[-k:]
                if len(s) <= k or conn not in connectives:
                    continue
                # a connective that is also an ending whose condition the
                # token meets is that ending (-ㅂ니까), not a clause boundary
                tails = endings[conn].prev_tails if conn in endings else None
                if tails is not None and hangul.tail(s[-k - 1]) in tails:
                    continue
                return i + 1
        return 0

    def _prohibition(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        """The prohibited action: the last clause of ``tokens``, which end
        before the step's token, then the -지 form the step read off that
        token (``c.form``) and 않기."""
        items, content = self._command_items(tokens)
        parts = self._clean_parts(content[self._clause_start(items, len(items)) :])
        text = predicate.prohibition(parts, c.form)
        return _new(Argument, (text, ArgumentCategory.PROHIBITION, ()))

    def _sr_from_double_negation(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        """The required action: the last clause of ``tokens``, which end
        before the step's -(으)면 clause, its negators dropped, then the
        clause's negator-free core (``c.form``) nominalized."""
        items, content = self._command_items(tokens)
        start = self._clause_start(items, len(items))
        keep = [i for i in range(start, len(items)) if items[i].negation != "preverbal"]
        span = [items[i] for i in keep]
        nominal = self._nominalize_stem(c.form, span)  # may pop from span
        parts = self._clean_parts([content[i] for i in keep[: len(span)]])
        return _new(Argument, (" ".join(parts + [nominal]), ArgumentCategory.REQUIREMENT, ()))

    def _requirement(
        self, u: NormalizedUtterance, c: Classification, tokens: Sequence[Eojeol]
    ) -> Argument:
        items, content = self._command_items(tokens)
        if not items:
            raise ExtractionFailed("empty required action")
        end = len(items) - 1
        start = self._clause_start(items, end)
        last = items[end]
        rest = items[start:end]
        # only the last token carries an ending: the imperative the step fired on
        if last.ending is not None:
            stem = last.stem + last.ending.stem  # 확인 + 하 for 확인해
            if stem:
                nominal = self._nominalize_stem(stem, rest)
            else:
                # the whole token was a request cue (바랍니다): nominalize the
                # remaining action, whose head is typically a verbal noun
                if not rest:
                    raise ExtractionFailed("request cue with no action span")
                rest.pop()
                nominal = predicate.nominal(content[start + len(rest)])
        else:
            nominal = predicate.nominal(content[end])
        parts = self._clean_parts(content[start : start + len(rest)])
        return _new(Argument, (" ".join(parts + [nominal]), ArgumentCategory.REQUIREMENT, ()))

    def _nominalize_stem(self, stem: str, preceding: list[Eojeol]) -> str:
        """``predicate.stem_nominal`` of ``stem``; a bare light verb may fold
        onto the preceding verbal noun, which then leaves ``preceding``
        (확인 + 하 -> 확인하기)."""
        light = stem in self.lexicon.lightverb_stems
        bare = light and preceding and self._is_bare_noun(preceding[-1])
        nominal, folded = predicate.stem_nominal(stem, light, preceding[-1].surface if bare else "")
        if folded:
            preceding.pop()
        return nominal
