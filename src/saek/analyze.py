"""Utterance analysis: normalization, particle/ending splits, token cue tags.

Whitespace (eojeol) tokenization plus suffix-table stripping stands in for a
full morphological analyzer; the scheme only ever needs particle and ending
splits, so the analyzer stays dictionary-free and deterministic.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_right
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from . import hangul
from .errors import EmptyUtterance
from .lexicon import ArgumentCategory, Ending, Lexicon
from .predicate import CONDITIONAL, NEGATION_HOST, is_negation_host

# sentence punctuation dropped up front (ASR-style input carries none)
PUNCTUATION = ".?!,…~"
_PUNCT_RE = re.compile("[" + re.escape(PUNCTUATION) + "]")
# input bytes that were not UTF-8, kept as lone surrogates by errors="surrogateescape"
UNDECODED_RE = re.compile("[\ud800-\udfff]")


class Eojeol(NamedTuple):
    """One whitespace-delimited token with its morpheme split; never a vocative."""

    surface: str
    start: int  # char offset of ``surface`` within NormalizedUtterance.text
    stem: str
    particle: Optional[str] = None
    ending: Optional[Ending] = None
    negation: Optional[str] = None  # negation kind the token is, or carries fused onto -지
    fused: Optional[str] = None  # that fused ma/malgo negator (나가지마 -> 마)
    conditional: bool = False  # a -(으)면 conditional clause token


class WhHit(NamedTuple):
    """A wh surface form located in the token sequence."""

    kind: ArgumentCategory
    token_start: int
    token_end: int  # exclusive
    char_start: int
    char_end: int


class NormalizedUtterance(NamedTuple):
    """Normalized text, the tokens of its main clause and every
    utterance-level feature; what precedes the last 말고 or subordinate
    connective before the last token, and a vocative (민수야), are in
    ``text`` only, and no token index counts them."""

    text: str
    tokens: tuple[Eojeol, ...]
    wh_hits: tuple[WhHit, ...]
    cued: tuple[int, ...]  # indices, in order, of the tokens with a negation or conditional cue
    # char span of the first 말고 before the main clause that follows a -지
    # host (놀지 말고, 놀지말고); None: no such 말고
    coordination: Optional[tuple[int, int]]


class Analyzer:
    """Turns raw text into the feature substrate the classifier reads."""

    def __init__(self, lexicon: Lexicon):
        lex = self.lexicon = lexicon
        # one gate per table: a token that ends outside a gate's characters
        # takes none of its lookups; ``_cues`` reads the negators and the
        # conditional's 면, and a token outside the union carries nothing
        self._cue_finals = frozenset({*lex.negation_ends, CONDITIONAL})
        self._suffix_finals = frozenset({*self._cue_finals, *lex.josa_ends, *lex.vocative, *lex.connective_ends})

    # -- normalization -------------------------------------------------

    def normalize(self, raw: str) -> NormalizedUtterance:
        """NFC, punctuation stripped, whitespace collapsed, tokens analyzed;
        every utterance-level feature is computed here, once."""
        surfaces = _PUNCT_RE.sub(" ", unicodedata.normalize("NFC", raw)).split()
        if not surfaces:
            raise EmptyUtterance(f"no content after normalization: {raw!r}")
        text = " ".join(surfaces)
        tokens, cued, coordination = self._analyze_tokens(surfaces)
        # every wh surface and wh-pair stem is a substring of the text, so
        # without an anchor in it no token can hold a wh form
        anchors = self.lexicon.wh_anchors(text)
        wh_hits = self.find_wh(anchors, tokens) if anchors else ()
        # positional, as each Eojeol below: test_records pins the field order
        fields = (text, tokens, wh_hits, cued, coordination)
        return tuple.__new__(NormalizedUtterance, fields)

    def _analyze_tokens(
        self, surfaces: list[str]
    ) -> tuple[tuple[Eojeol, ...], tuple[int, ...], Optional[tuple[int, int]]]:
        """The analyzed tokens of the main clause, the indices of those that
        carry a negation or conditional cue, and the span of the first 말고
        cut off that follows a -지 host. The main clause (Korean is
        head-final) starts after the last 말고 or subordinate connective
        before the last token: each one clears the tokens built so far.

        Every vocative is left out, and the sentence-final ending sits on
        the last token kept, unless a connective ends it. Any other token
        takes only the lookups its last character can match: the cues, the
        vocative, connective and particle tests each have their own gate,
        and a token outside all four is plain, its stem its surface."""
        lex = self.lexicon
        suffix_finals, cue_finals = self._suffix_finals, self._cue_finals
        josa_ends, markers, connective_ends = lex.josa_ends, lex.vocative, lex.connective_ends
        last = len(surfaces) - 1
        while last >= 0 and surfaces[last][-1] in markers and self._is_vocative(surfaces, last):
            last -= 1

        # tuple.__new__ skips the NamedTuple's keyword-handling constructor
        # and its field count: test_eojeol_fields_are_the_order_normalize_builds
        # pins the order the two builds below write
        new = tuple.__new__
        tokens: list[Eojeol] = []
        cued: list[int] = []
        coordination = None
        at = 0
        for i, surface in enumerate(surfaces[: last + 1]):
            start = at
            at += len(surface) + 1
            final = surface[-1]
            if i < last and final not in suffix_finals:
                fields = (surface, start, surface, None, None, None, None, False)
            elif i < last and final in markers and self._is_vocative(surfaces, i):
                continue
            else:
                negation = fused = None
                cond = False
                if final in cue_finals:
                    negation, fused, cond = self._cues(surface)
                    if negation is not None or cond:
                        cued.append(len(tokens))
                clause_end = final in connective_ends and self._is_connective(surface)
                if i < last and (negation == "malgo" or clause_end):
                    host = fused or tokens and is_negation_host(tokens[-1].surface)
                    if negation == "malgo" and host and coordination is None:
                        coordination = (start, start + len(surface))
                    tokens.clear()
                    cued.clear()
                    continue
                ending = lex.match_ending(surface) if i == last and not clause_end else None
                stem, particle = surface, None
                if ending is not None:
                    stem = surface[: len(surface) - len(ending.surface)]
                elif final in josa_ends:
                    stem, particle = self.strip_josa(surface)
                fields = (surface, start, stem, particle, ending, negation, fused, cond)
            tokens.append(new(Eojeol, fields))
        return tuple(tokens), tuple(cued), coordination

    def _cues(self, surface: str) -> tuple[Optional[str], Optional[str], bool]:
        """The one definition of each token cue, as the ``Eojeol`` fields
        (negation, fused, conditional): the negation kind the token is (마,
        말고, 안) or carries fused onto -지 (나가지마), that fused negator,
        and whether it is a -(으)면 conditional (아니면 is not)."""
        lex = self.lexicon
        cond = surface.endswith(CONDITIONAL) and len(surface) > 1 and surface not in lex.disjunction
        negation = lex.negation.get(surface)
        if negation is None and NEGATION_HOST in surface:
            # a fused negator follows -지; ma before malgo, longest first within a kind
            ends = lex.negation_ends.get(surface[-1:], ())
            for kind in ("ma", "malgo"):
                for k in ends:
                    if lex.negation.get(surface[-k:]) == kind and is_negation_host(surface[:-k]):
                        return kind, surface[-k:], cond
        return negation, None, cond

    def _is_connective(self, surface: str) -> bool:
        """Whether a stem plus a subordinate connective ends ``surface``
        (오니까, 늦어서); a connective that is also an ending whose condition
        the token meets is that ending (갑니까: -ㅂ니까)."""
        lex = self.lexicon
        for k in lex.connective_ends.get(surface[-1], ()):
            conn = surface[-k:]
            if len(surface) > k and conn in lex.connectives:
                tails = lex.endings[conn].prev_tails if conn in lex.endings else None
                if tails is None or hangul.tail(surface[-k - 1]) not in tails:
                    return True
        return False

    # -- per-token operations -------------------------------------------

    def strip_josa(self, surface: str) -> tuple[str, Optional[str]]:
        """(stem, particle): the longest valid particle suffix split off, or
        (surface, None); never empties the stem.

        Single-syllable tokens are left alone (precision over recall).
        """
        if len(surface) <= 1 or surface in self.lexicon.nostrip:
            return surface, None
        suffix = self.lexicon.longest_josa(surface)
        if suffix is None:
            return surface, None
        return surface[: -len(suffix)], suffix

    def _is_vocative(self, surfaces: Sequence[str], index: int) -> bool:
        """A name call (민수야): a name of >=2 syllables plus 야/아, with no
        negator or wh form in it; a final one only after a predicate."""
        lex = self.lexicon
        surface = surfaces[index]
        if len(surface) < 3:  # name of >=2 syllables plus the marker
            return False
        marker, stem = surface[-1], surface[:-1]
        if marker not in lex.vocative or not hangul.all_syllables(stem):
            return False
        tails = lex.vocative[marker]
        if tails is not None and hangul.tail(stem[-1]) not in tails:
            return False
        # a longer ending match (거야, 이야...) wins over the vocative reading
        ending = lex.match_ending(surface)
        if ending is not None and len(ending.surface) > 1:
            return False
        if marker in self._cue_finals and self._cues(surface)[0] is not None:
            return False  # 나가지말아
        if lex.lookup_wh(stem) is not None:
            return False  # 어디야
        if index < len(surfaces) - 1:
            return True
        # final position: vocative only after an earlier token that matches
        # an ending or carries a negation or conditional cue; a surface that
        # ends in none of their last characters does neither
        ends = lex.ending_ends
        return any(
            (s[-1] in ends and lex.match_ending(s) is not None)
            or (s[-1] in self._cue_finals and self._cues(s) != (None, None, False))
            for s in surfaces[:index]
        )

    # -- utterance-level features ---------------------------------------

    def find_wh(self, anchors: Iterable[int], tokens: Sequence[Eojeol]) -> tuple[WhHit, ...]:
        """The wh forms in ``tokens``, left to right; a two-token form is
        tried first at each token and takes its second token along.

        Every wh surface and first stem of a two-token form is a substring of
        the token that holds it, so only the tokens an anchor (``anchors``:
        ``Lexicon.wh_anchors`` of the text) falls in are looked up."""
        lex = self.lexicon
        # each WhHit is built positionally, as each Eojeol: test_records pins
        # the field order
        hits: list[WhHit] = []
        free = 0  # the first token no earlier hit took or looked at
        for anchor in anchors:
            i = bisect_right(tokens, anchor, key=attrgetter("start")) - 1
            if i < free:
                continue
            free = i + 1
            if i + 1 < len(tokens):
                pair = lex.lookup_wh_pair(tokens[i].stem, tokens[i + 1].stem)
                if pair is not None:
                    end = tokens[i + 1].start + len(tokens[i + 1].stem)
                    hits.append(tuple.__new__(WhHit, (pair, i, i + 2, tokens[i].start, end)))
                    free = i + 2
                    continue
            match = lex.lookup_wh(tokens[i].stem)
            if match is None and tokens[i].surface != tokens[i].stem:
                # a false particle split can hide a fused wh form (누가)
                match = lex.lookup_wh(tokens[i].surface)
            if match is not None:
                start = tokens[i].start
                fields = (match.kind, i, i + 1, start + match.start, start + match.end)
                hits.append(tuple.__new__(WhHit, fields))
        return tuple(hits)


def negative_imperative(
    tokens: Sequence[Eojeol], negators: Iterable[int]
) -> Optional[tuple[int, str]]:
    """Index and -지 form of the first -지 host a ma negator follows, fused
    or spaced (나가지마 -> 나가지, 나가지 마); ``negators``: the indices, in
    order, of the negator tokens, the only ones it reads, with the token
    before each."""
    for i in negators:
        fused = tokens[i].fused
        if fused is not None:
            return i, tokens[i].surface[: -len(fused)]
        if i > 0 and is_negation_host(tokens[i - 1].surface):
            return i - 1, tokens[i - 1].surface  # a spaced host has no fused negator
    return None
