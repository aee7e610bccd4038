"""Utterance analysis: normalization, particle/ending splits, negation profile.

Whitespace (eojeol) tokenization plus suffix-table stripping stands in for a
full morphological analyzer; the scheme only ever needs particle and ending
splits, so the analyzer stays dictionary-free and deterministic.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional, Sequence, Union

from . import hangul
from .errors import EmptyUtterance
from .lexicon import Ending, Lexicon, WhKind, _check_cond, default_lexicon

# sentence punctuation dropped up front (ASR-style input carries none)
PUNCTUATION = ".?!,…~"
_PUNCT_RE = re.compile("[" + re.escape(PUNCTUATION) + "]")
_WS_RE = re.compile(r"\s+")
# input bytes that were not UTF-8, kept as lone surrogates by errors="surrogateescape"
UNDECODED_RE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class Eojeol:
    """One whitespace-delimited token with its morpheme split."""

    surface: str
    stem: str
    particle: Optional[str] = None
    ending: Optional[Ending] = None
    is_vocative: bool = False
    is_wh: bool = False
    negation: Optional[str] = None  # negation kind the token is, or carries fused onto -지
    fused: Optional[str] = None  # that fused ma/malgo negator (나가지마 -> 마)
    conditional: bool = False  # a -(으)면 conditional clause token


@dataclass(frozen=True)
class WhHit:
    """A wh surface form located in the token sequence."""

    kind: WhKind
    token_start: int
    token_end: int  # exclusive
    char_start: int
    char_end: int


@dataclass(frozen=True)
class NegationProfile:
    preverbal_an: bool = False
    suffix_ci_ma: bool = False
    malgo: Optional[int] = None  # first 말고 token, never the last token
    danger_pred: bool = False
    conditional_myen: bool = False


@dataclass(frozen=True)
class NormalizedUtterance:
    """Normalized text, its tokens and every utterance-level feature."""

    raw: str
    text: str
    tokens: tuple[Eojeol, ...]
    offsets: tuple[int, ...]  # char offset of each token within ``text``
    wh_hits: tuple[WhHit, ...]
    negation: NegationProfile

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


class Analyzer:
    """Turns raw text into the feature substrate the classifier reads."""

    def __init__(self, lexicon: Optional[Lexicon] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()

    # -- normalization -------------------------------------------------

    def normalize(self, raw: str) -> NormalizedUtterance:
        """NFC, punctuation stripped, whitespace collapsed, tokens analyzed;
        every utterance-level feature is computed here, once."""
        text = unicodedata.normalize("NFC", raw)
        text = _PUNCT_RE.sub(" ", text)
        text = _WS_RE.sub(" ", text).strip()
        if not text:
            raise EmptyUtterance(f"no content after normalization: {raw!r}")
        surfaces = text.split(" ")
        offsets = tuple(accumulate((len(s) + 1 for s in surfaces[:-1]), initial=0))
        tokens = self._analyze_tokens(surfaces)
        wh_hits = self.find_wh(tokens, offsets)
        for hit in wh_hits:
            for i in range(hit.token_start, hit.token_end):
                tokens[i] = replace(tokens[i], is_wh=True)
        return NormalizedUtterance(
            raw, text, tuple(tokens), offsets, wh_hits, self.profile_negation(tokens)
        )

    def _analyze_tokens(self, surfaces: list[str]) -> list[Eojeol]:
        lex = self.lexicon
        voc = [self._is_vocative(surfaces, i) for i in range(len(surfaces))]

        # the sentence-final ending sits on the last non-vocative token
        bearer = None
        for i in range(len(surfaces) - 1, -1, -1):
            if not voc[i]:
                bearer = i
                break

        tokens: list[Eojeol] = []
        for i, surface in enumerate(surfaces):
            cues = self._cues(surface)
            if voc[i]:
                marker = surface[-1]
                tokens.append(Eojeol(surface, surface[:-1], marker, is_vocative=True, **cues))
                continue
            ending = lex.match_ending(surface) if i == bearer else None
            if ending is not None:
                stem = surface[: len(surface) - len(ending.surface)]
                tokens.append(Eojeol(surface, stem, ending=ending, **cues))
            else:
                tokens.append(self.strip_josa(Eojeol(surface, surface, **cues)))
        return tokens

    def _cues(self, surface: str) -> dict:
        """The one definition of each token cue, as ``Eojeol`` fields: the
        negation kind the token is (마, 말고, 안) or carries fused onto -지
        (나가지마), and whether it is a -(으)면 conditional (아니면 is not)."""
        lex = self.lexicon
        cond = surface.endswith("면") and len(surface) > 1 and surface not in lex.disjunction
        negation = lex.negation.get(surface)
        if negation is None:
            for kind in ("ma", "malgo"):
                for neg in lex.negation_by_kind[kind]:
                    if surface.endswith("지" + neg):
                        return {"negation": kind, "fused": neg, "conditional": cond}
        return {"negation": negation, "fused": None, "conditional": cond}

    # -- per-token operations -------------------------------------------

    def strip_josa(self, token: Union[Eojeol, str]) -> Eojeol:
        """Split off the longest valid particle suffix; never empties the stem.

        Single-syllable tokens are left alone (precision over recall).
        """
        e = token if isinstance(token, Eojeol) else Eojeol(token, stem=token)
        surface = e.surface
        if len(surface) <= 1 or surface in self.lexicon.nostrip:
            return e
        suffix = self.lexicon.longest_josa(surface)
        if suffix is None:
            return e
        return replace(e, stem=surface[: -len(suffix)], particle=suffix)

    def strip_josa_all(self, surface: str, droppable_only: bool = False) -> str:
        """Repeatedly strip particle suffixes (stacked particles like 에서는)."""
        stem = surface
        while len(stem) > 1 and stem not in self.lexicon.nostrip:
            suffix = self.lexicon.longest_josa(stem, droppable_only=droppable_only)
            if suffix is None:
                break
            stem = stem[: -len(suffix)]
        return stem

    def _is_vocative(self, surfaces: list[str], index: int) -> bool:
        """Noun + 야/아 not in predicate position (e.g. trailing name calls)."""
        surface = surfaces[index]
        if len(surface) < 3:  # name of >=2 syllables plus the marker
            return False
        marker, stem = surface[-1], surface[:-1]
        cond = self.lexicon.vocative.get(marker)
        if cond is None:
            return False
        if not all(hangul.is_syllable(c) for c in stem):
            return False
        if not _check_cond(cond, stem[-1]):
            return False
        # a longer ending match (거야, 이야...) wins over the vocative reading
        ending = self.lexicon.match_ending(surface)
        if ending is not None and len(ending.surface) > 1:
            return False
        if index < len(surfaces) - 1:
            return True
        # final position: vocative only when the predicate came earlier
        return any(
            self.lexicon.match_ending(s) is not None for s in surfaces[:index]
        )

    # -- negation cues ----------------------------------------------------

    def strip_preverbal(self, core: str) -> str:
        """``core`` without a fused preverbal negator (안매 -> 매)."""
        for neg in self.lexicon.negation_by_kind["preverbal"]:
            if core.startswith(neg) and len(core) > len(neg):
                return core[len(neg) :]
        return core

    # -- utterance-level features ---------------------------------------

    def find_wh(self, tokens: Sequence[Eojeol], offsets: Sequence[int]) -> tuple[WhHit, ...]:
        lex = self.lexicon
        hits: list[WhHit] = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens):
                pair = lex.lookup_wh_pair(tokens[i].stem, tokens[i + 1].stem)
                if pair is not None:
                    end = offsets[i + 1] + len(tokens[i + 1].stem)
                    hits.append(WhHit(pair, i, i + 2, offsets[i], end))
                    i += 2
                    continue
            match = lex.lookup_wh(tokens[i].stem)
            if match is None and tokens[i].surface != tokens[i].stem:
                # a false particle split can hide a fused wh form (누가)
                match = lex.lookup_wh(tokens[i].surface)
            if match is not None:
                hits.append(
                    WhHit(
                        match.kind,
                        i,
                        i + 1,
                        offsets[i] + match.start,
                        offsets[i] + match.end,
                    )
                )
            i += 1
        return tuple(hits)

    def profile_negation(self, tokens: Sequence[Eojeol]) -> NegationProfile:
        lex = self.lexicon
        surfaces = [t.surface for t in tokens]
        last = len(tokens) - 1

        malgo = next((i for i in range(last) if tokens[i].negation == "malgo"), None)
        myen_idx = next((i for i in range(last) if tokens[i].conditional), None)
        danger = lex.is_danger_predicate(surfaces)

        preverbal = False
        scope = myen_idx if myen_idx is not None else last
        for i, t in enumerate(tokens):
            if t.negation == "preverbal" and i <= scope:
                # the negator inside a danger pair (안 돼) is not preverbal
                if i < last and (t.surface, surfaces[i + 1]) in lex.danger_pairs:
                    continue
                preverbal = True
        if myen_idx is not None:
            core = surfaces[myen_idx][:-1]
            if self.strip_preverbal(core) != core:
                preverbal = True

        return NegationProfile(
            preverbal_an=preverbal,
            suffix_ci_ma=negative_imperative(tokens) is not None,
            malgo=malgo,
            danger_pred=danger,
            conditional_myen=myen_idx is not None,
        )


def negative_imperative(tokens: Sequence[Eojeol]) -> Optional[tuple[int, str]]:
    """Index and text of the first -지 predicate a ma negator follows (나가지 마, 나가지마)."""
    for i, t in enumerate(tokens):
        if t.surface.endswith("지") and i + 1 < len(tokens):
            after = tokens[i + 1]
            if after.negation == "ma" and after.fused is None:
                return i, t.surface
        if t.negation == "ma" and t.fused is not None:
            return i, t.surface[: -len(t.fused)]
    return None
