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


@dataclass(frozen=True)
class Eojeol:
    """One whitespace-delimited token with its morpheme split."""

    surface: str
    stem: str
    particle: Optional[str] = None
    ending: Optional[Ending] = None
    is_vocative: bool = False
    is_wh: bool = False
    is_negator: bool = False

    def content(self) -> str:
        """Stem if anything was split off, else the surface."""
        return self.stem if (self.particle or self.ending) else self.surface


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
        wh_tokens = {i for hit in wh_hits for i in range(hit.token_start, hit.token_end)}
        tokens = tuple(
            replace(t, is_wh=i in wh_tokens, is_negator=self._is_negator(t.surface))
            for i, t in enumerate(tokens)
        )
        return NormalizedUtterance(
            raw, text, tokens, offsets, wh_hits, self.profile_negation(surfaces)
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
            if voc[i]:
                marker = surface[-1]
                tokens.append(
                    Eojeol(surface, stem=surface[:-1], particle=marker, is_vocative=True)
                )
                continue
            ending = lex.match_ending(surface) if i == bearer else None
            if ending is not None:
                stem = surface[: len(surface) - len(ending.surface)]
                tokens.append(Eojeol(surface, stem=stem, ending=ending))
            else:
                tokens.append(self.strip_josa(Eojeol(surface, stem=surface)))
        return tokens

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

    def _is_negator(self, surface: str) -> bool:
        return surface in self.lexicon.negation or any(
            self.fused_negator(surface, kind) for kind in ("ma", "malgo")
        )

    # -- negation cues ----------------------------------------------------

    def fused_negator(self, surface: str, kind: str) -> Optional[str]:
        """The ``kind`` negator fused onto a -지 predicate (나가지마 -> 마)."""
        for neg in self.lexicon.negation_by_kind[kind]:
            if surface.endswith("지" + neg):
                return neg
        return None

    def is_malgo(self, surface: str) -> bool:
        """Coordinating 말고, alone or fused onto its -지 predicate."""
        malgo = self.lexicon.negation_by_kind["malgo"]
        return surface in malgo or self.fused_negator(surface, "malgo") is not None

    def is_conditional(self, surface: str) -> bool:
        """A -(으)면 conditional clause token (the disjunction 아니면 is not)."""
        return surface.endswith("면") and surface != "아니면" and len(surface) > 1

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

    def profile_negation(self, surfaces: Sequence[str]) -> NegationProfile:
        lex = self.lexicon
        last = len(surfaces) - 1

        ma = lex.negation_by_kind["ma"]
        suffix_ci_ma = any(
            (s.endswith("지") and i < last and surfaces[i + 1] in ma)
            or self.fused_negator(s, "ma") is not None
            for i, s in enumerate(surfaces)
        )
        malgo = next((i for i in range(last) if self.is_malgo(surfaces[i])), None)
        myen_idx = next((i for i in range(last) if self.is_conditional(surfaces[i])), None)
        danger = lex.is_danger_predicate(surfaces)

        preverbal = False
        scope = myen_idx if myen_idx is not None else last
        for i, s in enumerate(surfaces):
            if s in lex.negation_by_kind["preverbal"] and i <= scope:
                # the negator inside a danger pair (안 돼) is not preverbal
                if i < last and (s, surfaces[i + 1]) in lex.danger_pairs:
                    continue
                preverbal = True
        if myen_idx is not None:
            core = surfaces[myen_idx][:-1]
            if self.strip_preverbal(core) != core:
                preverbal = True

        return NegationProfile(
            preverbal_an=preverbal,
            suffix_ci_ma=suffix_ci_ma,
            malgo=malgo,
            danger_pred=danger,
            conditional_myen=myen_idx is not None,
        )
