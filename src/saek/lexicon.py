"""Correspondence tables: particles, endings, wh forms, negation markers.

All tables live in a human-editable TSV (one entry per line,
``role<TAB>surface<TAB>attributes``) so the inventory can grow without
code changes.  The bundled default is a documented superset of the forms
the annotation scheme needs; see ``data/default_lexicon.tsv``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from . import hangul
from .errors import LexiconError, UnknownParticle


class WhKind(Enum):
    WHO = "who"
    WHAT = "what"
    WHERE = "where"
    WHEN = "when"
    WHY = "why"
    HOW = "how"


class EndingKind(Enum):
    INTERROGATIVE = "interrogative"
    IMPERATIVE = "imperative"
    DECLARATIVE_CUE = "declarative-cue"


class ArgumentCategory(Enum):
    """Category tag attached to an extracted argument phrase."""

    WHETHER = "여부"
    CHOICE = "선택"
    PERSON = "사람"
    MEANING = "의미"
    LOCATION = "위치"
    TIME = "시간"
    REASON = "이유"
    METHOD = "방법"
    PROHIBITION = "금지"
    REQUIREMENT = "요구"


WH_TO_CATEGORY = {
    WhKind.WHO: ArgumentCategory.PERSON,
    WhKind.WHAT: ArgumentCategory.MEANING,
    WhKind.WHERE: ArgumentCategory.LOCATION,
    WhKind.WHEN: ArgumentCategory.TIME,
    WhKind.WHY: ArgumentCategory.REASON,
    WhKind.HOW: ArgumentCategory.METHOD,
}

QUESTION_CATEGORIES = frozenset(
    {
        ArgumentCategory.WHETHER,
        ArgumentCategory.CHOICE,
        ArgumentCategory.PERSON,
        ArgumentCategory.MEANING,
        ArgumentCategory.LOCATION,
        ArgumentCategory.TIME,
        ArgumentCategory.REASON,
        ArgumentCategory.METHOD,
    }
)
COMMAND_CATEGORIES = frozenset(
    {ArgumentCategory.PROHIBITION, ArgumentCategory.REQUIREMENT}
)


@dataclass(frozen=True)
class WhCategory:
    """One wh class with its replacement nouns, primary noun first."""

    kind: WhKind
    nouns: tuple[str, ...]

    @property
    def primary_noun(self) -> str:
        return self.nouns[0]


@dataclass(frozen=True)
class Josa:
    surface: str
    cond: str  # any | batchim | no_batchim | open_or_rieul | batchim_not_rieul
    droppable: bool  # case particle a command argument may lose


@dataclass(frozen=True)
class Ending:
    surface: str
    kind: EndingKind
    copula: bool = False
    prev_coda: str = ""  # required coda on the syllable before the suffix
    stem: str = ""  # lexical stem recovered when the suffix is the whole token


@dataclass(frozen=True)
class WhMatch:
    kind: WhKind
    start: int
    end: int


ROLES = {
    "josa",
    "vocative",
    "ending",
    "wh",
    "whnoun",
    "negation",
    "disjunction",
    "danger",
    "infoverb",
    "advdet",
    "lightverb",
    "pronoun",
    "knowstem",
    "depnoun",
    "connective",
    "nostrip",
}

NEGATION_KINDS = ("ma", "malgo", "anh", "preverbal")

_ENDING_KINDS = {
    "int": EndingKind.INTERROGATIVE,
    "imp": EndingKind.IMPERATIVE,
    "cue": EndingKind.DECLARATIVE_CUE,
}

_JOSA_CONDS = {"any", "batchim", "no_batchim", "open_or_rieul", "batchim_not_rieul"}


def _check_cond(cond: str, stem_final: str) -> bool:
    if cond == "any":
        return True
    if not hangul.is_syllable(stem_final):
        # non-Hangul stems (digits, latin) take the unconditioned reading
        return cond in ("any", "no_batchim", "open_or_rieul")
    tail = hangul.decompose(stem_final).tail
    if cond == "batchim":
        return tail != hangul.TAIL_NONE
    if cond == "no_batchim":
        return tail == hangul.TAIL_NONE
    if cond == "open_or_rieul":
        return tail in (hangul.TAIL_NONE, hangul.TAIL_RIEUL)
    if cond == "batchim_not_rieul":
        return tail not in (hangul.TAIL_NONE, hangul.TAIL_RIEUL)
    raise LexiconError(f"unknown josa condition: {cond}")


@dataclass
class Lexicon:
    """Every correspondence table, plus the views ``_finish`` derives from them.

    Tables must not be mutated after ``_finish``: nothing enforces this, and
    the derived views would go stale."""

    josa: dict[str, Josa] = field(default_factory=dict)
    vocative: dict[str, str] = field(default_factory=dict)  # surface -> cond
    endings: dict[str, Ending] = field(default_factory=dict)
    cues: set[tuple[str, ...]] = field(default_factory=set)  # want-to-know prefixes
    wh_surfaces: dict[str, WhKind] = field(default_factory=dict)
    wh_pairs: dict[tuple[str, str], WhKind] = field(default_factory=dict)
    wh_nouns: dict[WhKind, tuple[str, ...]] = field(default_factory=dict)
    negation: dict[str, str] = field(default_factory=dict)  # surface -> kind
    disjunction: set[str] = field(default_factory=set)  # A 아니면 B: not a -면 conditional
    danger: set[str] = field(default_factory=set)
    danger_pairs: set[tuple[str, str]] = field(default_factory=set)
    infoverbs: set[str] = field(default_factory=set)
    advdet: dict[str, str] = field(default_factory=dict)
    lightverb_stems: set[str] = field(default_factory=set)
    pronouns: set[str] = field(default_factory=set)
    knowstems: set[str] = field(default_factory=set)
    depnouns: set[str] = field(default_factory=set)
    connectives: set[str] = field(default_factory=set)
    nostrip: set[str] = field(default_factory=set)

    # -- derived, filled by _finish() --
    _josa_by_len: list[str] = field(default_factory=list)
    _ending_by_len: list[str] = field(default_factory=list)
    _wh_by_pos: list[str] = field(default_factory=list)
    # negation kind -> its surfaces, longest first
    negation_by_kind: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _finish(self) -> None:
        self._josa_by_len = sorted(self.josa, key=len, reverse=True)
        self._ending_by_len = sorted(self.endings, key=len, reverse=True)
        self._wh_by_pos = sorted(self.wh_surfaces, key=len, reverse=True)
        by_len = sorted(self.negation, key=len, reverse=True)
        self.negation_by_kind = {
            kind: tuple(s for s in by_len if self.negation[s] == kind) for kind in NEGATION_KINDS
        }
        self._validate()

    def _validate(self) -> None:
        overlap = set(self.josa) & set(self.endings)
        if overlap:
            raise LexiconError(f"surfaces in both josa and ending roles: {sorted(overlap)}")
        missing = [k.value for k in WhKind if not self.wh_nouns.get(k)]
        if missing:
            raise LexiconError(f"wh categories without replacement nouns: {missing}")
        for kind, nouns in self.wh_nouns.items():
            for noun in nouns:
                if " " in noun or not noun:
                    raise LexiconError(f"wh noun must be a bare noun: {kind.value}: {noun!r}")

    # -- queries -------------------------------------------------------

    def wh_category(self, kind: WhKind) -> WhCategory:
        return WhCategory(kind, self.wh_nouns[kind])

    def josa_valid(self, stem_final: str, particle: str) -> bool:
        """True iff the allomorph fits the batchim of the stem-final syllable."""
        entry = self.josa.get(particle)
        if entry is None:
            raise UnknownParticle(particle)
        return _check_cond(entry.cond, stem_final)

    def longest_josa(self, token: str, droppable_only: bool = False) -> Optional[str]:
        """Longest particle suffix of ``token`` passing its batchim condition."""
        for surface in self._josa_by_len:
            if droppable_only and not self.josa[surface].droppable:
                continue
            if not token.endswith(surface) or len(token) <= len(surface):
                continue
            if self.josa_valid(token[-len(surface) - 1], surface):
                return surface
        return None

    def match_ending(self, token: str) -> Optional[Ending]:
        """Longest sentence-final ending that matches the end of ``token``."""
        for surface in self._ending_by_len:
            if not token.endswith(surface):
                continue
            entry = self.endings[surface]
            if entry.prev_coda:
                if len(token) <= len(surface):
                    continue
                prev = token[-len(surface) - 1]
                if not hangul.is_syllable(prev):
                    continue
                if hangul.tail_jamo(prev) != entry.prev_coda:
                    continue
            return entry
        return None

    def lookup_wh(self, token: str) -> Optional[WhMatch]:
        """First wh surface form contained in ``token`` (single-token forms)."""
        best: Optional[WhMatch] = None
        for surface in self._wh_by_pos:
            pos = token.find(surface)
            if pos < 0:
                continue
            if best is None or pos < best.start:
                best = WhMatch(self.wh_surfaces[surface], pos, pos + len(surface))
        return best

    def lookup_wh_pair(self, stem_a: str, stem_b: str) -> Optional[WhKind]:
        """Two-token wh form (counting interrogatives like 몇 시)."""
        hits = [
            (len(b), kind)
            for (a, b), kind in self.wh_pairs.items()
            if stem_a == a and stem_b.startswith(b)
        ]
        if not hits:
            return None
        return max(hits)[1]

    def match_cue(self, tokens: list[str]) -> Optional[tuple[str, ...]]:
        """Want-to-know cue at the end of the token sequence.

        All parts but the last match tokens exactly; the last part is a
        prefix of the final token (궁금* covers 궁금해 / 궁금한데 / ...).
        """
        for parts in self.cues:
            n = len(parts)
            if len(tokens) < n:
                continue
            if tokens[-1].startswith(parts[-1]) and list(tokens[-n:-1]) == list(parts[:-1]):
                return parts
        return None

    def is_danger_predicate(self, tokens: Iterable[str]) -> bool:
        """Final predicate (last token, or last two) in the danger table."""
        toks = list(tokens)
        if not toks:
            return False
        if any(toks[-1].endswith(s) for s in self.danger):
            return True
        if len(toks) >= 2 and (toks[-2], toks[-1]) in self.danger_pairs:
            return True
        return False


def parse_lexicon(lines: Iterable[str], source: str = "<lexicon>") -> Lexicon:
    lex = Lexicon()
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise LexiconError(f"{source}:{lineno}: expected role<TAB>surface")
        role, surface = parts[0].strip(), parts[1].strip()
        attrs = _parse_attrs(parts[2] if len(parts) > 2 else "", source, lineno)
        if role not in ROLES:
            raise LexiconError(f"{source}:{lineno}: unknown role {role!r}")
        if not surface:
            raise LexiconError(f"{source}:{lineno}: empty surface")
        if (role, surface) in seen:
            raise LexiconError(f"{source}:{lineno}: duplicate entry {role} {surface!r}")
        seen.add((role, surface))
        _add_entry(lex, role, surface, attrs, source, lineno)
    lex._finish()
    return lex


def _parse_attrs(text: str, source: str, lineno: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            key, value = chunk.split("=", 1)
            attrs[key.strip()] = value.strip()
        else:
            attrs[chunk] = "true"
    return attrs


def _add_entry(
    lex: Lexicon, role: str, surface: str, attrs: dict[str, str], source: str, lineno: int
) -> None:
    where = f"{source}:{lineno}"
    if role == "josa":
        cond = attrs.get("cond", "any")
        if cond not in _JOSA_CONDS:
            raise LexiconError(f"{where}: bad josa condition {cond!r}")
        lex.josa[surface] = Josa(surface, cond, "droppable" in attrs)
    elif role == "vocative":
        lex.vocative[surface] = attrs.get("cond", "any")
    elif role == "ending":
        kind = _ENDING_KINDS.get(attrs.get("kind", ""))
        if kind is None:
            raise LexiconError(f"{where}: ending needs kind=int|imp|cue")
        if kind is EndingKind.DECLARATIVE_CUE:
            lex.cues.add(tuple(surface.split(" ")))
        else:
            lex.endings[surface] = Ending(
                surface,
                kind,
                copula="copula" in attrs,
                prev_coda=attrs.get("prev_coda", ""),
                stem=attrs.get("stem", ""),
            )
    elif role in ("wh", "whnoun"):
        try:
            kind = WhKind(attrs.get("category", ""))
        except ValueError:
            raise LexiconError(f"{where}: bad wh category {attrs.get('category')!r}") from None
        if role == "wh":
            if " " in surface:
                first, rest = surface.split(" ", 1)
                lex.wh_pairs[(first, rest)] = kind
            else:
                lex.wh_surfaces[surface] = kind
        else:
            lex.wh_nouns[kind] = lex.wh_nouns.get(kind, ()) + (surface,)
    elif role == "negation":
        kind = attrs.get("kind", "")
        if kind not in NEGATION_KINDS:
            raise LexiconError(f"{where}: negation needs kind=ma|malgo|anh|preverbal")
        lex.negation[surface] = kind
    elif role == "disjunction":
        lex.disjunction.add(surface)
    elif role == "danger":
        if " " in surface:
            first, rest = surface.split(" ", 1)
            lex.danger_pairs.add((first, rest))
        else:
            lex.danger.add(surface)
    elif role == "infoverb":
        lex.infoverbs.add(surface)
    elif role == "advdet":
        det = attrs.get("det")
        if not det:
            raise LexiconError(f"{where}: advdet needs det=<determiner>")
        lex.advdet[surface] = det
    elif role == "lightverb":
        lex.lightverb_stems.add(surface)
    elif role == "pronoun":
        lex.pronouns.add(surface)
    elif role == "knowstem":
        lex.knowstems.add(surface)
    elif role == "depnoun":
        lex.depnouns.add(surface)
    elif role == "connective":
        lex.connectives.add(surface)
    elif role == "nostrip":
        lex.nostrip.add(surface)


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a lexicon TSV from disk."""
    p = Path(path)
    with io.open(p, encoding="utf-8") as fh:
        return parse_lexicon(fh, source=str(p))


_DEFAULT: Optional[Lexicon] = None


def default_lexicon() -> Lexicon:
    """The bundled tables, parsed once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
        _DEFAULT = parse_lexicon(text.splitlines(), source="default_lexicon.tsv")
    return _DEFAULT
