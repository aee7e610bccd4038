"""Correspondence tables: particles, endings, wh forms, negation markers.

All tables live in a human-editable TSV (one entry per line,
``role<TAB>surface<TAB>attributes``) so the inventory can grow without
code changes.  The bundled default is a documented superset of the forms
the annotation scheme needs; see ``data/default_lexicon.tsv``.
"""

from __future__ import annotations

import io
import os
import re
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from . import hangul
from .errors import LexiconError


class EndingKind(Enum):
    INTERROGATIVE = "interrogative"
    IMPERATIVE = "imperative"


class ArgumentCategory(Enum):
    """Category tag attached to an extracted argument phrase.

    The six wh members are also the wh forms' categories (``wh_surfaces``,
    ``wh_pairs``), and a wh argument ends in its category's word: that word
    is the replacement noun (누가 왔니 -> 온 사람)."""

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


# a wh row's category= spelling -> the category of its wh form
_WH_CATEGORIES = {
    "who": ArgumentCategory.PERSON,
    "what": ArgumentCategory.MEANING,
    "where": ArgumentCategory.LOCATION,
    "when": ArgumentCategory.TIME,
    "why": ArgumentCategory.REASON,
    "how": ArgumentCategory.METHOD,
}


class Josa(NamedTuple):
    surface: str
    prev_tails: Optional[frozenset[int]]  # see _CONDITIONS
    droppable: bool  # case particle a command argument may lose
    object: bool = False  # object case particle: a quantifier goes before its noun


class Ending(NamedTuple):
    surface: str
    kind: EndingKind
    copula: bool = False
    prev_tails: Optional[frozenset[int]] = None  # see _CONDITIONS
    stem: str = ""  # lexical stem recovered when the suffix is the whole token


class WhMatch(NamedTuple):
    kind: ArgumentCategory
    start: int
    end: int


# roles whose rows are bare surfaces, and the set table each one fills
_SET_ROLES = {
    "disjunction": "disjunction",
    "infoverb": "infoverbs",
    "lightverb": "lightverb_stems",
    "pronoun": "pronouns",
    "knowstem": "knowstems",
    "depnoun": "depnouns",
    "connective": "connectives",
    "nostrip": "nostrip",
}
ROLES = {"josa", "vocative", "ending", "cue", "wh", "negation", "danger", "advdet", *_SET_ROLES}
# the attribute keys each role reads; a role not listed reads none, and any
# other key is a load error, not a condition dropped without a word
_ROLE_KEYS = {
    "josa": {"cond", "droppable", "object"},
    "vocative": {"cond"},
    "ending": {"kind", "copula", "prev_coda", "stem"},
    "wh": {"category"},
    "negation": {"kind"},
    "advdet": {"det"},
}
# the keys that are bare flags: one given a value is a load error, since
# droppable=false would read as droppable
_FLAGS = {"droppable", "object", "copula"}
# a row's attributes: key -> value, None for a key written bare
_Attrs = dict[str, Optional[str]]

NEGATION_KINDS = ("ma", "malgo", "anh", "preverbal")

_ENDING_KINDS = {"int": EndingKind.INTERROGATIVE, "imp": EndingKind.IMPERATIVE}

# the condition a suffix row puts on the character before it, compiled at
# load into the hangul.tail values that character may have (None: any). A
# josa or vocative row spells it cond=<name>, where a character that is no
# syllable (tail -1) reads as open; an ending row spells it prev_coda=<final
# consonant>, which only a syllable closed by that consonant meets
_CLOSED = frozenset(range(1, len(hangul.TAILS)))
_CONDITIONS = {
    "cond": {
        "any": None,
        "batchim": _CLOSED,
        "no_batchim": frozenset({-1, hangul.TAIL_NONE}),
        "open_or_rieul": frozenset({-1, hangul.TAIL_NONE, hangul.TAIL_RIEUL}),
        "batchim_not_rieul": _CLOSED - {hangul.TAIL_RIEUL},
    },
    "prev_coda": {coda: frozenset({i}) for i, coda in enumerate(hangul.TAILS) if coda},
}


# every table, by attribute name and type; parse_lexicon fills an empty one of
# each, and Lexicon freezes the sets
TABLES = {
    "josa": dict[str, Josa],
    "vocative": dict[str, Optional[frozenset[int]]],  # surface -> prev_tails
    "endings": dict[str, Ending],
    "cues": set[tuple[str, ...]],  # want-to-know prefixes
    "wh_surfaces": dict[str, ArgumentCategory],
    "wh_pairs": dict[tuple[str, str], ArgumentCategory],
    "negation": dict[str, str],  # surface -> kind
    "disjunction": set[str],  # A 아니면 B: not a -면 conditional
    "danger": set[str],
    "danger_pairs": set[tuple[str, str]],
    "infoverbs": set[str],
    "advdet": dict[str, str],
    "lightverb_stems": set[str],
    "pronouns": set[str],
    "knowstems": set[str],
    "depnouns": set[str],
    "connectives": set[str],
    "nostrip": set[str],
}


def _suffix_index(surfaces: Iterable[str]) -> dict[str, tuple[int, ...]]:
    """Last character -> the distinct lengths of the surfaces that end in it,
    longest first: a token is probed only at the lengths its last character
    allows, and one whose last character is no key ends no surface."""
    by_final: dict[str, set[int]] = {}
    for s in surfaces:
        by_final.setdefault(s[-1], set()).add(len(s))
    return {final: tuple(sorted(ks, reverse=True)) for final, ks in by_final.items()}


class Lexicon:
    """Every correspondence table, plus the lookup indexes built from them here.

    The set tables are stored as frozensets, so mutating one raises, and the
    indexes are built once and never change. The dict tables are read-only
    by convention only (``MappingProxyType`` would slow every lookup on the
    hot path): editing one would leave its index stale."""

    __slots__ = (
        *TABLES,
        "josa_ends",
        "ending_ends",
        "negation_ends",
        "danger_ends",
        "connective_ends",
        "_preverbals",
        "_wh_re",
        "_wh_anchor_re",
        "_wh_pairs_by_first",
        "cue_starts",
        "cue_length",
    )

    def __init__(self, **tables) -> None:
        for name in TABLES:
            table = tables[name]
            setattr(self, name, frozenset(table) if isinstance(table, set) else table)
        # one suffix index per suffix table; its keys are the table's gate
        self.josa_ends = _suffix_index(self.josa)
        self.ending_ends = _suffix_index(self.endings)
        self.negation_ends = _suffix_index(self.negation)
        self.danger_ends = _suffix_index(self.danger)
        self.connective_ends = _suffix_index(self.connectives)
        preverbals = [s for s, kind in self.negation.items() if kind == "preverbal"]
        self._preverbals = tuple(sorted(preverbals, key=len, reverse=True))  # longest first
        # at each position the first alternative wins, so list longer surfaces
        # first; an empty alternation would match everywhere, (?!) matches nowhere
        wh_by_len = sorted(self.wh_surfaces, key=len, reverse=True)
        self._wh_re = re.compile("|".join(map(re.escape, wh_by_len)) or "(?!)")
        anchors = sorted({*self.wh_surfaces, *(a for a, _ in self.wh_pairs)})
        self._wh_anchor_re = re.compile("|".join(map(re.escape, anchors)) or "(?!)")
        # first stem -> (second stem, kind), longest second stem first
        pairs: dict[str, list[tuple[str, ArgumentCategory]]] = {}
        for (a, b), kind in sorted(self.wh_pairs.items(), key=lambda kv: -len(kv[0][1])):
            pairs.setdefault(a, []).append((b, kind))
        self._wh_pairs_by_first = {a: tuple(bs) for a, bs in pairs.items()}
        # first character of the final part -> the cues, in match order: most
        # parts first, then the longer final part; its keys are the cue
        # table's gate, since only a token that starts a final part ends a cue
        by_start: dict[str, list[tuple[str, ...]]] = {}
        for parts in sorted(self.cues, key=lambda p: (-len(p), -len(p[-1]), p)):
            by_start.setdefault(parts[-1][0], []).append(parts)
        self.cue_starts = {start: tuple(cues) for start, cues in by_start.items()}
        # the most parts of any cue: match_cue reads no more tokens than this
        self.cue_length = max(map(len, self.cues), default=0)
        self._validate()

    def _validate(self) -> None:
        overlap = set(self.josa) & set(self.endings)
        if overlap:
            raise LexiconError(f"surfaces in both josa and ending roles: {sorted(overlap)}")

    # -- queries -------------------------------------------------------

    def longest_josa(self, token: str, droppable_only: bool = False) -> Optional[str]:
        """Longest particle suffix of ``token`` passing its batchim condition."""
        n = len(token)
        josa = self.josa
        for k in self.josa_ends.get(token[-1:], ()):
            if k >= n:
                continue
            entry = josa.get(token[-k:])
            if entry is None or (droppable_only and not entry.droppable):
                continue
            if entry.prev_tails is None or hangul.tail(token[-k - 1]) in entry.prev_tails:
                return entry.surface
        return None

    def match_ending(self, token: str) -> Optional[Ending]:
        """Longest sentence-final ending that matches the end of ``token``."""
        n = len(token)
        for k in self.ending_ends.get(token[-1:], ()):
            if k > n:
                continue
            entry = self.endings.get(token[-k:])
            if entry is None:
                continue
            tails = entry.prev_tails
            if tails is None or (k < n and hangul.tail(token[-k - 1]) in tails):
                return entry
        return None

    def lookup_wh(self, token: str) -> Optional[WhMatch]:
        """Leftmost wh surface form in ``token``, the longest one there
        (single-token forms)."""
        m = self._wh_re.search(token)
        if m is None:
            return None
        return WhMatch(self.wh_surfaces[m.group()], m.start(), m.end())

    def wh_anchors(self, text: str) -> list[int]:
        """Start offsets of the wh surfaces and first stems of wh pairs in
        ``text``, left to right, matches not overlapping; where there is
        none, no token of ``text`` can hold a wh form."""
        return list(map(re.Match.start, self._wh_anchor_re.finditer(text)))

    def lookup_wh_pair(self, stem_a: str, stem_b: str) -> Optional[ArgumentCategory]:
        """Two-token wh form (counting interrogatives like 몇 시)."""
        for b, kind in self._wh_pairs_by_first.get(stem_a, ()):
            if stem_b.startswith(b):
                return kind
        return None

    def match_cue(self, tokens: Sequence[str]) -> Optional[tuple[str, ...]]:
        """Want-to-know cue at the end of the token sequence.

        All parts but the last match tokens exactly; the last part is a
        prefix of the final token (궁금* covers 궁금해 / 궁금한데 / ...).
        Of the cues that match, the one with the most parts wins, then the
        one with the longer final part.
        """
        if not tokens:
            return None
        for parts in self.cue_starts.get(tokens[-1][:1], ()):
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
        last = toks[-1]
        for k in self.danger_ends.get(last[-1:], ()):
            if last[-k:] in self.danger:
                return True
        return len(toks) >= 2 and (toks[-2], last) in self.danger_pairs

    def strip_preverbal(self, core: str) -> str:
        """``core`` without a fused preverbal negator (안매 -> 매)."""
        for neg in self._preverbals:
            if len(core) > len(neg) and core.startswith(neg):
                return core[len(neg) :]
        return core

    def strip_josa_all(self, surface: str, droppable_only: bool = False) -> str:
        """Repeatedly strip particle suffixes (stacked particles like 에서는)."""
        stem = surface
        while len(stem) > 1 and stem not in self.nostrip:
            suffix = self.longest_josa(stem, droppable_only=droppable_only)
            if suffix is None:
                break
            stem = stem[: -len(suffix)]
        return stem


def parse_lexicon(lines: Iterable[str], source: str = "<lexicon>") -> Lexicon:
    tables = {name: table() for name, table in TABLES.items()}
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise LexiconError(f"{source}:{lineno}: expected role<TAB>surface")
        role, surface = parts[0].strip(), parts[1].strip()
        where = f"{source}:{lineno}"
        attrs = _parse_attrs(parts[2] if len(parts) > 2 else "", where)
        if role not in ROLES:
            raise LexiconError(f"{where}: unknown role {role!r}")
        for key, value in attrs.items():
            if key not in _ROLE_KEYS.get(role, ()):
                raise LexiconError(f"{where}: unknown attribute {key} for {role}")
            if key in _FLAGS and value is not None:
                raise LexiconError(f"{where}: flag {key} takes no value: {key}={value}")
        if not surface:
            raise LexiconError(f"{where}: empty surface")
        if role not in ("cue", "wh", "danger"):
            _words(surface, where, most=1)  # the other roles match one token
        if (role, surface) in seen:
            raise LexiconError(f"{where}: duplicate entry {role} {surface!r}")
        seen.add((role, surface))
        _add_entry(tables, role, surface, attrs, where)
    return Lexicon(**tables)


def _parse_attrs(text: str, where: str) -> _Attrs:
    attrs: _Attrs = {}
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = map(str.strip, chunk.partition("="))
        if key in attrs:
            raise LexiconError(f"{where}: attribute {key} given twice")
        attrs[key] = value if eq else None
    return attrs


_SHAPES = ("words split by single spaces", "one word", "one or two words split by single spaces")


def _words(surface: str, where: str, most: int = 0) -> tuple[str, ...]:
    """The tokens a row's surface spans, at most ``most`` of them (0: any
    number): a token holds no whitespace, so only words split by single
    spaces can match."""
    words = tuple(surface.split())
    if " ".join(words) != surface or 0 < most < len(words):
        raise LexiconError(f"{where}: {surface!r} is not {_SHAPES[most]}")
    return words


def _add_entry(t: dict, role: str, surface: str, attrs: _Attrs, where: str) -> None:
    if role in _SET_ROLES:
        t[_SET_ROLES[role]].add(surface)
    elif role == "josa":
        tails = _prev_tails(attrs, "cond", where)
        t["josa"][surface] = Josa(surface, tails, "droppable" in attrs, "object" in attrs)
    elif role == "vocative":
        t["vocative"][surface] = _prev_tails(attrs, "cond", where)
    elif role == "ending":
        kind = _ENDING_KINDS.get(attrs.get("kind", ""))
        if kind is None:
            raise LexiconError(f"{where}: ending needs kind=int|imp")
        stem = attrs.get("stem", "")
        if stem is None:
            raise LexiconError(f"{where}: stem needs a value: stem=<stem>")
        t["endings"][surface] = Ending(
            surface,
            kind,
            copula="copula" in attrs,
            prev_tails=_prev_tails(attrs, "prev_coda", where),
            stem=stem,
        )
    elif role == "cue":
        t["cues"].add(_words(surface, where))
    elif role == "wh":
        category = _WH_CATEGORIES.get(attrs.get("category", ""))
        if category is None:
            raise LexiconError(f"{where}: bad wh category {attrs.get('category')!r}")
        words = _words(surface, where, most=2)
        if len(words) == 2:
            t["wh_pairs"][words] = category
        else:
            t["wh_surfaces"][surface] = category
    elif role == "negation":
        kind = attrs.get("kind", "")
        if kind not in NEGATION_KINDS:
            raise LexiconError(f"{where}: negation needs kind=ma|malgo|anh|preverbal")
        t["negation"][surface] = kind
    elif role == "danger":
        words = _words(surface, where, most=2)
        if len(words) == 2:
            t["danger_pairs"].add(words)
        else:
            t["danger"].add(surface)
    elif role == "advdet":
        det = attrs.get("det")
        if not det:
            raise LexiconError(f"{where}: advdet needs det=<determiner>")
        t["advdet"][surface] = det


def _prev_tails(attrs: _Attrs, key: str, where: str) -> Optional[frozenset[int]]:
    if key not in attrs:
        return None
    value, spellings = attrs[key], _CONDITIONS[key]
    if value is None:
        raise LexiconError(f"{where}: bad condition {key}, which needs a value: {key}=<spelling>")
    if value not in spellings:
        raise LexiconError(f"{where}: bad condition {key}={value!r}")
    return spellings[value]


def load_lexicon(path: str | os.PathLike[str]) -> Lexicon:
    """Load a lexicon TSV from disk; a path that cannot be read, or a file
    that is not UTF-8, raises ``LexiconError``."""
    source = os.fspath(path)
    try:
        with open(source, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {source}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LexiconError(f"{source}:{lineno}: not UTF-8 ({exc.reason})") from None
    # newline=None splits lines as reading the file in text mode does
    return parse_lexicon(io.StringIO(text, newline=None), source=source)


_BUNDLED = os.path.join(os.path.dirname(__file__), "data", "default_lexicon.tsv")
_DEFAULT: Optional[Lexicon] = None


def default_lexicon() -> Lexicon:
    """The bundled tables, parsed once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        try:
            with open(_BUNDLED, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:  # not a file on disk, as in a zip import
            from importlib import resources

            text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
        _DEFAULT = parse_lexicon(text.splitlines(), source="default_lexicon.tsv")
    return _DEFAULT
