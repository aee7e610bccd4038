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
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


class Josa(NamedTuple):
    surface: str
    prev_tails: Optional[frozenset[int]]  # see _COND
    droppable: bool  # case particle a command argument may lose
    object: bool = False  # object case particle: a quantifier goes before its noun


class Ending(NamedTuple):
    surface: str
    kind: EndingKind
    copula: bool = False
    prev_tails: Optional[frozenset[int]] = None  # see _PREV_CODA
    stem: str = ""  # lexical stem recovered when the suffix is the whole token
    twin: Optional[str] = None  # the other form of a polite pair (래 <-> 래요)


class WhMatch(NamedTuple):
    kind: ArgumentCategory
    start: int
    end: int


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
    "requests": set[str],  # request endings after an info verb's -어 form
    "advdet": dict[str, str],
    "lightverb_stems": set[str],
    "pronouns": set[str],
    "knowstems": set[str],
    "depnouns": set[str],
    "connectives": set[str],
    "nostrip": set[str],
}

# a key's parser: FLAG, a bare key that reads as True (given a value it is a
# load error, since droppable=false would read as droppable); VALUE, any value
# but the empty one, kept as written; or a dict from each spelling of the
# value to what it compiles to
FLAG, VALUE = "flag", "value"

# the condition a suffix row puts on the character before it, compiled at
# load into the hangul.tail values that character may have (None: any). A
# josa or vocative row spells it cond=<name>, where a character that is no
# syllable (tail -1) reads as open; an ending row spells it prev_coda=<final
# consonant>, which only a syllable closed by that consonant meets
_CLOSED = frozenset(range(1, len(hangul.TAILS)))
_COND = {
    "any": None,
    "batchim": _CLOSED,
    "no_batchim": frozenset({-1, hangul.TAIL_NONE}),
    "open_or_rieul": frozenset({-1, hangul.TAIL_NONE, hangul.TAIL_RIEUL}),
    "batchim_not_rieul": _CLOSED - {hangul.TAIL_RIEUL},
}
_PREV_CODA = {coda: frozenset({i}) for i, coda in enumerate(hangul.TAILS) if coda}


class Role(NamedTuple):
    """How the rows of one role are read. A surface of n words fills
    ``tables[n - 1]``, or the last table for more, and spans at most
    ``most`` words (0: any number). ``keys`` maps each attribute key the
    role reads to its parser, and a row must give each key in ``required``.
    ``build`` makes a dict table's value from the surface and the parsed
    keys; a role without one fills a set. A ``twin`` role's build also
    takes, as ``twin``, the other form of a polite row's pair (None for a
    row without the flag)."""

    tables: tuple[str, ...]
    most: int = 1
    keys: dict[str, object] = {}
    required: tuple[str, ...] = ()
    build: Optional[Callable[..., object]] = None
    twin: bool = False


# every role a row may have; parse_lexicon reads each row through its entry
ROLE_SCHEMA = {
    "josa": Role(
        ("josa",),
        keys={"cond": _COND, "droppable": FLAG, "object": FLAG},
        build=lambda s, cond=None, droppable=False, object=False: Josa(s, cond, droppable, object),
    ),
    "vocative": Role(("vocative",), keys={"cond": _COND}, build=lambda s, cond=None: cond),
    "ending": Role(
        ("endings",),
        keys={
            "kind": {"int": EndingKind.INTERROGATIVE, "imp": EndingKind.IMPERATIVE},
            "copula": FLAG,
            "prev_coda": _PREV_CODA,
            "stem": VALUE,
            "polite": FLAG,
        },
        required=("kind",),
        build=lambda s, kind, twin, copula=False, prev_coda=None, stem="": Ending(
            s, kind, copula, prev_coda, stem, twin
        ),
        twin=True,
    ),
    "cue": Role(("cues",), most=0),
    "wh": Role(
        ("wh_surfaces", "wh_pairs"),
        most=2,
        keys={
            "category": {
                "who": ArgumentCategory.PERSON,
                "what": ArgumentCategory.MEANING,
                "where": ArgumentCategory.LOCATION,
                "when": ArgumentCategory.TIME,
                "why": ArgumentCategory.REASON,
                "how": ArgumentCategory.METHOD,
            }
        },
        required=("category",),
        build=lambda s, category: category,
    ),
    "negation": Role(
        ("negation",),
        keys={"kind": {kind: kind for kind in ("ma", "malgo", "anh", "preverbal")}, "polite": FLAG},
        required=("kind",),
        build=lambda s, kind: kind,
    ),
    "disjunction": Role(("disjunction",)),
    "danger": Role(("danger", "danger_pairs"), most=2, keys={"polite": FLAG}),
    "infoverb": Role(("infoverbs",), keys={"polite": FLAG}),
    "request": Role(("requests",), keys={"polite": FLAG}),
    "advdet": Role(("advdet",), keys={"det": VALUE}, required=("det",), build=lambda s, det: det),
    "lightverb": Role(("lightverb_stems",)),
    "pronoun": Role(("pronouns",)),
    "knowstem": Role(("knowstems",)),
    "depnoun": Role(("depnouns",)),
    "connective": Role(("connectives",)),
    "nostrip": Role(("nostrip",)),
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
        "danger_finals",
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
        # the last characters a danger predicate, of one token or two, ends in
        self.danger_finals = frozenset({*self.danger_ends, *(b[-1] for _, b in self.danger_pairs)})
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
        # positional, as Eojeol: test_records pins the field order
        return tuple.__new__(WhMatch, (self.wh_surfaces[m.group()], m.start(), m.end()))

    def wh_anchors(self, text: str) -> list[int]:
        """Start offsets of the wh surfaces and first stems of wh pairs in
        ``text``, left to right, matches not overlapping; where there is
        none, no token of ``text`` can hold a wh form."""
        anchors = self._wh_anchor_re
        m = anchors.search(text)
        if m is None:  # most lines: one search, nothing built
            return []
        # matches are leftmost and never overlap, so the scan from the first
        # one finds what a scan of the whole text finds
        return list(map(re.Match.start, anchors.finditer(text, m.start())))

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

    def is_danger_predicate(self, tokens: Sequence[str]) -> bool:
        """Final predicate (last token, or last two) in the danger table."""
        if not tokens:
            return False
        last = tokens[-1]
        for k in self.danger_ends.get(last[-1:], ()):
            if last[-k:] in self.danger:
                return True
        return len(tokens) >= 2 and (tokens[-2], last) in self.danger_pairs

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
    verbs: list[str] = []  # the infoverb rows' own surfaces
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where = f"{source}:{lineno}"
        parts = line.split("\t")
        if not 2 <= len(parts) <= 3:
            raise LexiconError(f"{where}: expected role<TAB>surface[<TAB>attributes]")
        role, surface = parts[0].strip(), parts[1].strip()
        spec = ROLE_SCHEMA.get(role)
        if spec is None:
            raise LexiconError(f"{where}: unknown role {role!r}")
        fields: dict[str, object] = {}
        for key, value in _parse_attrs(parts[2] if len(parts) == 3 else "", where).items():
            parser = spec.keys.get(key)
            if parser is None:
                raise LexiconError(f"{where}: unknown attribute {key} for {role}")
            if parser is FLAG:
                if value is not None:
                    raise LexiconError(f"{where}: flag {key} takes no value: {key}={value}")
                fields[key] = True
            elif not value or parser is not VALUE and value not in parser:
                raise LexiconError(f"{where}: {_needs(role, key, parser)}")
            else:
                fields[key] = value if parser is VALUE else parser[value]
        for key in spec.required:
            if key not in fields:
                raise LexiconError(f"{where}: {_needs(role, key, spec.keys[key])}")
        # a token holds no whitespace, so only words split by single spaces match
        words = tuple(surface.split())
        if not words or " ".join(words) != surface or 0 < spec.most < len(words):
            raise LexiconError(f"{where}: {surface!r} is not {_SHAPES[spec.most]}")
        name = spec.tables[min(len(words), len(spec.tables)) - 1]
        if role == "infoverb":
            verbs.append(surface)
        forms: dict[tuple[str, ...], Optional[str]] = {words: None}
        if fields.pop("polite", False):
            # the row's polite form too: 요 on its last word, with the same
            # value; each form's twin is the other's last word
            polite = (*words[:-1], words[-1] + "요")
            forms = {words: polite[-1], polite: words[-1]}
        for words, twin in forms.items():
            surface = " ".join(words)
            if (role, surface) in seen:
                raise LexiconError(f"{where}: duplicate entry {role} {surface!r}")
            seen.add((role, surface))
            # a table keyed by tuples holds each surface as its words
            entry = surface if TABLES[name].__args__[0] is str else words
            if spec.build is None:
                tables[name].add(entry)
            elif spec.twin:
                tables[name][entry] = spec.build(surface, twin=twin, **fields)
            else:
                tables[name][entry] = spec.build(surface, **fields)
    # an info verb is also a row's own surface followed by a request entry
    # (말해 + 줘요 -> 말해줘요); a polite twin takes none (말해요)
    tables["infoverbs"].update(verb + request for verb in verbs for request in tables["requests"])
    return Lexicon(**tables)


def _parse_attrs(text: str, where: str) -> dict[str, Optional[str]]:
    """A row's attributes: key -> value, None for a key written bare."""
    attrs: dict[str, Optional[str]] = {}
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = map(str.strip, chunk.partition("="))
        if key in attrs:
            raise LexiconError(f"{where}: attribute {key} given twice")
        attrs[key] = value if eq else None
    return attrs


def _needs(role: str, key: str, parser: object) -> str:
    """The message for a missing or bad value of a key that takes one."""
    return f"{role} needs {key}={f'<{key}>' if parser is VALUE else '|'.join(parser)}"


# the surfaces a role's word limit allows, by that limit
_SHAPES = ("words split by single spaces", "one word", "one or two words split by single spaces")


def load_lexicon(path: str | os.PathLike[str]) -> Lexicon:
    """Load a lexicon TSV from disk; a path that cannot be read, or a file
    that is not UTF-8, raises ``LexiconError``."""
    source = os.fspath(path)
    try:
        with open(source, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {source}: {exc.strerror}") from None
    return _decode_lexicon(data, source)


def _decode_lexicon(data: bytes, source: str) -> Lexicon:
    """The tables of a lexicon file's bytes; bytes that are not UTF-8 raise
    ``LexiconError`` with the line they are on."""
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
    """The bundled tables, parsed once per process; this module's loader
    reads them from a file on disk and from a zip import alike."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _decode_lexicon(__loader__.get_data(_BUNDLED), "default_lexicon.tsv")
    return _DEFAULT
