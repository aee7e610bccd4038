import copy
import json
import os
import re
import subprocess
import sys
import unicodedata
from collections import Counter
from importlib import resources
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fuzz_grammar
import saek
from golden_cases import GOLDEN
from saek import Analyzer, Classifier, Engine, Extractor, hangul
from saek.analyze import Eojeol, WhHit, negative_imperative
from saek.classify import Classification, Evidence, IntentLabel
from saek.errors import EmptyUtterance, LexiconError, Unclassifiable
from saek.lexicon import (
    FLAG,
    ROLE_SCHEMA,
    TABLES,
    VALUE,
    ArgumentCategory,
    EndingKind,
    Lexicon,
    default_lexicon,
    parse_lexicon,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload_gen  # noqa: E402


def test_josa_valid_batchim_conditions(lexicon):
    def valid(stem, particle):
        return lexicon.longest_josa(stem + particle) == particle

    assert valid("늘", "은") is True  # 오늘은
    assert valid("스", "은") is False  # open syllable rejects 은
    assert valid("스", "로") is True  # 버스로
    assert valid("집", "로") is False
    assert valid("집", "으로") is True
    assert valid("달", "로") is True  # ㄹ coda keeps bare 로
    assert valid("달", "으로") is False
    # a rejected 으로 leaves the bare 로 reading of the last syllable
    assert lexicon.longest_josa("달으로") == "로"


def test_lookup_wh(lexicon):
    hit = lexicon.lookup_wh("누구")
    assert hit is not None and hit.kind is ArgumentCategory.PERSON
    assert hit.start == 0 and hit.end == 2
    assert lexicon.lookup_wh("사과") is None
    contained = lexicon.lookup_wh("어디야")
    assert contained is not None and contained.kind is ArgumentCategory.LOCATION


def test_lookup_wh_pair(lexicon):
    assert lexicon.lookup_wh_pair("몇", "시") is ArgumentCategory.TIME
    assert lexicon.lookup_wh_pair("몇", "시간") is ArgumentCategory.TIME
    assert lexicon.lookup_wh_pair("몇", "사과") is None
    assert lexicon.lookup_wh_pair("아무", "시") is None


def test_a_wh_pair_hit_ends_at_the_second_tokens_stem(engine):
    # 몇 시 covers 몇 시간 by prefix, and the hit ends where the stem 시간 does
    assert ("몇", "시간") not in engine.lexicon.wh_pairs
    record = engine.process("몇 시간 공부했니")
    assert (record.label, record.argument) == (2, "공부한 시간")
    assert record.evidence == (Evidence("wh-word", (0, 4)),)


def test_every_role_and_ending_kind_has_a_bundled_row(lexicon):
    # a pseudo-kind no Ending carries, or a role no row uses, cannot come back
    assert {e.kind for e in lexicon.endings.values()} == set(EndingKind)
    roles = {row.split("\t")[0] for row in _default_rows() if row and not row.startswith("#")}
    assert roles == set(ROLE_SCHEMA)


def test_ending_roles_disjoint_from_josa(lexicon):
    assert not set(lexicon.josa) & set(lexicon.endings)


def test_no_danger_row_ends_in_an_interrogative_ending(lexicon):
    # the cascade returns at a wh, alternative or polar step before the
    # danger steps, so such a row could never fire
    finals = [*lexicon.danger, *(last for _, last in lexicon.danger_pairs)]
    endings = [lexicon.match_ending(s) for s in finals]
    assert [s for s, e in zip(finals, endings) if e and e.kind is EndingKind.INTERROGATIVE] == []


def test_match_ending_longest_and_conditions(lexicon):
    assert lexicon.match_ending("도착이야").surface == "이야"
    assert lexicon.match_ending("올거야").surface == "거야"
    assert lexicon.match_ending("했어").kind is EndingKind.INTERROGATIVE
    assert lexicon.match_ending("바랍니다").kind is EndingKind.IMPERATIVE
    assert lexicon.match_ending("사과") is None
    # formal -ㅂ니까 needs the ㅂ coda on the previous syllable
    assert lexicon.match_ending("합니까") is not None
    assert lexicon.match_ending("합니까").surface == "니까"


def test_category_enumeration_split():
    questions = {"여부", "선택", "사람", "의미", "위치", "시간", "이유", "방법"}
    commands = {"금지", "요구"}
    assert {c.value for c in ArgumentCategory} == questions | commands


def test_unknown_role_is_load_error():
    with pytest.raises(LexiconError, match="unknown role"):
        parse_lexicon(["bogus\t가\t"])


def test_duplicate_entry_is_load_error():
    with pytest.raises(LexiconError, match="duplicate"):
        parse_lexicon(
            [
                "josa\t은\tcond=batchim",
                "josa\t은\tcond=batchim",
            ]
        )


def test_a_polite_form_a_row_repeats_is_a_duplicate_entry():
    # whichever comes first, the flagged row's 요 form or the row spelling it
    flagged, spelt = "ending\t까\tkind=int;polite", "ending\t까요\tkind=int"
    for lines in ([flagged, spelt], [spelt, flagged]):
        with pytest.raises(LexiconError, match=r"^<lexicon>:2: duplicate entry ending '까요'$"):
            parse_lexicon(lines)
    with pytest.raises(LexiconError, match=r"^<lexicon>:2: duplicate entry danger '안 돼요'$"):
        parse_lexicon(["danger\t안 돼\tpolite", "danger\t안 돼요"])


# the rows that spelt an informal form plus 요 before the polite flag, as they
# were bundled; each base row is now flagged polite instead
DOUBLED_ROWS = [
    "ending\t어요\tkind=int",
    "ending\t아요\tkind=imp",
    "ending\t해요\tkind=imp;stem=하",
    "ending\t래요\tkind=int",
    "ending\t줘요\tkind=imp;stem=주",
    "ending\t인가요\tkind=int;copula",
    "ending\t부탁해요\tkind=imp",
    "negation\t마요\tkind=ma",
    "negation\t말아요\tkind=ma",
    "danger\t위험해요",
    "danger\t안돼요",
    "danger\t안 돼요",
    "infoverb\t말해요",
    "infoverb\t말해줘요",
    "infoverb\t알려줘요",
]


@pytest.mark.parametrize("row", DOUBLED_ROWS)
def test_each_doubled_row_loads_from_its_flagged_base(lexicon, row):
    role, surface = row.split("\t")[:2]
    spelt = {tuple(r.split("\t")[:2]) for r in _default_rows() if not r.startswith("#")}
    # the base is a row, or for an info verb a row's form plus a request row
    # (말해줘: 말해 + 줘), so the 요 form comes from the request row's flag
    verbs = [r[1] for r in spelt if r[0] == "infoverb"]
    fused = {("infoverb", v + r[1]) for v in verbs for r in spelt if r[0] == "request"}
    assert (role, surface) not in spelt and (role, surface[:-1]) in spelt | fused
    # the entry the row loaded, in its table with its value, loads still; an
    # ending is marked as the polite twin of its base
    alone = parse_lexicon([row])
    (name,) = [name for name in TABLES if getattr(alone, name)]
    table = getattr(alone, name)
    if role == "ending":
        table = {k: e._replace(twin=k[:-1]) for k, e in table.items()}
    if isinstance(table, dict):
        assert {k: getattr(lexicon, name).get(k) for k in table} == table
    else:
        assert table <= getattr(lexicon, name)


def test_plain_and_formal_forms_load_no_polite_form(engine, lexicon):
    # their polite counterparts are other endings (Sohn 1999), and the 요
    # forms of 큰일나 and 혼나 end in the interrogative 나요
    assert {s + "요" for s in ("니", "냐", "야", "라", "자", "세요", "습니까")}.isdisjoint(lexicon.endings)
    assert "마라요" not in lexicon.negation
    assert {"큰일나요", "혼나요"}.isdisjoint(lexicon.danger)
    # 아니요 is an answer, not 아니 plus a polite question ending
    assert engine.process("아니요").error == "unclassifiable"


def test_a_whnoun_row_is_an_unknown_role():
    # a wh argument ends in its category's word, which no row sets
    with pytest.raises(LexiconError, match=r"^<lexicon>:1: unknown role 'whnoun'$"):
        parse_lexicon(["whnoun\t사람\tcategory=who"])


def test_a_lexicon_without_rows_loads_and_processes_every_line():
    engine = Engine(parse_lexicon([]))
    records = [engine.process(line) for line in workload_gen.reference_lines()]
    assert {r.error for r in records} == {"unclassifiable"}


def test_overlapping_josa_and_ending_is_load_error():
    lines = [
        "josa\t어\t",
        "ending\t어\tkind=int",
    ]
    with pytest.raises(LexiconError, match="both josa and ending"):
        parse_lexicon(lines)


def test_tables_behave_identically_across_instances():
    text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
    a, b = default_lexicon(), parse_lexicon(text.splitlines())
    for token in ["오늘은", "버스로", "사과", "일정을", "학교에서는"]:
        assert a.longest_josa(token) == b.longest_josa(token)
    for token in ["했어", "바랍니다", "올거야", "도착이야", "사과"]:
        assert (a.match_ending(token) is None) == (b.match_ending(token) is None)
        if a.match_ending(token):
            assert a.match_ending(token) == b.match_ending(token)


def test_negation_rows_drive_behaviour():
    text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
    extra = ["negation\t말구\tkind=malgo", "negation\t아니\tkind=preverbal"]
    engine = Engine(parse_lexicon(text.splitlines() + extra))
    coordinated = engine.process("놀지 말구 공부해")
    assert (coordinated.label, coordinated.argument) == (5, "공부하기")
    double_negation = engine.process("아니 먹으면 혼나")
    assert (double_negation.label, double_negation.argument) == (5, "먹기")


def test_object_flag_places_the_quantifier():
    rows = _default_rows()
    text = "그 책을 오늘 모두 알려줘"
    assert Engine(parse_lexicon(rows)).process(text).argument == "그 모든 책 오늘"
    plain = [row.replace(";object", "") for row in rows]
    # with no object particle the determiner goes before the last noun
    assert Engine(parse_lexicon(plain)).process(text).argument == "그 책 모든 오늘"


def test_disjunction_row_drives_behaviour():
    text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
    engine = Engine(parse_lexicon(text.splitlines() + ["disjunction\t혹은"]))
    record = engine.process("버스 타 혹은 택시 탈래")
    assert (record.label, record.argument) == (1, "버스 타 택시 중 탈 것")
    without = [line for line in text.splitlines() if not line.startswith("disjunction\t")]
    assert Engine(parse_lexicon(without)).process("버스 타 아니면 택시 탈래").label == 0


def _default_rows() -> list[str]:
    return resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8").splitlines()


# rows that overlap the default ones: nested cues, connectives, danger and
# negator suffixes, surfaces holding regex metacharacters, and suffixes under
# the conditions the default rows leave out, one of them flagged polite (its
# conditioned 까나요 overlaps the bundled 나요)
EXTRA_ROWS = [
    "josa\t께\tcond=batchim_not_rieul",
    "josa\t마저\tcond=any",
    "vocative\t여\tcond=open_or_rieul",
    "ending\t까나\tkind=int;prev_coda=ㄹ;polite",
    "ending\t니다\tkind=int;prev_coda=ㅂ",
    "cue\t좀 궁금",
    "cue\t너무 좀 궁금",
    "cue\t궁",
    "cue\t너무 궁",
    "wh\t뭐.\tcategory=what",
    "wh\t(누구|뭐)\tcategory=who",
    "wh\t몇 시간이\tcategory=when",
    "josa\t.*\t",
    "josa\t[은]\tcond=batchim",
    "connective\t서",
    "danger\t나",
    "negation\t고\tkind=ma",
    "negation\t말지고\tkind=malgo",
]


def test_no_single_token_wh_rows_gives_no_hit():
    lex = parse_lexicon(["wh\t몇 시\tcategory=when"])
    for token in ["", "누구", "몇", "a.b", "뭐야"]:
        assert lex.lookup_wh(token) is None
    assert lex.lookup_wh_pair("몇", "시에") is ArgumentCategory.TIME


def _scan_anchors(lex, text):
    return [m.start() for m in lex._wh_anchor_re.finditer(text)]


def test_gated_wh_anchors_equal_a_scan_of_the_whole_text(lexicon, fixtures_dir):
    # wh_anchors searches once and scans on from the first match only; the
    # matches of a scan of the whole text are leftmost and never overlap, so
    # the two lists are the same
    rows = (fixtures_dir / "minimal_pairs.tsv").read_text("utf-8").splitlines()
    texts = workload_gen.reference_lines() + [r.split("\t")[1] for r in rows]
    texts += [g[0] for g in GOLDEN]
    hits = 0
    for text in texts:
        anchors = lexicon.wh_anchors(text)
        assert anchors == _scan_anchors(lexicon, text), text
        hits += bool(anchors)
    assert 0 < hits < len(texts)
    # no wh row at all, and a first wh stem found only in a pair
    empty = parse_lexicon([])
    assert empty.wh_anchors("뭐 먹을래") == [] == _scan_anchors(empty, "뭐 먹을래")
    pair = parse_lexicon(["wh\t몇 시\tcategory=when"])
    for text in ["몇 시에 와", "사과 몇 개 몇 시", "시 몇몇", "사과 줘", "몇"]:
        assert pair.wh_anchors(text) == _scan_anchors(pair, text), text
    assert pair.wh_anchors("사과 몇 개 몇 시") == [3, 7]


def test_metacharacter_surfaces_match_literally():
    lex = parse_lexicon(["wh\ta.b\tcategory=what", "wh\t(뭐|왜)\tcategory=why", "josa\t.*\t"])
    assert lex.lookup_wh("xa.by") == (ArgumentCategory.MEANING, 1, 4)
    assert lex.lookup_wh("axb") is None
    assert lex.lookup_wh("(뭐|왜)야") == (ArgumentCategory.REASON, 0, 5)
    assert lex.lookup_wh("뭐") is None and lex.lookup_wh("왜") is None
    assert lex.longest_josa("사과.*") == ".*"
    assert lex.longest_josa("사과요") is None


# prints match_cue for each token sequence; run once per hash seed
CUE_PROBE = """
import json, sys
from saek.lexicon import parse_lexicon
lex = parse_lexicon(json.loads(sys.argv[1]))
print(json.dumps([lex.match_cue(tokens) for tokens in json.loads(sys.argv[2])]))
"""


def test_match_cue_most_parts_then_longest_final():
    rows = _default_rows() + EXTRA_ROWS
    probes = [
        ["어디", "갔는지", "너무", "좀", "궁금해"],
        ["어디", "갔는지", "좀", "궁금해"],
        ["어디", "갔는지", "궁금해"],
        ["궁해"],
        ["너무", "좀", "궁해"],
        ["궁금"],
        ["사과"],
    ]
    expected = [["너무", "좀", "궁금"], ["좀", "궁금"], ["궁금"], ["궁"], ["궁"], ["궁금"], None]
    src = str(Path(saek.__file__).resolve().parents[1])
    for seed in range(1, 9):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed), PYTHONIOENCODING="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", CUE_PROBE, json.dumps(rows), json.dumps(probes)],
            env=env,
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
            check=True,
        )
        assert json.loads(proc.stdout) == expected, f"PYTHONHASHSEED={seed}"


def test_set_tables_are_frozen(lexicon):
    with pytest.raises(AttributeError):
        lexicon.pronouns.add("그분")
    for name, table in TABLES.items():
        value = getattr(lexicon, name)
        assert isinstance(value, dict if table.__origin__ is dict else frozenset), name


# -- indexed lookups equal a brute-force scan of the tables --------------------


def coda(ch):
    """The name of the final consonant of syllable ``ch`` ('' when it is
    open), read from its NFD jamo, not through ``saek.hangul``; None for
    anything that is no syllable, as for the missing character before a
    suffix that is the whole token."""
    if len(ch) != 1 or not "가" <= ch <= "힣":
        return None
    jamo = unicodedata.normalize("NFD", ch)
    return unicodedata.name(jamo[2]).removeprefix("HANGUL JONGSEONG ") if len(jamo) == 3 else ""


# README's cond= names, by the coda of the character before the suffix; a
# character that is no syllable reads as open
COND = {
    "any": lambda c: True,
    "batchim": lambda c: c not in (None, ""),
    "no_batchim": lambda c: c in (None, ""),
    "open_or_rieul": lambda c: c in (None, "", "RIEUL"),
    "batchim_not_rieul": lambda c: c not in (None, "", "RIEUL"),
}


def admits(condition, prev):
    """Whether ``prev``, the character before a suffix ('' for none), meets
    ``condition``: a row's (key, value) pair, or None for a row without one."""
    if condition is None:
        return True
    key, value = condition
    if key == "cond":
        return COND[value](coda(prev))
    # prev_coda=<final consonant>: only a syllable closed by it
    return coda(prev) == unicodedata.name(value).removeprefix("HANGUL LETTER ")


def row_conditions(rows):
    """(role, surface) -> the condition its row spells, for the suffix rows;
    a polite row's 요 form has the row's condition."""
    found = {}
    for row in rows:
        role, surface, attrs = (row.split("\t") + ["", ""])[:3]
        flags = {c.strip() for c in attrs.split(";")}
        attrs = dict(map(str.strip, c.split("=", 1)) for c in attrs.split(";") if "=" in c)
        key = {"josa": "cond", "vocative": "cond", "ending": "prev_coda"}.get(role)
        if key in attrs:
            for form in [surface, surface + "요"] if "polite" in flags else [surface]:
                found[role, form] = (key, attrs[key])
    return found


def josa_scan(lex, conds, token, droppable_only):
    fits = [
        s
        for s, entry in lex.josa.items()
        if (entry.droppable or not droppable_only)
        and token.endswith(s)
        and len(token) > len(s)
        and admits(conds.get(("josa", s)), token[-len(s) - 1])
    ]
    return max(fits, key=len, default=None)


def ending_scan(lex, conds, token):
    def fits(e):
        before = token[: -len(e.surface)]
        return token.endswith(e.surface) and admits(conds.get(("ending", e.surface)), before[-1:])

    return max((e for e in lex.endings.values() if fits(e)), key=lambda e: len(e.surface), default=None)


def wh_scan(lex, token):
    hits = [(token.find(s), -len(s), s) for s in lex.wh_surfaces if s in token]
    if not hits:
        return None
    pos, _, s = min(hits)
    return (lex.wh_surfaces[s], pos, pos + len(s))


def wh_pair_scan(lex, a, b):
    hits = [(len(y), kind) for (x, y), kind in lex.wh_pairs.items() if x == a and b.startswith(y)]
    return max(hits, key=lambda h: h[0])[1] if hits else None


def cue_scan(lex, tokens):
    hits = [
        parts
        for parts in lex.cues
        if len(tokens) >= len(parts)
        and tokens[-1].startswith(parts[-1])
        and tokens[len(tokens) - len(parts) : -1] == list(parts[:-1])
    ]
    return max(hits, key=lambda p: (len(p), len(p[-1])), default=None)


def danger_scan(lex, tokens):
    if not tokens:
        return False
    if any(tokens[-1].endswith(s) for s in lex.danger):
        return True
    return len(tokens) >= 2 and (tokens[-2], tokens[-1]) in lex.danger_pairs


def cues_scan(lex, surface):
    negation, fused = lex.negation.get(surface), None
    if negation is None:
        for kind in ("ma", "malgo"):
            fits = [n for n, k in lex.negation.items() if k == kind and surface.endswith("지" + n)]
            if fits:
                negation, fused = kind, max(fits, key=len)
                break
    cond = surface.endswith("면") and len(surface) > 1 and surface not in lex.disjunction
    return negation, fused, cond


def preverbal_scan(lex, core):
    fits = [n for n, k in lex.negation.items() if k == "preverbal" and core.startswith(n) and len(core) > len(n)]
    return core[len(max(fits, key=len)) :] if fits else core


def connective_scan(lex, conds, surface):
    """Whether a stem plus a connective ends ``surface``, a connective that
    is a conditioned ending whose condition the surface meets being that
    ending."""
    for conn in lex.connectives:
        if surface.endswith(conn) and len(surface) > len(conn):
            ending = conds.get(("ending", conn))
            if ending is not None and admits(ending, surface[-len(conn) - 1]):
                continue
            return True
    return False


ROWS = {"default": _default_rows(), "extra": _default_rows() + EXTRA_ROWS}
LEXICONS = {name: parse_lexicon(rows) for name, rows in ROWS.items()}
CONDITIONS = {name: row_conditions(rows) for name, rows in ROWS.items()}


def _pieces(lex):
    surfaces = (
        set(lex.josa)
        | set(lex.endings)
        | set(lex.wh_surfaces)
        | set(lex.negation)
        | lex.danger
        | lex.connectives
        | lex.disjunction
        | {p for parts in lex.cues for p in parts}
        | {p for pair in lex.wh_pairs for p in pair}
        | {p for pair in lex.danger_pairs for p in pair}
        | {"지", "면", "으면"}
    )
    return st.one_of(
        st.sampled_from(sorted(surfaces)),
        st.sampled_from(sorted("지" + n for n in lex.negation)),
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.sampled_from("a1.*|()[]?ㅂ"),
    )


@st.composite
def token_lists(draw, lex):
    token = st.lists(_pieces(lex), min_size=1, max_size=4).map("".join)
    tokens = draw(st.lists(token, min_size=1, max_size=5))
    if draw(st.booleans()):
        # end on a cue, so that overlapping cues compete
        parts = draw(st.sampled_from(sorted(lex.cues)))
        tokens += [*parts[:-1], parts[-1] + draw(st.sampled_from(["", "해", "금해"]))]
    return tokens


class _EveryKey(dict):
    """A cue index whose gate admits every character: what the gated callers
    do with it is the scan the gate saves."""

    def __contains__(self, key):
        return True


def ungated(lex):
    wide = copy.copy(lex)
    wide.cue_starts = _EveryKey(lex.cue_starts)
    return wide


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_indexed_lookups_equal_a_table_scan(name):
    lex, conds = LEXICONS[name], CONDITIONS[name]
    analyzer = Analyzer(lex)
    extractor = Extractor(lex)
    classifier, scan_classifier = Classifier(lex), Classifier(ungated(lex))

    @settings(max_examples=300, deadline=None)
    @given(token_lists(lex))
    @example(["가까나요", "갈까나요", "갈까나"])  # a conditioned polite form, met and not
    def check(tokens):
        for token in tokens:
            assert lex.longest_josa(token) == josa_scan(lex, conds, token, False)
            assert lex.longest_josa(token, droppable_only=True) == josa_scan(lex, conds, token, True)
            assert lex.match_ending(token) == ending_scan(lex, conds, token)
            match = lex.lookup_wh(token)
            assert (tuple(match) if match else None) == wh_scan(lex, token)
            assert analyzer._cues(token) == cues_scan(lex, token)
            assert lex.strip_preverbal(token) == preverbal_scan(lex, token)
            assert analyzer._is_connective(token) == connective_scan(lex, conds, token)
        for a, b in zip(tokens, tokens[1:]):
            assert lex.lookup_wh_pair(a, b) == wh_pair_scan(lex, a, b)
        assert lex.match_cue(tokens) == cue_scan(lex, tokens)
        assert lex.is_danger_predicate(tokens) == danger_scan(lex, tokens)
        starts = accumulate((len(s) + 1 for s in tokens[:-1]), initial=0)
        items = [Eojeol(s, at, s) for s, at in zip(tokens, starts)]
        # the cue table's gate: the want-to-know decision and the dropped cue
        # are those of matching every window
        cue = cue_scan(lex, tokens)
        unframed = Classification(IntentLabel.YES_NO, "polar-ending")
        expected = (items[: -len(cue)], "cue") if cue else (items, None)
        assert extractor._drop_want_cue(items, unframed) == expected
        try:
            u = analyzer.normalize(" ".join(tokens))
        except EmptyUtterance:
            return
        assert classify_or_none(classifier, u) == classify_or_none(scan_classifier, u)

    check()


def test_fused_ma_outranks_a_longer_malgo():
    # 고 (ma) and 말지고 (malgo) share one suffix-index entry, longest first;
    # the shorter ma still wins
    lex = LEXICONS["extra"]
    assert Analyzer(lex)._cues("가지말지고") == cues_scan(lex, "가지말지고") == ("ma", "고", False)


@st.composite
def utterances(draw, lex):
    """Token lists as one text, with vocatives (민수야), conditionals (가면)
    and two-token wh forms (몇 시에) mixed in."""
    tokens = draw(token_lists(lex))
    marker = st.sampled_from(["", "야", "아", "여", "면", "으면"])
    tokens = [t + draw(marker) if draw(st.booleans()) else t for t in tokens]
    if draw(st.booleans()):
        name = draw(st.text(alphabet="민수지영철", min_size=2, max_size=3))
        tokens.insert(draw(st.integers(0, len(tokens))), name + "야")
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(sorted(lex.wh_pairs)))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = [a, b + draw(st.sampled_from(["", "에", "이", "만"]))]
    return " ".join(tokens)


def vocative_scan(lex, conds, surfaces, index):
    """The vocative test with the negator test of ``cues_scan``, and the
    final-position branch matching an ending and ``cues_scan`` on every
    earlier surface."""
    surface = surfaces[index]
    marker, stem = surface[-1], surface[:-1]
    if len(surface) < 3 or marker not in lex.vocative or not all(hangul.is_syllable(c) for c in stem):
        return False
    ending = lex.match_ending(surface)
    if not admits(conds.get(("vocative", marker)), stem[-1]) or (ending is not None and len(ending.surface) > 1):
        return False
    if cues_scan(lex, surface)[0] is not None or lex.lookup_wh(stem) is not None:
        return False
    return index < len(surfaces) - 1 or any(
        lex.match_ending(s) is not None or cues_scan(lex, s) != (None, None, False) for s in surfaces[:index]
    )


def wh_hits_scan(lex, tokens):
    """The wh hits as a loop that looks up every token gives them: a
    two-token form first, then the stem, then the surface."""
    hits = []
    i = 0
    while i < len(tokens):
        start = tokens[i].start
        if i + 1 < len(tokens):
            pair = lex.lookup_wh_pair(tokens[i].stem, tokens[i + 1].stem)
            if pair is not None:
                end = tokens[i + 1].start + len(tokens[i + 1].stem)
                hits.append(WhHit(pair, i, i + 2, start, end))
                i += 2
                continue
        match = lex.lookup_wh(tokens[i].stem) or lex.lookup_wh(tokens[i].surface)
        if match is not None:
            hits.append(WhHit(match.kind, i, i + 1, start + match.start, start + match.end))
        i += 1
    return tuple(hits)


def question_drop_scan(lex, t, content):
    """The full question rule: a token carries no content for a question
    argument when it or its content is a pronoun, it is a preverbal negator,
    its content is a dependent noun, or it is a bare light verb form."""
    return (
        content in lex.pronouns
        or t.surface in lex.pronouns
        or t.negation == "preverbal"
        or (t.ending is None and content in lex.lightverb_stems)
        or content in lex.depnouns
    )


def token_scan(analyzer, conds, surfaces):
    """The tokens as a loop that looks up every token gives them: the
    vocative test on each, which leaves a vocative out, the offset of each
    token kept, its cues and particle split, and the ending match on the
    last, unless a connective ends it."""
    lex = analyzer.lexicon
    kept = [i for i in range(len(surfaces)) if not analyzer._is_vocative(surfaces, i)]
    offsets = list(accumulate((len(s) + 1 for s in surfaces[:-1]), initial=0))
    tokens = []
    for i in kept:
        surface = surfaces[i]
        negation, fused, cond = analyzer._cues(surface)
        ending = None
        if i == kept[-1] and not connective_scan(lex, conds, surface):
            ending = lex.match_ending(surface)
        if ending is not None:
            stem, particle = surface[: len(surface) - len(ending.surface)], None
        else:
            stem, particle = analyzer.strip_josa(surface)
        tokens.append(Eojeol(surface, offsets[i], stem, particle, ending, negation, fused, cond))
    return tuple(tokens)


def negative_imperative_scan(tokens):
    """The -지 마 rule as a scan of every token."""
    for i, t in enumerate(tokens):
        if t.surface.endswith("지") and i + 1 < len(tokens):
            after = tokens[i + 1]
            if after.negation == "ma" and after.fused is None:
                return i, t.surface
        if t.negation == "ma" and t.fused is not None:
            return i, t.surface[: -len(t.fused)]
    return None


def classify_or_none(classifier, u):
    try:
        return classifier.classify(u)
    except Unclassifiable:
        return None


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_per_utterance_shortcuts_equal_a_full_scan(name):
    """One draw feeds every per-utterance oracle. The want-to-know cue
    matched on the last ``cue_length`` tokens is the one matched on all of
    them. Skipping the lookups on plain tokens, and reading the negation
    cues of the cued tokens alone, give what looking up every token gives.
    The wh text check and the anchor-only token scan drop no wh hit, the
    final-position vocative test probes no ending it needs, a plain token's
    one probe drops what the full question rule drops, and the content
    extract keeps, which goes on from normalize's particle split, is what
    stripping the surface gives. The tokens are the main clause, after the
    last 말고 or connective before the last token, the coordinating 말고 is
    the first one cut off with a -지 host, and a connective on the last
    token leaves it no ending."""
    lex, conds = LEXICONS[name], CONDITIONS[name]
    analyzer = Analyzer(lex)
    classifier = Classifier(lex)
    extractor = Extractor(lex)
    # the shortcut _question_items takes on a plain token
    plain = extractor._plain_droppable
    wide = copy.copy(lex)
    wide.cue_length = 10**6  # every window reaches the first token
    engine, reference = Engine(lex), Engine(wide)

    @settings(max_examples=400, deadline=None)
    @given(utterances(lex))
    @example("몇 시누가 왔니")  # a two-token form takes a token that holds a wh form
    @example("먹었니 사과 민수야")  # a final name call after an earlier predicate
    @example("가면 민수야")  # a final name call after a -(으)면 clause
    @example("나가지말아 거기 어디야 민수야")  # a negator and a wh form are no name calls
    @example("뭐 하니")  # a light-verb stem under an ending is no plain token
    @example("밥 먹었는지 알고 민수야 싶다")  # a vocative inside the cue window
    @example("커피 말고 놀지 말고 공부해")  # the coordinating 말고 is the first with a host
    @example("놀지 오니까 말고 공부해")  # a cut between a -지 token and 말고
    @example("놀지 민수야 말고 공부해")  # a name call between a -지 host and 말고
    def check(text):
        assert engine.process(text) == reference.process(text)
        try:
            u = analyzer.normalize(text)
        except EmptyUtterance:
            return
        surfaces = u.text.split(" ")
        line = token_scan(analyzer, conds, surfaces)
        cuts = [
            i + 1
            for i, t in enumerate(line[:-1])
            if cues_scan(lex, t.surface)[0] == "malgo" or connective_scan(lex, conds, t.surface)
        ]
        tokens = line[max(cuts, default=0) :]  # the main clause
        assert u.tokens == tokens
        # the first cut 말고 with a fused -지 host, or a spaced one that no
        # cut comes between
        coordination = None
        for i in cuts:
            t = line[i - 1]
            negation, fused, _ = cues_scan(lex, t.surface)
            spaced = i > 1 and i - 1 not in cuts and line[i - 2].surface.endswith("지")
            if negation == "malgo" and (fused or spaced):
                coordination = (t.start, t.start + len(t.surface))
                break
        assert u.coordination == coordination
        assert u.cued == tuple(i for i, t in enumerate(tokens) if t.negation or t.conditional)
        every = u._replace(cued=tuple(range(len(u.tokens))))
        assert classify_or_none(classifier, u) == classify_or_none(classifier, every)
        ma = [i for i in u.cued if u.tokens[i].negation == "ma"]
        assert negative_imperative(u.tokens, ma) == negative_imperative_scan(tokens)
        assert u.wh_hits == wh_hits_scan(lex, tokens)
        for i in range(len(surfaces)):
            assert analyzer._is_vocative(surfaces, i) == vocative_scan(lex, conds, surfaces, i)
        for t in u.tokens:
            # a question drops every particle, a command only case particles
            if t.ending is None:
                content = lex.strip_josa_all(t.surface)
                dropped = lex.strip_josa_all(t.surface, droppable_only=True)
            else:
                content = dropped = t.stem  # a token with an ending has no particle
            items, kept = extractor._question_items([t])
            assert (items, kept) == (([], []) if question_drop_scan(lex, t, content) else ([t], [content]))
            pronoun = t.surface in lex.pronouns or dropped in lex.pronouns
            items, kept = extractor._command_items([t])
            assert (items, kept) == (([], []) if pronoun else ([t], [dropped]))

    for s in sorted(lex.pronouns | lex.lightverb_stems | lex.depnouns | {"사과", "하기"}):
        e = Eojeol(s, 0, s)
        assert (s in plain) == question_drop_scan(lex, e, s)
        assert extractor._question_items([e]) == (([], []) if s in plain else ([e], [s]))
    check()


def _lookup_counts(monkeypatch, filler: str, end: str = "먹어") -> list[Counter]:
    """The calls of each per-token lookup in normalizing ``filler * n + end``,
    for n = 10 and n = 1000."""
    calls: Counter = Counter()
    for cls, name in ((Lexicon, "longest_josa"), (Lexicon, "match_ending"), (Analyzer, "_cues")):

        def counted(self, *args, _name=name, _original=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    analyzer = Analyzer(default_lexicon())
    out = []
    for n in (10, 1000):
        calls.clear()
        analyzer.normalize(filler * n + end)
        out.append(Counter(calls))
    return out


def test_plain_tokens_take_no_lookup(monkeypatch):
    plain = _lookup_counts(monkeypatch, "나무 ")
    assert plain[0] == plain[1]
    assert plain[0]["match_ending"] >= 1  # the bearer's ending, so the wrappers are live


@pytest.mark.parametrize(
    "filler, gated, taken",
    [
        ("가마 ", "longest_josa", "_cues"),  # ends in a negator's last character, no particle's
        ("나라가 ", "_cues", "longest_josa"),  # ends in a particle's last character, no negator's
    ],
)
def test_each_table_gates_its_own_lookup(monkeypatch, filler, gated, taken):
    counts = _lookup_counts(monkeypatch, filler)
    assert counts[0][gated] == counts[1][gated]
    assert counts[1][taken] >= 1000  # each filler token still takes the other lookup


def test_final_name_call_probes_only_ending_finals(monkeypatch):
    # a final name call needs an earlier ending or cue, looked for only on
    # the surfaces that end in an ending's or a cue's last character
    counts = _lookup_counts(monkeypatch, "사과 ", "먹어 철수야")
    assert counts[0]["match_ending"] == counts[1]["match_ending"] >= 2
    assert counts[0]["_cues"] == counts[1]["_cues"]
    counts = _lookup_counts(monkeypatch, "사과 ", "가면 철수야")
    assert counts[0]["_cues"] == counts[1]["_cues"] >= 1


def test_wh_scan_visits_only_anchor_tokens(monkeypatch):
    calls: Counter = Counter()
    for name in ("lookup_wh", "lookup_wh_pair"):

        def counted(self, *args, _name=name, _original=getattr(Lexicon, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Lexicon, name, counted)
    analyzer = Analyzer(default_lexicon())
    counts = []
    for n in (10, 1000):
        calls.clear()
        u = analyzer.normalize("사과 " * n + "뭐 먹었니")
        assert [h.token_start for h in u.wh_hits] == [n]
        counts.append(calls["lookup_wh"] + calls["lookup_wh_pair"])
    assert counts[0] == counts[1] >= 1


def test_alternative_question_probes_only_ending_finals(monkeypatch):
    # the alternative routine looks for the interrogative predicates, and a
    # token that ends in no ending's last character needs no lookup
    calls: Counter = Counter()
    match_ending = Lexicon.match_ending

    def counted(self, token):
        calls[token] += 1
        return match_ending(self, token)

    monkeypatch.setattr(Lexicon, "match_ending", counted)
    engine = Engine()
    counts = []
    for n in (10, 1000):
        calls.clear()
        record = engine.process("사과 " * n + "먹을래 배 먹을래")
        assert record.argument.endswith(" 사과 배 중 먹을 것")
        counts.append(sum(calls.values()))
    assert counts[0] == counts[1] >= 1


def _probe_lines() -> list[str]:
    lines = [text for text, *_ in GOLDEN] + fuzz_grammar.generate(seed=3, per_family=200)
    # long utterances, and vocatives before and after
    lines += [" ".join(lines[i : i + 1 + i % 7]) for i in range(0, len(lines) - 7, 3)]
    lines += ["민수야 " + line for line in lines[::5]] + [line + " 영희야" for line in lines[1::5]]
    return lines


def test_no_particle_probe_repeats_within_one_utterance(monkeypatch):
    engine = Engine()
    probes: Counter = Counter()
    longest_josa = Lexicon.longest_josa

    def counted(self, token, droppable_only=False):
        probes[token, droppable_only] += 1
        return longest_josa(self, token, droppable_only)

    monkeypatch.setattr(Lexicon, "longest_josa", counted)
    checked = 0
    for line in _probe_lines():
        surfaces = engine.analyzer.normalize(line).text.split(" ")
        # every probed string is a prefix of its own token of two or more
        # characters; tokens that start alike may share a stem, and probing
        # it once for each of them is not repeated work
        if len({s[:2] for s in surfaces}) < len(surfaces):
            continue
        probes.clear()
        engine.process(line)
        assert [p for p, n in probes.items() if n > 1] == [], line
        checked += 1
    assert checked > 1000


# -- the one condition on the character before a suffix ---------------------

FINALS = [unicodedata.lookup("HANGUL LETTER " + coda(chr(0xAC00 + t))) for t in range(1, 28)]
SPELLINGS = [("cond", name) for name in COND] + [("prev_coda", final) for final in FINALS]
# a character that is no syllable (tail -1), then 가 with each tail 0..27
BEFORE = ["x"] + [chr(0xAC00 + t) for t in range(28)]


@pytest.mark.parametrize("key, value", SPELLINGS)
def test_each_condition_compiles_to_the_tails_readme_gives(key, value):
    if key == "cond":
        lex = parse_lexicon([f"josa\t도\tcond={value}", f"vocative\t야\tcond={value}"])
        compiled = [lex.josa["도"].prev_tails, lex.vocative["야"]]
        analyzer = Analyzer(lex)
        lookups = {
            "josa": lambda ch: lex.longest_josa(ch + "도") == "도",
            "vocative": lambda ch: analyzer._is_vocative(["철" + ch + "야", "가"], 0),
        }
    else:
        lex = parse_lexicon([f"ending\t니까\tkind=int;prev_coda={value}", "ending\t줘\tkind=imp"])
        compiled = [lex.endings["니까"].prev_tails]
        lookups = {"ending": lambda ch: lex.match_ending(ch + "니까") is not None}
        # the whole token: only an ending without a condition matches it
        assert lex.match_ending("니까") is None and lex.match_ending("줘") == lex.endings["줘"]
    for tail, ch in enumerate(BEFORE, -1):
        assert hangul.tail(ch) == tail
        want = admits((key, value), ch)
        for tails in compiled:
            assert (tails is None or tail in tails) == want, ch
        for role, lookup in lookups.items():
            if role != "vocative" or ch != "x":  # a vocative's name is all syllables
                assert lookup(ch) == want, (role, ch)


def bad_condition(role):
    """The message for a row of ``role`` whose condition is none of its
    key's spellings, which README lists."""
    if role == "ending":
        return "ending needs prev_coda=" + "|".join(FINALS)
    return f"{role} needs cond=" + "|".join(COND)


@pytest.mark.parametrize(
    "row",
    [
        "vocative\t야\tcond=nobatchim",
        "josa\t도\tcond=Batchim",
        "josa\t도\tcond=",
        "josa\t도\tcond",
        "ending\t니까\tkind=int;prev_coda=b",
        "ending\t니까\tkind=int;prev_coda=ㅂㅂ",
        "ending\t니까\tkind=int;prev_coda=ㅏ",
        "ending\t니까\tkind=int;prev_coda=",
    ],
)
def test_a_bad_condition_is_a_load_error_naming_its_line(row):
    with pytest.raises(LexiconError) as exc:
        parse_lexicon([row], source="added.tsv")
    assert str(exc.value) == "added.tsv:1: " + bad_condition(row.split("\t")[0])


@pytest.mark.parametrize(
    "row, key, role",
    [
        # a condition under the other suffix role's key, and a misspelt one
        ("josa\t도\tprev_coda=ㅂ", "prev_coda", "josa"),
        ("ending\t니까\tkind=int;cond=batchim", "cond", "ending"),
        ("josa\t는\tkond=batchim", "kond", "josa"),
        ("pronoun\t너\tcond=any", "cond", "pronoun"),
        # a cue row takes no attribute, not even an ending's
        ("cue\t궁금\tprev_coda=ㅂ", "prev_coda", "cue"),
        ("cue\t궁금\tcopula", "copula", "cue"),
        ("cue\t궁금\tstem=하", "stem", "cue"),
    ],
)
def test_an_unknown_attribute_is_a_load_error_naming_its_line(row, key, role):
    with pytest.raises(LexiconError, match=rf"^added\.tsv:1: unknown attribute {key} for {role}$"):
        parse_lexicon([row], source="added.tsv")


@pytest.mark.parametrize(
    "row, key, value",
    [
        # each would load as the flag it denies if a flag read its presence
        ("josa\t를\tcond=no_batchim;droppable=false;object=no", "droppable", "false"),
        ("ending\t니\tkind=int;copula=no", "copula", "no"),
        ("josa\t를\tobject=true", "object", "true"),
    ],
)
def test_a_flag_given_a_value_is_a_load_error_naming_its_line(row, key, value):
    with pytest.raises(
        LexiconError, match=rf"^added\.tsv:1: flag {key} takes no value: {key}={value}$"
    ):
        parse_lexicon([row], source="added.tsv")


@pytest.mark.parametrize(
    "row, key",
    [
        ("josa\t도\tcond", "cond"),
        ("ending\t니까\tkind=int;prev_coda", "prev_coda"),
        ("ending\t줘\tkind=imp;stem", "stem"),
        # an empty value is no value: 니 used to load with the stem ""
        ("ending\t니\tkind=int;stem=", "stem"),
        ("advdet\t모두\tdet=", "det"),
    ],
)
def test_a_bare_key_that_needs_a_value_is_a_load_error_naming_its_line(row, key):
    role = row.split("\t")[0]
    message = bad_condition(role) if key in ("cond", "prev_coda") else f"{role} needs {key}=<{key}>"
    with pytest.raises(LexiconError) as exc:
        parse_lexicon([row], source="added.tsv")
    assert str(exc.value) == f"added.tsv:1: {message}"


@pytest.mark.parametrize(
    "row, message",
    [
        # the last value used to win: 니 loaded imperative, 야 unconditioned
        ("ending\t니\tkind=int;kind=imp", "attribute kind given twice"),
        ("vocative\t야\tcond=batchim;cond=any", "attribute cond given twice"),
        ("josa\t를\tdroppable;object;droppable", "attribute droppable given twice"),
        # a token holds no whitespace, so each of these loaded and never matched
        ("cue\t알고  싶", "'알고  싶' is not words split by single spaces"),
        ("cue\t알고\u3000싶", "'알고\\u3000싶' is not words split by single spaces"),
        ("wh\t몇  시\tcategory=when", "'몇  시' is not one or two words split by single spaces"),
        ("wh\t몇 시 쯤\tcategory=when", "'몇 시 쯤' is not one or two words split by single spaces"),
        ("danger\t안  돼", "'안  돼' is not one or two words split by single spaces"),
        # every other role matches one token, so its surface is one word
        ("ending\t었 니\tkind=int", "'었 니' is not one word"),
        ("josa\t에 서", "'에 서' is not one word"),
        ("negation\t안\u3000해\tkind=preverbal", "'안\\u3000해' is not one word"),
        ("infoverb\t말해  줘", "'말해  줘' is not one word"),
        ("advdet\t모 두\tdet=모든", "'모 두' is not one word"),
        # want-to-know cues are cue rows; an ending is interrogative or imperative
        ("ending\t궁금\tkind=cue", "ending needs kind=int|imp"),
        # a fourth column used to be dropped: 은 loaded without droppable,
        # and after an empty third column without any attribute
        ("josa\t은\tcond=batchim\tdroppable", "expected role<TAB>surface[<TAB>attributes]"),
        ("josa\t은\t\tdroppable", "expected role<TAB>surface[<TAB>attributes]"),
        ("cue 궁금", "expected role<TAB>surface[<TAB>attributes]"),
        ("josa\t\tcond=batchim", "'' is not one word"),
    ],
)
def test_a_malformed_row_is_a_load_error_naming_its_line(row, message):
    with pytest.raises(LexiconError) as exc:
        parse_lexicon([row], source="added.tsv")
    assert str(exc.value) == f"added.tsv:1: {message}"


# -- every cell of ROLE_SCHEMA, loaded and broken -----------------------------

# the surfaces a word limit allows, by that limit
SHAPES = {1: "one word", 2: "one or two words split by single spaces"}


def _given(key, parser):
    """``key`` as a row gives it with a value its parser takes."""
    if parser == FLAG:
        return key
    return f"{key}={'x' if parser == VALUE else next(iter(parser))}"


def _needs(role, key, parser):
    spellings = f"<{key}>" if parser == VALUE else "|".join(parser)
    return f"{role} needs {key}={spellings}"


def _schema_cases():
    """(role, surface, attributes, table, message): for each role a valid
    row of each word count it allows, with every key it reads, and the
    table it fills; for each key the rows that must fail, with the message."""
    every_key = {key for spec in ROLE_SCHEMA.values() for key in spec.keys} | {"bogus"}
    for role, spec in ROLE_SCHEMA.items():
        every = ";".join(_given(key, parser) for key, parser in spec.keys.items())
        for n, table in enumerate(spec.tables, 1):
            yield role, " ".join("가나다"[:n]), every, table, None
        if not spec.most:
            yield role, "가 나 다", every, spec.tables[-1], None
        else:
            surface = " ".join("가나다"[: spec.most + 1])
            yield role, surface, every, None, f"{surface!r} is not {SHAPES[spec.most]}"

        def row(key, attribute):
            """The required keys but ``key``, then ``attribute``."""
            others = [_given(k, spec.keys[k]) for k in spec.required if k != key]
            return ";".join([*others, attribute] if attribute else others)

        for key in sorted(every_key - spec.keys.keys()):
            yield role, "가", row(key, f"{key}=x"), None, f"unknown attribute {key} for {role}"
        for key, parser in spec.keys.items():
            if parser == FLAG:
                yield role, "가", row(key, f"{key}=x"), None, f"flag {key} takes no value: {key}=x"
                continue
            bad = [key, f"{key}="] + ([] if parser == VALUE else [f"{key}=x{next(iter(parser))}"])
            for attribute in bad:
                yield role, "가", row(key, attribute), None, _needs(role, key, parser)
        for key in spec.required:
            yield role, "가", row(key, ""), None, _needs(role, key, spec.keys[key])


@pytest.mark.parametrize("role, surface, attributes, table, message", list(_schema_cases()))
def test_each_schema_cell_loads_or_fails_naming_its_line(role, surface, attributes, table, message):
    lines = ["# a comment", "", f"{role}\t{surface}\t{attributes}"]
    if message is not None:
        with pytest.raises(LexiconError) as exc:
            parse_lexicon(lines, source="schema.tsv")
        assert str(exc.value) == f"schema.tsv:3: {message}"
        return
    lex = parse_lexicon(lines, source="schema.tsv")
    assert [name for name in TABLES if getattr(lex, name)] == [table]


def test_each_table_is_filled_by_exactly_one_role():
    filled = Counter(table for spec in ROLE_SCHEMA.values() for table in spec.tables)
    assert filled == dict.fromkeys(TABLES, 1)
    for role, spec in ROLE_SCHEMA.items():
        # a dict table is built a value, a set table holds the surface
        kinds = {TABLES[table].__origin__ for table in spec.tables}
        assert kinds == {set if spec.build is None else dict}, role
        assert set(spec.required) <= set(spec.keys), role


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_roles():
    """role -> (tables, words, flags, {key: its values as given}, required)
    for each row of the role table in README's "Lexicon" section."""
    section = README.read_text("utf-8").split("\n## Lexicon\n", 1)[1].split("\n## ", 1)[0]
    roles = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 7 or not re.fullmatch(r"`\w+`", cells[0]):
            continue
        names = [re.findall(r"`([^`]+)`", cell) for cell in cells]
        values = dict(part.split(": ", 1) for part in cells[4].split("; ") if part)
        values = {key.strip("`"): given for key, given in values.items()}
        roles[names[0][0]] = (names[1], cells[2], names[3], values, names[5])
    return roles


def test_readme_role_table_is_the_schema():
    roles = readme_roles()
    assert list(roles) == list(ROLE_SCHEMA)
    for role, spec in ROLE_SCHEMA.items():
        tables, words, flags, values, required = roles[role]
        assert tables == list(spec.tables), role
        assert words == (str(spec.most) if spec.most else "any"), role
        assert flags == [key for key, parser in spec.keys.items() if parser == FLAG], role
        assert list(values) == [key for key, parser in spec.keys.items() if parser != FLAG], role
        assert required == list(spec.required), role
        for key, given in values.items():
            parser = spec.keys[key]
            # a free value reads "any"; spellings are listed, or named in words
            if parser == VALUE:
                assert given == "any", (role, key)
            else:
                spellings = re.findall(r"`([^`]+)`", given)
                assert given != "any" and spellings in ([], list(parser)), (role, key)


# one utterance per row that no other test pins, with its gold output under
# the bundled lexicon; deleting the row must change the output
ROW_PINS = [
    ("wh\t누가\tcategory=who", "누가 왔니", (2, "온 사람")),
    ("josa\t는\tcond=no_batchim;droppable", "나는 밥 먹었니", (0, "밥 먹었는지 여부")),
    ("josa\t를\tcond=no_batchim;droppable;object", "사과를 먹어라", (4, "사과 먹기")),
    ("ending\t냐\tkind=int", "밥을 먹었냐", (0, "밥 먹었는지 여부")),
    ("ending\t습니까\tkind=int", "밥을 먹었습니까", (0, "밥 먹었는지 여부")),
    ("negation\t못\tkind=preverbal", "밥 못 먹었니", (0, "밥 먹었는지 여부")),
]


@pytest.mark.parametrize("row, text, gold", ROW_PINS)
def test_each_pinned_row_decides_its_output(engine, row, text, gold):
    record = engine.process(text)
    assert (record.label, record.argument) == gold
    rows = _default_rows()
    rows.remove(row)  # the row is bundled as written
    record = Engine(parse_lexicon(rows)).process(text)
    assert (record.label, record.argument) != gold


# vocatives, particles and endings the added rows below may change
ADDED_ROW_LINES = [
    "철수야 뭐 먹을래",
    "밥 먹었니 민수야",
    "영숙아 어디 가",
    "주님이여 어디 가",
    "선생님께 뭐 드릴까",
    "철수는 어디 갑니까",
    "어디 가니까 좋아 민수야",
    "뭐 먹을게요",
    "x야 뭐 먹을래",
]


@pytest.mark.parametrize(
    "value", [*COND, "nobatchim", "Batchim", "none", "ㅂ", "ㄴ", "b", "ㅂㅂ", "ㅏ", ""]
)
@pytest.mark.parametrize(
    "role, surface",
    [("josa", "는"), ("josa", "께"), ("vocative", "야"), ("vocative", "여"), ("ending", "니까"), ("ending", "게요")],
)
def test_a_lexicon_that_loads_never_makes_process_raise(role, surface, value):
    """The bundled rows with one suffix row added, in place of the bundled
    row of its surface if there is one: the lexicon either fails to load,
    naming the row's line, or processes every line without raising."""
    rows = [row for row in _default_rows() if not row.startswith(f"{role}\t{surface}\t")]
    attrs = f"kind=int;prev_coda={value}" if role == "ending" else f"cond={value}"
    rows.append(f"{role}\t{surface}\t{attrs}")
    try:
        lex = parse_lexicon(rows, source="added.tsv")
    except LexiconError as exc:
        assert str(exc) == f"added.tsv:{len(rows)}: {bad_condition(role)}"
        return
    engine = Engine(lex)
    for line in workload_gen.reference_lines()[:600] + ADDED_ROW_LINES:
        engine.process(line)
