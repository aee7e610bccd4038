from importlib import resources

import pytest

from saek import Engine
from saek.errors import LexiconError, UnknownParticle
from saek.lexicon import (
    ArgumentCategory,
    EndingKind,
    WhKind,
    default_lexicon,
    parse_lexicon,
)


def test_josa_valid_batchim_conditions(lexicon):
    assert lexicon.josa_valid("늘", "은") is True  # 오늘은
    assert lexicon.josa_valid("스", "은") is False  # open syllable rejects 은
    assert lexicon.josa_valid("스", "로") is True  # 버스로
    assert lexicon.josa_valid("집", "로") is False
    assert lexicon.josa_valid("집", "으로") is True
    assert lexicon.josa_valid("달", "로") is True  # ㄹ coda keeps bare 로
    assert lexicon.josa_valid("달", "으로") is False


def test_josa_valid_unknown_particle(lexicon):
    with pytest.raises(UnknownParticle):
        lexicon.josa_valid("늘", "궯")


def test_lookup_wh(lexicon):
    hit = lexicon.lookup_wh("누구")
    assert hit is not None and hit.kind is WhKind.WHO
    assert hit.start == 0 and hit.end == 2
    assert lexicon.lookup_wh("사과") is None
    contained = lexicon.lookup_wh("어디야")
    assert contained is not None and contained.kind is WhKind.WHERE


def test_lookup_wh_pair(lexicon):
    assert lexicon.lookup_wh_pair("몇", "시") is WhKind.WHEN
    assert lexicon.lookup_wh_pair("몇", "시간") is WhKind.WHEN
    assert lexicon.lookup_wh_pair("몇", "사과") is None
    assert lexicon.lookup_wh_pair("아무", "시") is None


def test_wh_nouns_primary_order(lexicon):
    primaries = {k.value: v[0] for k, v in lexicon.wh_nouns.items()}
    assert primaries == {
        "who": "사람",
        "what": "의미",
        "where": "위치",
        "when": "시간",
        "why": "이유",
        "how": "방법",
    }
    # secondary correspondings stay available behind the default
    assert "정체" in lexicon.wh_nouns[WhKind.WHO]
    assert "장소" in lexicon.wh_nouns[WhKind.WHERE]
    assert set(lexicon.wh_nouns[WhKind.WHEN]) >= {"기간", "시각"}
    assert "대책" in lexicon.wh_nouns[WhKind.HOW]


def test_all_wh_primary_nouns_are_bare(lexicon):
    for nouns in lexicon.wh_nouns.values():
        for noun in nouns:
            assert " " not in noun and noun


def test_ending_roles_disjoint_from_josa(lexicon):
    assert not set(lexicon.josa) & set(lexicon.endings)


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


def test_missing_wh_nouns_is_load_error():
    with pytest.raises(LexiconError, match="without replacement nouns"):
        parse_lexicon(["wh\t누구\tcategory=who"])


def test_overlapping_josa_and_ending_is_load_error():
    lines = [
        "josa\t어\t",
        "ending\t어\tkind=int",
        "whnoun\t사람\tcategory=who",
        "whnoun\t의미\tcategory=what",
        "whnoun\t위치\tcategory=where",
        "whnoun\t시간\tcategory=when",
        "whnoun\t이유\tcategory=why",
        "whnoun\t방법\tcategory=how",
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


def test_disjunction_row_drives_behaviour():
    text = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
    engine = Engine(parse_lexicon(text.splitlines() + ["disjunction\t혹은"]))
    record = engine.process("버스 타 혹은 택시 탈래")
    assert (record.label, record.argument) == (1, "버스 타 택시 중 탈 것")
    without = [line for line in text.splitlines() if not line.startswith("disjunction\t")]
    assert Engine(parse_lexicon(without)).process("버스 타 아니면 택시 탈래").label == 0
