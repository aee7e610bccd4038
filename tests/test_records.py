"""The engine's record types compare by value and cannot be assigned to."""

import pytest

from saek.analyze import Eojeol, WhHit
from saek.classify import Classification, Evidence, IntentLabel
from saek.extract import Argument
from saek.hangul import JamoTriple
from saek.lexicon import (
    ArgumentCategory,
    Ending,
    EndingKind,
    Josa,
    WhKind,
    WhMatch,
)

RECORDS = {
    "Eojeol": lambda: Eojeol("사과를", "사과", "를"),
    "WhHit": lambda: WhHit(WhKind.WHO, 0, 1, 0, 2),
    "Evidence": lambda: Evidence("wh-word", (0, 1)),
    "Classification": lambda: Classification(
        IntentLabel.WH, "wh-word", WhKind.WHAT, (Evidence("wh-word", (0, 1)),)
    ),
    "Argument": lambda: Argument("먹는 의미", ArgumentCategory.MEANING),
    "JamoTriple": lambda: JamoTriple(0, 0, 4),
    "Josa": lambda: Josa("를", "no_batchim", True),
    "Ending": lambda: Ending("니", EndingKind.INTERROGATIVE),
    "WhMatch": lambda: WhMatch(WhKind.WHO, 0, 2),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_equality_by_value_and_immutability(make):
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    field = next(iter(type(a).__annotations__))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


def test_normalized_utterance_equality_by_value(analyzer):
    a = analyzer.normalize("철수야 뭐 먹을래")
    b = analyzer.normalize("철수야 뭐 먹을래")
    assert a == b and a is not b
    assert a != analyzer.normalize("철수야 밥 먹을래")
    with pytest.raises(AttributeError):
        a.text = "x"


def test_eojeol_replace_keeps_the_other_fields(analyzer):
    e = Eojeol("나가지마", "나가지마", negation="ma", fused="마")
    split = e._replace(stem="나가지", particle="마")
    assert split == Eojeol("나가지마", "나가지", "마", negation="ma", fused="마")
    assert e.stem == "나가지마" and e.particle is None
    assert analyzer.normalize("사과를 줘").tokens[0] == Eojeol("사과를", "사과", "를")
    hits = analyzer.normalize("누가 왔니").wh_hits
    assert [(h.token_start, h.token_end) for h in hits] == [(0, 1)]
