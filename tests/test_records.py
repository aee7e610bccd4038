"""The engine's record types compare by value and cannot be assigned to."""

import dataclasses
import inspect

import pytest

from saek.analyze import Eojeol, NormalizedUtterance, WhHit
from saek.classify import Classification, Evidence, IntentLabel
from saek.engine import TSV_COLUMNS, OutputRecord, record_tsv_row
from saek.extract import Argument
from saek.hangul import JamoTriple
from saek.lexicon import (
    ArgumentCategory,
    Ending,
    EndingKind,
    Josa,
    WhMatch,
)

RECORDS = {
    "Eojeol": lambda: Eojeol("사과를", 0, "사과", "를"),
    "WhHit": lambda: WhHit(ArgumentCategory.PERSON, 0, 1, 0, 2),
    "Evidence": lambda: Evidence("wh-word", (0, 1)),
    "Classification": lambda: Classification(
        IntentLabel.WH, "wh-word", ArgumentCategory.MEANING, (Evidence("wh-word", (0, 1)),)
    ),
    "Argument": lambda: Argument("먹는 의미", ArgumentCategory.MEANING),
    "JamoTriple": lambda: JamoTriple(0, 0, 4),
    "Josa": lambda: Josa("를", frozenset({-1, 0}), True),
    "Ending": lambda: Ending("니", EndingKind.INTERROGATIVE),
    "WhMatch": lambda: WhMatch(ArgumentCategory.PERSON, 0, 2),
    "OutputRecord": lambda: OutputRecord(
        "뭐 셌니",
        2,
        "wh",
        "wh",
        argument="셌은 의미",
        category="의미",
        evidence=(Evidence("wh-word", (0, 1)), Evidence("contraction-fallback", None)),
    ),
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
    e = Eojeol("나가지마", 0, "나가지마", negation="ma", fused="마")
    split = e._replace(stem="나가지", particle="마")
    assert split == Eojeol("나가지마", 0, "나가지", "마", negation="ma", fused="마")
    assert e.stem == "나가지마" and e.particle is None
    assert analyzer.normalize("사과를 줘").tokens[0] == Eojeol("사과를", 0, "사과", "를")
    assert analyzer.normalize("민수야 사과를 줘").tokens[0] == Eojeol("사과를", 4, "사과", "를")
    hits = analyzer.normalize("누가 왔니").wh_hits
    assert [(h.token_start, h.token_end) for h in hits] == [(0, 1)]


def test_positional_builds_keep_their_field_order():
    """``normalize``, ``find_wh``, ``lookup_wh``, ``_fired`` and the
    extraction routines build these with ``tuple.__new__`` from positional
    values, which checks neither their number nor their order: a field
    added or moved must be added or moved there too."""
    assert NormalizedUtterance._fields == (
        "text",
        "tokens",
        "wh_hits",
        "cued",
        "kept",
    )
    assert Evidence._fields == ("rule", "span")
    assert Classification._fields == ("label", "step", "wh", "evidence", "end", "form")
    assert Argument._fields == ("text", "category", "notes")
    # find_wh and Lexicon.lookup_wh build these positionally too
    assert WhHit._fields == ("kind", "token_start", "token_end", "char_start", "char_end")
    assert WhMatch._fields == ("kind", "start", "end")


# one input per record shape: each error, a label without and with a
# negativeness, two evidence spans, and a note
SHAPES = [
    "비가 \udcff 온다",
    ". \t .",
    "비가 온다",
    "로 왜 하는 거야",
    "하 볼까 고 볼까",
    "밥 먹었어",
    "창문 열어줘",
    "사과 살래 배 살래",
    "뭐 셌니",
]


def test_engine_records_equal_the_keyword_constructor(engine):
    errors, notes = set(), 0
    for text in SHAPES:
        for extract in (True, False):
            record = engine.process(text, extract=extract)
            assert type(record) is OutputRecord
            assert tuple(record.__dict__) == TSV_COLUMNS
            built = OutputRecord(**record.__dict__)
            assert record == built and tuple(built.__dict__) == TSV_COLUMNS
            errors.add(record.error)
            notes += any(e.span is None for e in record.evidence)
    assert errors == {
        None,
        "invalid-utf8",
        "empty-utterance",
        "unclassifiable",
        "extraction-failed",
        "options-not-found",
    }
    assert notes == 1


def test_output_record_is_frozen_and_compares_by_value(engine):
    record = engine.process("창문 열어줘")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.argument = "문 열기"
    assert record == engine.process("창문 열어줘") and record is not engine.process("창문 열어줘")
    assert record != engine.process("창문 닫아줘")
    error = engine.process("비가 온다")
    assert error.evidence == () and hash(error) == hash(engine.process("비가 온다"))
    assert error == OutputRecord("비가 온다", error="unclassifiable")


def test_engine_records_hash_and_their_evidence_cannot_be_edited(engine):
    for text in SHAPES:
        for extract in (True, False):
            record = engine.process(text, extract=extract)
            again = engine.process(text, extract=extract)
            assert record == again and hash(record) == hash(again)
            assert type(record.evidence) is tuple
            for e in record.evidence:
                assert type(e) is Evidence
                with pytest.raises(TypeError):
                    e[0] = "x"
            if record.evidence:
                with pytest.raises(TypeError):
                    record.evidence[0] = Evidence("x", None)


def test_evidence_json_and_tsv_shapes_are_pinned(engine):
    """Two spans and a note: to_dict spells each item as a dict with a list
    span, or with no span for a note; the TSV cell as rule@start-end;note."""
    record = engine.process("사과 셌니 배 셌니")
    assert record.evidence == (
        Evidence("parallel-clauses", (3, 5)),
        Evidence("parallel-clauses", (8, 10)),
        Evidence("contraction-fallback", None),
    )
    assert record.to_dict()["evidence"] == [
        {"rule": "parallel-clauses", "span": [3, 5]},
        {"rule": "parallel-clauses", "span": [8, 10]},
        {"rule": "contraction-fallback"},
    ]
    cell = record_tsv_row(record).split("\t")[TSV_COLUMNS.index("evidence")]
    assert cell == "parallel-clauses@3-5;parallel-clauses@8-10;contraction-fallback"


def test_output_record_replace_keeps_the_other_fields(engine):
    record = engine.process("창문 열어줘")
    moved = dataclasses.replace(record, text="창문 열어줘요")
    assert moved.text == "창문 열어줘요" and tuple(moved.__dict__) == TSV_COLUMNS
    assert [v for k, v in moved.__dict__.items() if k != "text"] == [
        v for k, v in record.__dict__.items() if k != "text"
    ]


def test_output_record_signature_spells_its_fields():
    # __init__ is written out beside the fields: the two lists must not drift
    params = inspect.signature(OutputRecord).parameters.values()
    fields = dataclasses.fields(OutputRecord)
    assert [p.name for p in params] == [f.name for f in fields] == list(TSV_COLUMNS)
    missing = {dataclasses.MISSING: inspect.Parameter.empty}
    assert [p.default for p in params] == [missing.get(f.default, f.default) for f in fields]
