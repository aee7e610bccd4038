"""Predicate forms: the argument shapes rebuilt from a predicate stem."""

import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from saek import predicate
from saek.errors import ExtractionFailed


def test_adnominalize_paper_forms():
    assert predicate.adnominal("왔", []) == "온"
    assert predicate.adnominal("있", []) == "있는"
    assert predicate.adnominal("막히", []) == "막히는"


def test_adnominalize_contraction_table():
    assert predicate.adnominal("했", []) == "한"
    assert predicate.adnominal("갔", []) == "간"
    assert predicate.adnominal("봤", []) == "본"
    assert predicate.adnominal("샀", []) == "산"
    assert predicate.adnominal("탔", []) == "탄"
    assert predicate.adnominal("섰", []) == "선"
    assert predicate.adnominal("먹었", []) == "먹은"
    assert predicate.adnominal("보냈", []) == "보낸"
    assert predicate.adnominal("뒀", []) == "둔"
    assert predicate.adnominal("됐", []) == "된"


def test_adnominalize_unsupported_contraction():
    notes: list[str] = []
    # ㅔ is outside the contraction table: the fallback is a note, not an error
    assert (predicate.adnominal("셌", notes), notes) == ("셌은", ["contraction-fallback"])
    notes.clear()
    assert (predicate.adnominal("없", notes), notes) == ("없는", [])  # lexical ㅆ, not a tense mark


def test_adnominalize_rieul_drop():
    assert predicate.adnominal("팔", []) == "파는"


# (input, label, argument or error, notes): one input per branch of each
# predicate form, as the engine puts it into an argument
FORMS = [
    # choice: the form 중 … 것 takes
    ("커피 살래 차 살래", 1, "커피 차 중 살 것", ()),  # -(으)ㄹ already exposed
    ("커피 마시니 차 마시니", 1, "커피 차 중 마실 것", ()),  # open stem takes ㄹ
    ("밥 먹니 빵 먹니", 1, "밥 빵 중 먹을 것", ()),  # closed stem takes 을
    ("a ok니 b ok니", 1, "a b 중 ok을 것", ()),  # no Hangul syllable
    ("버스로 왔어 택시로 왔어", 1, "버스 택시 중 온 것", ()),  # past: the adnominal
    ("집에 됐니 학교 됐니", 1, "집 학교 중 된 것", ()),
    ("돈 셌니 표 셌니", 1, "돈 표 중 셌은 것", ("contraction-fallback",)),
    ("커피 아니면 차 니", 1, "extraction-failed", ()),  # the ending is the whole token
    # whether: -인지 on a copula, -는지, or -지 after -(으)ㄹ
    ("학생이니", 0, "학생인지 여부", ()),
    ("너 할래", 0, "할는지 여부", ()),  # a light verb keeps -는지
    ("커피 마실래", 0, "커피 마실지 여부", ()),
    ("밥 먹었어", 0, "밥 먹었는지 여부", ()),
    ("ok니 no니", 0, "ok니 no는지 여부", ()),
    ("비 올지 궁금해", 0, "비 올지 여부", ()),  # embedded question kept whole
    # adnominal
    ("뭐 먹니", 2, "먹는 의미", ()),
    ("뭐 팔니", 2, "파는 의미", ()),  # ㄹ drops before 는
    ("뭐 okay니", 2, "okay는 의미", ()),
    ("누가 일했니", 2, "일한 사람", ()),
    ("뭐 먹었니", 2, "먹은 의미", ()),
    ("뭐 보았니", 2, "본 의미", ()),
    ("누가 왔니", 2, "온 사람", ()),  # contraction undone
    ("어디 있는지 알려줘", 2, "있는 위치", ()),  # lexical ㅆ is no past
    ("뭐 됐니", 2, "된 의미", ()),
    ("뭐 셌니", 2, "셌은 의미", ("contraction-fallback",)),
    # embedded-question stem, and a periphrastic predicate already adnominal
    ("어디 가는지 말해줘", 2, "가는 위치", ()),
    ("어디 갈지 말해줘", 2, "가는 위치", ()),  # -ㄹ지 fused onto an open stem
    ("누가 할지 말해줘", 2, "extraction-failed", ()),  # a bare light verb, as 하는지
    ("뭐 먹을 거야", 2, "먹을 의미", ()),
    ("뭐 하는 거야", 2, "extraction-failed", ()),  # a bare light verb is no content
    # prohibition: the -지 form before 않기
    ("지 마", 3, "지 않기", ()),
    ("나가지마", 3, "나가지 않기", ()),
    ("밖에 나가면 위험해", 3, "밖에 나가지 않기", ()),
    ("먹으면 혼나", 3, "먹지 않기", ()),
    # nominal: a requirement head without an imperative ending
    ("청소 바랍니다", 4, "청소하기", ()),
    ("공부하길 바랍니다", 4, "공부하기", ()),
    ("공부하기를 바랍니다", 4, "공부하기", ()),
    ("숙제하기 바랍니다", 4, "숙제하기", ()),
    ("안 먹으면 안 돼", 5, "먹기", ()),
    # a bare 하 takes the noun before it out of the clause, unless an adverb
    ("숙제 공부 안 하면 안 돼", 5, "숙제 공부하기", ()),
    ("조용히 안 하면 안 돼", 5, "조용히 하기", ()),
]


@pytest.mark.parametrize("text,label,argument,notes", FORMS)
def test_predicate_forms_through_the_engine(engine, text, label, argument, notes):
    r = engine.process(text)
    assert r.label == label
    assert (r.error or r.argument) == argument
    assert tuple(e.rule for e in r.evidence if e.span is None) == notes


# stems of precomposed syllables, compatibility jamo and printable ASCII
_STEM_CHARS = st.one_of(
    st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
    st.characters(min_codepoint=0x3131, max_codepoint=0x318E),
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
)


@settings(max_examples=300, deadline=None)
@given(st.text(_STEM_CHARS, max_size=4), st.sampled_from(["", "었", "았", "는지", "ㄹ지", "지", "면", "으면"]))
def test_predicate_forms_are_total(stem, suffix):
    stem += suffix
    notes: list[str] = []
    for form, args in (
        (predicate.adnominal, (stem, notes)),
        (predicate.choice, (stem, notes)),
        (predicate.whether, (stem,)),
        (predicate.conditional_core, (stem,)),
        (predicate.nominal, (stem,)),
    ):
        try:
            assert isinstance(form(*args), str)
        except ExtractionFailed:
            pass
    assert set(notes) <= {"contraction-fallback"}
    assert isinstance(predicate.is_past(stem), bool)
    assert isinstance(predicate.looks_adnominal(stem), bool)
    found = predicate.embedded_question_stem(stem)
    assert found is None or (isinstance(found, str) and found)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_predicate_functions() -> list[str]:
    """The ASCII identifiers in the function column of README's "Predicate
    forms" table."""
    section = README.read_text("utf-8").split("**Predicate forms.**", 1)[1]
    table = section.split("\n\n", 2)[1]
    names = []
    for line in table.splitlines()[2:]:  # past the header and the rule
        function = line.strip().strip("|").split("|")[1]
        for name in re.findall(r"`([^`]+)`", function):
            if re.fullmatch(r"[A-Za-z_][\w.]*", name, re.ASCII):
                names.append(name)
    return names


def test_readme_predicate_forms_are_predicate_functions():
    public = {
        name
        for name, f in vars(predicate).items()
        if inspect.isfunction(f) and f.__module__ == predicate.__name__
        if not name.startswith("_")
    }
    named = readme_predicate_functions()
    assert {"whether", "choice", "prohibition", "stem_nominal", "nominal"} <= set(named)
    assert [n for n in named if n not in public] == []
