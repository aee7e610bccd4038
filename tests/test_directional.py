"""Directional relations: an edit that changes the intent moves the output
the way the scheme says.

Each relation rewrites a reference input into one whose label the scheme
fixes, and checks the new output against the old one (CheckList's DIR
tests, Ribeiro et al., ACL 2020). None needs a gold argument. These cover
the command steps that hand extraction the form they read off their token:
a negative imperative turned into a coordination (5), a danger conditional
turned into a double negation (5), and an imperative turned into a negative
imperative (3). One more embeds a wh question under an info verb, whose
step hands extraction the info verb: the question asked stays the same (2).
"""

import re
from unittest.mock import ANY

import pytest

import fuzz_grammar

_MA = re.compile(r"(?<=지) (?:마|마라|마세요|말아라)$")
_DANGER = re.compile(r"^(\S+) (\S+면 (?:큰일나|혼나|위험해|안 돼))$")


# a finite wh predicate of the reference lines -> its -는지 form
_EMBEDDED = {"왔니": "왔는지", "갔어": "갔는지"}


def _coordinated(text, before):
    """``X지 마`` -> ``X지 말고 공부해``: only the positive clause is required."""
    variant = _MA.sub(" 말고 공부해", text)
    return variant, (5, "공부하기", "요구", None)


def _negated_conditional(text, before):
    """``N X면 D`` -> ``N 안 X면 D``: not doing X is the danger, so X is required."""
    variant = _DANGER.sub(r"\1 안 \2", text)
    return variant, (5, ANY, "요구", None)


def _prohibited(text, before):
    """``… 가라`` -> ``… 가지 마``: the required 가기 becomes the prohibited 가지 않기."""
    label, argument, category, error = before
    if label != 4 or not text.endswith(" 가라") or "말고" in text:
        return text, None
    assert argument.endswith("기"), argument
    return text[: -len("가라")] + "가지 마", (3, argument[: -len("기")] + "지 않기", "금지", None)


def _told(text, before):
    """``… 뭐 왔니`` -> ``… 뭐 왔는지 말해줘``: the wh question is asked as an
    info-seeking request, so label 2, the category and the argument stay."""
    head, _, last = text.rpartition(" ")
    if before[0] != 2 or last not in _EMBEDDED:
        return text, None
    return f"{head} {_EMBEDDED[last]} 말해줘", before


# relation: (rewrite, how many distinct reference lines it rewrites); each
# rewrite gives the variant and its expected (label, argument, error)
RELATIONS = {
    "X지 마 -> X지 말고 공부해": (_coordinated, 459),
    "N X면 D -> N 안 X면 D": (_negated_conditional, 505),
    "… 가라 -> … 가지 마": (_prohibited, 61),
    "… 왔니/갔어 -> … 왔는지/갔는지 말해줘": (_told, 326),
}


@pytest.fixture(scope="module")
def reference(engine):
    """Each distinct reference input with its (label, argument, category, error)."""
    return {text: _output(engine, text) for text in fuzz_grammar.generate(seed=1, per_family=1000)}


def _output(engine, text):
    record = engine.process(text)
    return record.label, record.argument, record.category, record.error


@pytest.mark.parametrize("relation", RELATIONS)
def test_an_intent_changing_edit_moves_the_output_as_the_scheme_says(engine, reference, relation):
    rewrite, expected_count = RELATIONS[relation]
    rewritten = 0
    broken = []
    for text, before in reference.items():
        variant, expected = rewrite(text, before)
        if variant == text:
            continue
        rewritten += 1
        after = _output(engine, variant)
        if after != expected:
            broken.append((text, variant, after))
    assert len(reference) == 5900
    assert rewritten == expected_count
    assert not broken, broken[:5]


def test_the_rewrites_touch_only_their_frame():
    assert _coordinated("밖에 나가지 마세요", None)[0] == "밖에 나가지 말고 공부해"
    assert _coordinated("나가지 마음", None)[0] == "나가지 마음"
    assert _negated_conditional("약 먹으면 안 돼", None)[0] == "약 안 먹으면 안 돼"
    assert _negated_conditional("약 안 먹으면 큰일나", None)[0] == "약 안 먹으면 큰일나"
    assert _prohibited("학교 빨리 가라", (4, "학교 빨리 가기", "요구", None)) == (
        "학교 빨리 가지 마",
        (3, "학교 빨리 가지 않기", "금지", None),
    )
    assert _prohibited("가지 말고 빨리 가라", (4, "빨리 가기", "요구", None))[1] is None
    wh = (2, "온 사람", "사람", None)
    assert _told("누구 왔니", wh) == ("누구 왔는지 말해줘", wh)
    assert _told("사과 누구 갔어", wh)[0] == "사과 누구 갔는지 말해줘"
    assert _told("밥 왔니", (0, "밥 왔는지 여부", "여부", None))[1] is None
