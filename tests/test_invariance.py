"""Invariance relations: spoken-form variants of an input keep its output.

Each relation rewrites an input into a variant a speaker or an ASR front end
may produce, and ``(label, argument, error)`` must not change (CheckList's
INV tests, Ribeiro et al., ACL 2020; metamorphic testing, Chen et al.,
1998).  The fusing relations cover the -지 host and the -(으)면 conditional
that ``saek.predicate`` decides on, the vocative relations a name call
anywhere, which ``normalize`` leaves out of the tokens, an info verb
after a polar question, whose step hands extraction the info verb, a
request ending spaced off the info verb, the polite 요 on a form the
lexicon flags ``polite``, and a subordinate clause in front: Korean is
head-final, so the main clause after a connective (-니까, -어서, -려면,
-다가) keeps the intent and the argument (Sohn 1999), and ``normalize``
cuts the clause off, a wh word or 아니면 in it too.
"""

import re
import unicodedata
from importlib import resources

import pytest

_FUSED_NEGATOR = re.compile(r"지 (?=(?:마|마라|마세요|말아라|말고)(?: |$))")
_FUSED_PREVERBAL = re.compile(r"(?:(?<= )|^)안 (?=\S+면(?: |$)|돼(?: |$))")

RELATIONS = {
    "trailing period": lambda s: s + ".",
    "trailing question mark": lambda s: s + "?",
    "NFD": lambda s: unicodedata.normalize("NFD", s),
    "doubled spaces": lambda s: s.replace(" ", "  "),
    "leading vocative": lambda s: "철수야 " + s,
    "vocative after the first token": lambda s: s.replace(" ", " 철수야 ", 1),
    "vocative before the last token": lambda s: " 철수야 ".join(s.rsplit(" ", 1)),
    "trailing vocative": lambda s: s + " 철수야",
    "fused -지 마 / -지 말고": lambda s: _FUSED_NEGATOR.sub("지", s),
    "fused 안 X면 / 안 돼": lambda s: _FUSED_PREVERBAL.sub("안", s),
    "fused 하는 거야": lambda s: s.replace("하는 거야", "하는거야"),
    "reason clause in front": lambda s: "비 오니까 " + s,
    "cause clause in front": lambda s: "늦어서 " + s,
    "condition clause in front": lambda s: "공부하려면 " + s,
    "interrupted clause in front": lambda s: "집에 가다가 " + s,
    # the clause in front holds a wh word or a disjunction, which are
    # context there, not the question the main clause asks
    "interrupted clause with a wh word in front": lambda s: "어디 가다가 " + s,
    "reason clause with a wh subject in front": lambda s: "누가 오니까 " + s,
    "cause clause with a wh adverb in front": lambda s: "왜 늦어서 " + s,
    "reason clause with a two-token wh form in front": lambda s: "몇 시에 가니까 " + s,
    "reason clause with a disjunction in front": lambda s: "커피 아니면 차 마시니까 " + s,
}


def _output(record):
    return record.label, record.argument, record.error


@pytest.mark.parametrize("relation", RELATIONS)
def test_spoken_form_variants_keep_the_output(engine, reference, relation):
    rewrite = RELATIONS[relation]
    rewritten = 0
    broken = []
    for text, record in reference.items():
        variant = rewrite(text)
        if variant == text:
            continue
        rewritten += 1
        if _output(engine.process(variant)) != _output(record):
            broken.append((text, variant))
    assert rewritten > 0, f"{relation} rewrote no reference input"
    assert not broken, broken[:5]


def test_an_info_verb_after_a_polar_question_keeps_the_output(engine, lexicon, reference):
    """``… X니`` -> ``… X니 말해줘``: asked to say whether X, the hearer answers
    the same yes/no question. A quantifier noun (다) turns the frame into
    the universal-quantifier step, so a line with one is left out."""
    rewritten = 0
    broken = []
    for text, record in reference.items():
        if record.label != 0 or not text.endswith("니") or not lexicon.advdet.keys().isdisjoint(text.split()):
            continue
        rewritten += 1
        variant = text + " 말해줘"
        if _output(engine.process(variant)) != _output(record):
            broken.append((text, variant))
    assert rewritten == 328
    assert not broken, broken[:5]


def test_the_fusing_relations_fuse_only_the_cue_space():
    fuse_negator = RELATIONS["fused -지 마 / -지 말고"]
    fuse_preverbal = RELATIONS["fused 안 X면 / 안 돼"]
    assert fuse_negator("밖에 나가지 마세요") == "밖에 나가지마세요"
    assert fuse_negator("가지 말고 공부해") == "가지말고 공부해"
    assert fuse_negator("가지 마음") == "가지 마음"
    assert fuse_preverbal("약 안 먹으면 큰일나") == "약 안먹으면 큰일나"
    assert fuse_preverbal("가면 안 돼") == "가면 안돼"
    assert fuse_preverbal("안 먹어") == "안 먹어"


def _bundled_rows():
    """The bundled lexicon's rows, each split into its cells."""
    rows = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8").splitlines()
    return [row.split("\t") for row in rows if row and not row.startswith("#")]


def test_a_spaced_request_ending_keeps_the_output(engine, lexicon, reference):
    """``… 말해줘`` -> ``… 말해 줘``: a request ending spaced off an info
    verb's -어 form asks what the fused form asks (한글 맞춤법 §47), for each
    info verb row's form and each request entry, after every 20th line."""
    verbs = [cells[1] for cells in _bundled_rows() if cells[0] == "infoverb"]
    pairs = [(verb, request) for verb in verbs for request in sorted(lexicon.requests)]
    assert len(pairs) == 42
    broken = []
    for text in list(reference)[::20]:
        for verb, request in pairs:
            fused, spaced = f"{text} {verb}{request}", f"{text} {verb} {request}"
            if _output(engine.process(fused)) != _output(engine.process(spaced)):
                broken.append((fused, spaced))
    assert not broken, broken[:5]


def _polite_finals():
    """The last word of each bundled row flagged polite (살까, 안 돼 -> 돼)."""
    return tuple({c[1].split()[-1] for c in _bundled_rows() if len(c) == 3 and "polite" in c[2].split(";")})


def test_the_polite_form_of_the_last_token_keeps_the_output(engine, reference):
    """``… 살까`` -> ``… 살까요``: 요 on an informal form raises the speech
    level and keeps the intent (Sohn 1999). A line whose last token ends in a
    flagged form takes 요 on that token, and no line breaks: a parallel-clauses
    line whose earlier predicate keeps the informal form stays an alternative
    question."""
    finals = _polite_finals()
    rewritten = 0
    broken = []
    for text, record in reference.items():
        if not text.endswith(finals):
            continue
        rewritten += 1
        if _output(engine.process(text + "요")) != _output(record):
            broken.append(text)
    assert rewritten == 2890
    assert not broken, broken[:5]


def test_the_polite_form_of_an_earlier_predicate_keeps_the_output(engine, reference):
    """``짜장 먹을래 짬뽕 먹을래`` -> ``짜장 먹을래요 짬뽕 먹을래``: the other
    order of a mixed-level alternative question. A line whose last token ends
    in a flagged form and repeats an earlier token takes 요 on that token."""
    finals = _polite_finals()
    rewritten = 0
    broken = []
    for text, record in reference.items():
        words = text.split()
        if not text.endswith(finals) or words[-1] not in words[:-1]:
            continue
        rewritten += 1
        words[words.index(words[-1])] += "요"
        if _output(engine.process(" ".join(words))) != _output(record):
            broken.append(text)
    assert rewritten == 867
    assert not broken, broken[:5]
