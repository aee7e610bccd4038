import re
from itertools import combinations, product
from pathlib import Path

import pytest

import saek.classify
import saek.extract
from golden_cases import GOLDEN
from saek import predicate
from saek.classify import STEPS, IntentLabel
from saek.errors import Unclassifiable
from saek.lexicon import ArgumentCategory, Lexicon

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("text,label,_arg,_cat", GOLDEN)
def test_golden_labels(analyzer, classifier, text, label, _arg, _cat):
    got = classifier.classify(analyzer.normalize(text))
    assert int(got.label) == label


def test_statement_is_unclassifiable(analyzer, classifier):
    with pytest.raises(Unclassifiable):
        classifier.classify(analyzer.normalize("비가 온다"))
    with pytest.raises(Unclassifiable):
        classifier.classify(analyzer.normalize("노란 꽃"))


def test_wh_field_present_exactly_for_label_two(analyzer, classifier):
    for text, label, _arg, _cat in GOLDEN:
        got = classifier.classify(analyzer.normalize(text))
        assert (got.wh is not None) == (label == 2)


def test_info_seeking_imperative_rule_precedes_imperative(analyzer, classifier):
    got = classifier.classify(analyzer.normalize("이번 주 일정을 모두 말해"))
    assert got.label is IntentLabel.WH
    assert got.step == "info-seeking+universal-quantifier"


def test_want_to_know_cue_skips_a_trailing_vocative(analyzer, classifier):
    u = analyzer.normalize("밥 먹었는지 궁금해 민수야")
    got = classifier.classify(u)
    assert (got.label, got.step) == (IntentLabel.YES_NO, "want-to-know")
    (evidence,) = got.evidence
    assert u.text[slice(*evidence.span)] == "궁금해"


@pytest.mark.parametrize(
    "text, step, bearer",
    [
        ("밖에 나가면 위험해 민수야", "danger-conditional", "위험해"),
        ("안전벨트 안 매면 위험해 민수야", "double-negation", "위험해"),
        ("나가지 마 민수야", "negative-imperative", "마"),
    ],
)
def test_negated_steps_read_the_predicate_at_the_bearer(analyzer, classifier, text, step, bearer):
    # a trailing name call neither hides the danger predicate nor takes the evidence
    u = analyzer.normalize(text)
    got = classifier.classify(u)
    assert got.step == step
    (evidence,) = got.evidence
    assert u.text[slice(*evidence.span)] == bearer


def test_info_seeking_without_wh_or_quantifier_is_polar(analyzer, classifier):
    got = classifier.classify(analyzer.normalize("어제 소식 말해줘"))
    assert got.label is IntentLabel.YES_NO


@pytest.mark.parametrize("text, info", [("어제 소식 말해줘", 1), ("내일 비 오는지 말해 줘", 2)])
def test_polar_info_seeking_counts_the_info_verb_tokens(analyzer, classifier, text, info):
    # the step hands over the info verb's first token: the last ``info`` tokens
    u = analyzer.normalize(text)
    got = classifier.classify(u)
    assert (got.step, got.end) == ("info-seeking", len(u.tokens) - info)


def test_info_seeking_with_wh_word(analyzer, classifier):
    got = classifier.classify(analyzer.normalize("지갑 어디 있는지 말해줘"))
    assert got.label is IntentLabel.WH
    assert got.wh is ArgumentCategory.LOCATION


def test_alternative_requires_parallel_or_disjunction(analyzer, classifier):
    got = classifier.classify(analyzer.normalize("버스 타 아니면 택시 탈래"))
    assert got.label is IntentLabel.ALTERNATIVE
    # a lone interrogative clause stays polar
    got = classifier.classify(analyzer.normalize("버스로 올거야"))
    assert got.label is IntentLabel.YES_NO


def test_double_negation_needs_all_three_cues(analyzer, classifier):
    sr = classifier.classify(analyzer.normalize("안전띠 안매면 큰일나"))
    assert sr.label is IntentLabel.STRONG_REQUIREMENT
    ph = classifier.classify(analyzer.normalize("안전띠 매면 큰일나"))
    assert ph.label is IntentLabel.PROHIBITION


def test_determinism_bit_for_bit(analyzer, classifier):
    for text, *_ in GOLDEN:
        u1, u2 = analyzer.normalize(text), analyzer.normalize(text)
        assert classifier.classify(u1) == classifier.classify(u2)


def test_evidence_spans_within_bounds(analyzer, classifier):
    for text, *_ in GOLDEN:
        u = analyzer.normalize(text)
        got = classifier.classify(u)
        for e in got.evidence:
            start, end = e.span
            assert 0 <= start <= end <= len(u.text)


def test_question_type_projection(engine):
    # question labels carry a question type and no negativeness
    cases = {
        "너 의료 봉사 신청 했어": (0, "yes_no", "yes/no"),
        "버스로 올거야 택시로 올거야": (1, "alternative", "alternative"),
        "오늘은 누구 왔니": (2, "wh", "wh"),
    }
    for text, (label, name, qt) in cases.items():
        r = engine.process(text)
        assert (r.label, r.label_name, r.question_type) == (label, name, qt), text
        assert r.negativeness is None, text


def test_negativeness_projection(engine):
    # directive labels carry a negativeness and no question type
    cases = {
        "태풍 오니까 밖에 나가지 마": (3, "prohibition", "prohibition"),
        "인적사항 확인 바랍니다": (4, "requirement", "requirement"),
        "안전띠 안매면 큰일나": (5, "strong_requirement", "strong requirement"),
    }
    for text, (label, name, neg) in cases.items():
        r = engine.process(text)
        assert (r.label, r.label_name, r.negativeness) == (label, name, neg), text
        assert r.question_type is None, text


def test_label_encoding_matches_dataset_order():
    assert [int(l) for l in IntentLabel] == [0, 1, 2, 3, 4, 5]
    assert IntentLabel.YES_NO == 0 and IntentLabel.STRONG_REQUIREMENT == 5


# one input per step of the rule cascade, in cascade order; several of the
# question steps' inputs hold a -면 clause
STEP_INPUTS = {
    "info-seeking+wh-word": "지갑 어디 있는지 말해줘",
    "info-seeking+universal-quantifier": "이번 주 일정을 모두 말해",
    "info-seeking": "어제 소식 말해줘",
    "wh-word": "비 오면 뭐 할래",
    "parallel-clauses": "짜장 먹을래 짬뽕 먹을래",
    "disjunction": "커피 아니면 차 마실래",
    "polar-ending": "안 먹으면 혼나니",
    "want-to-know": "가면 안 되는지 궁금해",
    "negation-coordination": "놀지 말고 공부해",
    "double-negation": "안전띠 안매면 큰일나",
    "negative-imperative": "태풍 오니까 밖에 나가지 마",
    "danger-conditional": "밖에 나가면 위험해",
    "imperative-ending": "인적사항 확인 바랍니다",
}
QUESTION_STEPS = {s: text for s, text in STEP_INPUTS.items() if STEPS[s].label <= IntentLabel.WH}


@pytest.mark.parametrize("step", STEPS)
def test_each_step_fires_with_its_label_and_evidence_rules(analyzer, classifier, engine, step):
    label, rules, _ = STEPS[step]
    text = STEP_INPUTS[step]
    got = classifier.classify(analyzer.normalize(text))
    assert (got.step, got.label) == (step, label)
    assert tuple(e.rule for e in got.evidence) == rules
    assert (got.wh is not None) == (label is IntentLabel.WH)
    record = engine.process(text)
    assert (record.label, record.error) == (label, None)


@pytest.mark.parametrize("step", STEPS)
def test_a_step_given_the_wrong_number_of_spans_raises(step):
    rules = STEPS[step].rules
    fired = saek.classify._fired(step, *[(0, 1)] * len(rules))
    assert [e.rule for e in fired.evidence] == list(rules)
    for n in (len(rules) - 1, len(rules) + 1):
        with pytest.raises(ValueError):
            saek.classify._fired(step, *[(0, 1)] * n)


# one input for each pair of steps whose conditions can both hold, and the
# earlier step fires on it: (earlier, later, text). A step's condition is its
# own test in Classifier.classify, without the steps before it. A want-to-know
# cue shares the last token with a danger predicate, or with a benefactive
# after an info verb, only in a made-up fused token (궁금위험해, 궁금해줘)
STEP_ORDER_PINS = [
    ("info-seeking+wh-word", "info-seeking+universal-quantifier", "누가 일정을 모두 정했는지 말해줘"),
    ("info-seeking+wh-word", "info-seeking", "어디 가는지 알려줘"),
    ("info-seeking+wh-word", "wh-word", "뭐 먹었는지 말해줄래"),
    ("info-seeking+wh-word", "parallel-clauses", "누가 왔는지 알려줄래 누가 갔는지 알려줄래"),
    ("info-seeking+wh-word", "disjunction", "누가 왔는지 아니면 누가 갔는지 알려줄래"),
    ("info-seeking+wh-word", "polar-ending", "누가 왔는지 알려줄래"),
    ("info-seeking+wh-word", "want-to-know", "뭐 먹었는지 말해 궁금해줘"),
    ("info-seeking+wh-word", "negation-coordination", "놀지 말고 뭐 할지 말해줘"),
    ("info-seeking+wh-word", "negative-imperative", "나가지 마 누가 그랬는지 말해줘"),
    ("info-seeking+wh-word", "imperative-ending", "뭐 먹었는지 말해줘"),
    ("info-seeking+universal-quantifier", "info-seeking", "이번 주 일정을 모두 말해"),
    ("info-seeking+universal-quantifier", "parallel-clauses", "일정을 모두 알려줄래 메뉴를 모두 알려줄래"),
    ("info-seeking+universal-quantifier", "disjunction", "일정 아니면 메뉴를 모두 알려줄래"),
    ("info-seeking+universal-quantifier", "polar-ending", "일정을 모두 알려줄래"),
    ("info-seeking+universal-quantifier", "want-to-know", "일정을 모두 말해 궁금해줘"),
    ("info-seeking+universal-quantifier", "negation-coordination", "놀지 말고 일정을 모두 말해줘"),
    ("info-seeking+universal-quantifier", "negative-imperative", "나가지 마 일정을 모두 알려줘"),
    ("info-seeking+universal-quantifier", "imperative-ending", "일정을 모두 알려줘"),
    ("info-seeking", "parallel-clauses", "비 오는지 알려줄래 눈 오는지 알려줄래"),
    ("info-seeking", "disjunction", "비 아니면 눈 오는지 알려줄래"),
    ("info-seeking", "polar-ending", "내일 비 오는지 알려줄래"),
    ("info-seeking", "want-to-know", "비 오는지 말해 궁금해줘"),
    ("info-seeking", "negation-coordination", "놀지 말고 어제 소식 말해줘"),
    ("info-seeking", "negative-imperative", "나가지 마 어제 소식 말해줘"),
    ("info-seeking", "imperative-ending", "어제 소식 말해줘"),
    ("wh-word", "parallel-clauses", "뭐 먹을래 뭐 먹을래"),
    ("wh-word", "disjunction", "커피 아니면 뭐 마실래"),
    ("wh-word", "polar-ending", "뭐 먹을래"),
    ("wh-word", "want-to-know", "뭐 먹었는지 궁금해"),
    ("wh-word", "negation-coordination", "놀지 말고 뭐 할지 궁금해"),
    ("wh-word", "double-negation", "뭐 안 가면 궁금위험해"),
    ("wh-word", "negative-imperative", "밖에 나가지 마 뭐 할래"),
    ("wh-word", "danger-conditional", "뭐 나가면 궁금위험해"),
    ("wh-word", "imperative-ending", "누가 왔는지 궁금해"),
    ("parallel-clauses", "disjunction", "버스 탈래 아니면 택시 탈래"),
    ("parallel-clauses", "polar-ending", "짜장 먹을래 짬뽕 먹을래"),
    ("parallel-clauses", "want-to-know", "비 오는지 궁금하니 눈 오는지 궁금하니"),
    ("parallel-clauses", "negative-imperative", "나가지 마 짜장 먹을래 짬뽕 먹을래"),
    ("disjunction", "polar-ending", "커피 아니면 차 마실래"),
    ("disjunction", "want-to-know", "비 아니면 눈 오는지 궁금하니"),
    ("disjunction", "negative-imperative", "나가지 마 커피 아니면 차 마실래"),
    ("polar-ending", "want-to-know", "가면 안 되는지 궁금하니"),
    ("polar-ending", "negative-imperative", "밖에 나가지 마 알겠니"),
    ("want-to-know", "negation-coordination", "놀지 말고 공부했는지 궁금해"),
    ("want-to-know", "double-negation", "안 가면 궁금위험해"),
    ("want-to-know", "negative-imperative", "밖에 나가지 마 궁금해"),
    ("want-to-know", "danger-conditional", "나가면 궁금위험해"),
    ("want-to-know", "imperative-ending", "밥 먹었는지 궁금해"),
    ("negation-coordination", "double-negation", "장난치지 말고 안전벨트 안 매면 위험해"),
    ("negation-coordination", "negative-imperative", "놀지 말고 나가지 마세요"),
    ("negation-coordination", "danger-conditional", "놀지 말고 밖에 나가면 위험해"),
    ("negation-coordination", "imperative-ending", "놀지 말고 공부해"),
    ("double-negation", "negative-imperative", "떠들지 마 숙제 안 하면 혼나"),
    ("double-negation", "danger-conditional", "안 가면 큰일나"),
    ("double-negation", "imperative-ending", "안전벨트 안 매면 위험해"),
    ("negative-imperative", "danger-conditional", "밖에 나가지 마 나가면 큰일나"),
    ("negative-imperative", "imperative-ending", "나가지 마세요"),
    ("danger-conditional", "imperative-ending", "밖에 나가면 위험해"),
]
INFO_STEPS = ("info-seeking+wh-word", "info-seeking+universal-quantifier", "info-seeking")
ENDING_STEPS = ("parallel-clauses", "disjunction", "polar-ending")
DANGER_STEPS = ("double-negation", "danger-conditional")
# the pairs of steps whose conditions never both hold, each with the reason
DISJOINT_STEPS = {
    **dict.fromkeys(
        product(INFO_STEPS, DANGER_STEPS),
        "the last token is an info verb, or a benefactive after one, and none ends in a"
        " danger predicate (test_no_info_verb_or_benefactive_ends_in_a_danger_predicate)",
    ),
    **dict.fromkeys(
        product(INFO_STEPS[1:], ["wh-word"]),
        "wh-word needs a wh hit, and an info verb with a wh hit is info-seeking+wh-word",
    ),
    **dict.fromkeys(
        product(ENDING_STEPS, ["negation-coordination", "imperative-ending"]),
        "the last token's ending is interrogative or imperative, not both",
    ),
    **dict.fromkeys(
        product(ENDING_STEPS, DANGER_STEPS),
        "no danger predicate ends in an interrogative ending"
        " (test_lexicon.py::test_no_danger_row_ends_in_an_interrogative_ending)",
    ),
}


@pytest.mark.parametrize("earlier, later, text", STEP_ORDER_PINS)
def test_the_earlier_of_two_steps_that_both_hold_fires(analyzer, classifier, earlier, later, text):
    assert classifier.classify(analyzer.normalize(text)).step == earlier


def test_every_pair_of_steps_is_pinned_or_disjoint():
    pairs = [(a, b) for a, b, _ in STEP_ORDER_PINS] + list(DISJOINT_STEPS)
    assert sorted(pairs) == sorted(combinations(STEPS, 2))


def test_no_info_verb_or_benefactive_ends_in_a_danger_predicate(lexicon):
    # a danger predicate ends the last token, or is the last two tokens
    benefactive = [s for s, e in lexicon.endings.items() if e.stem == predicate.BENEFACTIVE]
    finals = [*lexicon.danger, *(last for _, last in lexicon.danger_pairs)]
    assert benefactive and finals
    ends = [*lexicon.infoverbs, *benefactive]
    assert [(s, d) for s in ends for d in finals if s.endswith(d) or d.endswith(s)] == []


def readme_cascade() -> list[tuple[int, str, int, tuple[str, ...], str]]:
    """(row number, step, label, evidence rules, routine) of each row of
    README's "Rule cascade" table; a rule named twice in a row is read once."""
    section = README.read_text("utf-8").split("\n## Rule cascade\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 5 or not cells[0].isdigit():
            continue
        (step,) = re.findall(r"`([^`]+)`", cells[1])
        rules = tuple(dict.fromkeys(re.findall(r"`([^`]+)`", cells[3])))
        (routine,) = re.findall(r"`([^`]+)`", cells[4])
        rows.append((int(cells[0]), step, int(cells[2]), rules, routine))
    return rows


def test_readme_cascade_table_is_the_steps_table():
    expected = [
        (n, step, int(label), tuple(dict.fromkeys(rules)), routine)
        for n, (step, (label, rules, routine)) in enumerate(STEPS.items(), start=1)
    ]
    assert readme_cascade() == expected


def test_a_question_makes_no_danger_lookup(monkeypatch, analyzer, classifier):
    # only the negation steps, after every question step, read the danger table
    calls = []
    is_danger_predicate = Lexicon.is_danger_predicate

    def counted(self, tokens):
        calls.append(tokens)
        return is_danger_predicate(self, tokens)

    monkeypatch.setattr(Lexicon, "is_danger_predicate", counted)
    for step, text in QUESTION_STEPS.items():
        assert classifier.classify(analyzer.normalize(text)).step == step
    assert calls == []
    # the counter is live: a -면 command reads the table once
    assert classifier.classify(analyzer.normalize("먹으면 혼나")).step == "danger-conditional"
    assert calls == [("먹으면", "혼나")]  # the surfaces of the last two tokens


def test_a_polar_question_makes_no_cue_lookup(monkeypatch, lexicon, engine):
    # the cue table's gate: a bearer that starts no cue's final part takes
    # no match_cue call, in the cascade or in the extraction
    calls = []
    match_cue = Lexicon.match_cue

    def counted(self, tokens):
        calls.append(tokens)
        return match_cue(self, tokens)

    monkeypatch.setattr(Lexicon, "match_cue", counted)
    text = "너 의료 봉사 신청 했어"
    assert text.split()[-1][0] not in lexicon.cue_starts
    assert engine.process(text).label == IntentLabel.YES_NO
    assert calls == []
    # the counter is live: a want-to-know cue is matched by both, on the
    # classifier's slice of the surfaces and the extractor's list
    record = engine.process(STEP_INPUTS["want-to-know"])
    assert [e.rule for e in record.evidence] == ["want-to-know"]
    assert calls == [("되는지", "궁금해"), ["되는지", "궁금해"]]


# the token each step was decided on, which it hands extraction (any step
# not listed hands none): the info verb, the -지 host or the -(으)면 clause
STEP_ENDS = {
    "info-seeking+wh-word": 3,  # 말해줘
    "info-seeking+universal-quantifier": 4,  # 말해
    "info-seeking": 2,  # 말해줘
    "double-negation": 1,  # 안매면
    "negative-imperative": 3,  # 나가지 (마)
    "danger-conditional": 1,  # 나가면
}


@pytest.mark.parametrize(
    "step, text, end",
    [(step, STEP_INPUTS[step], STEP_ENDS.get(step)) for step in STEPS]
    + [("negative-imperative", "밖에 나가지마", 1)],  # a fused host is the negator's token
)
def test_each_step_hands_extraction_the_token_it_was_decided_on(
    analyzer, classifier, step, text, end
):
    got = classifier.classify(analyzer.normalize(text))
    assert (got.step, got.end) == (step, end)


def test_a_negative_imperative_finds_its_host_once(monkeypatch, engine):
    # the cascade finds the -지 host and hands it over; extraction never
    # searches for it again
    calls = []
    negative_imperative = saek.classify.negative_imperative

    def counted(tokens, negators):
        calls.append(list(negators))
        return negative_imperative(tokens, negators)

    monkeypatch.setattr(saek.classify, "negative_imperative", counted)
    monkeypatch.setattr(saek.extract, "negative_imperative", counted, raising=False)
    record = engine.process(STEP_INPUTS["negative-imperative"])
    assert (record.label, record.argument) == (3, "밖에 나가지 않기")
    assert calls == [[4]]
