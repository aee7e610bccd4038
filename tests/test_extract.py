import pytest

import saek.classify
from golden_cases import GOLDEN
from saek import Extractor
from saek.classify import Classification, Evidence, IntentLabel, Step
from saek.errors import ExtractionFailed, OptionsNotFound
from saek.lexicon import ArgumentCategory

QUESTION_CATEGORIES = {
    ArgumentCategory.WHETHER,
    ArgumentCategory.CHOICE,
    ArgumentCategory.PERSON,
    ArgumentCategory.MEANING,
    ArgumentCategory.LOCATION,
    ArgumentCategory.TIME,
    ArgumentCategory.REASON,
    ArgumentCategory.METHOD,
}
COMMAND_CATEGORIES = {ArgumentCategory.PROHIBITION, ArgumentCategory.REQUIREMENT}


def run(analyzer, classifier, extractor, text):
    u = analyzer.normalize(text)
    c = classifier.classify(u)
    return extractor.extract(u, c)


@pytest.mark.parametrize("text,_label,arg,cat", GOLDEN)
def test_golden_arguments(analyzer, classifier, extractor, text, _label, arg, cat):
    got = run(analyzer, classifier, extractor, text)
    assert got.text == arg
    assert got.category.value == cat


def test_yesno_derived_nominalizer(analyzer, classifier, extractor):
    # stem + 는지 rule applied by hand over the morpheme tables
    got = run(analyzer, classifier, extractor, "밥 먹었어")
    assert got.text == "밥 먹었는지 여부"
    assert got.category is ArgumentCategory.WHETHER


def test_yesno_copula_uses_inji(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "그게 사실이야")
    assert got.text.endswith("인지 여부")


def test_yesno_empty_content_fails(analyzer, classifier, extractor):
    with pytest.raises(ExtractionFailed):
        run(analyzer, classifier, extractor, "궁금해")  # nothing but the cue
    with pytest.raises(ExtractionFailed):
        # a yes/no routine reads only its tokens and the step's hand-off
        extractor.extract_yesno(None, Classification(IntentLabel.YES_NO, "polar-ending"), [])


def test_a_step_without_its_routine_fails_when_the_extractor_is_built(monkeypatch, lexicon):
    step = Step(IntentLabel.YES_NO, ("probe",), "extract_probe")
    monkeypatch.setitem(saek.classify.STEPS, "probe", step)
    with pytest.raises(AttributeError, match="extract_probe"):
        Extractor(lexicon)


def test_alternative_derived_template(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "짜장 먹을래 짬뽕 먹을래")
    assert got.text == "짜장 짬뽕 중 먹을 것"


def test_alternative_single_clause_fails(extractor, analyzer):
    u = analyzer.normalize("버스로 올거야")
    with pytest.raises(OptionsNotFound):
        extractor.extract_alternative(u, None, u.tokens)


def test_alternative_past_predicate(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "버스로 왔어 택시로 왔어")
    assert got.text == "버스 택시 중 온 것"


def test_wh_first_occurrence_wins(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "누가 어디 갔니")
    assert got.category is ArgumentCategory.PERSON
    assert got.text.endswith("사람")


def test_wh_info_seeking_embedded_question(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "지갑 어디 있는지 말해줘")
    assert got.text == "지갑 있는 위치"


@pytest.mark.parametrize(
    "text,step,arg",
    [
        ("지갑 어디 있는지 말해 줘", "info-seeking+wh-word", "지갑 있는 위치"),
        ("이번 주 일정을 모두 말해 줘 민수야", "info-seeking+universal-quantifier", "이번 주 모든 일정"),
    ],
)
def test_spaced_benefactive_info_verb_is_cut(analyzer, classifier, extractor, text, step, arg):
    # 말해 줘 is one info verb of two tokens, and the argument loses both
    u = analyzer.normalize(text)
    c = classifier.classify(u)
    assert c.step == step
    assert "민수야" not in [t.surface for t in u.tokens]
    assert [t.surface for t in u.tokens[c.end :]] == ["말해", "줘"]
    assert extractor.extract(u, c).text == arg


def test_command_keeps_locative_particle(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "태풍 오니까 밖에 나가지 마")
    assert got.text == "밖에 나가지 않기"  # 에 kept, reason clause dropped


@pytest.mark.parametrize(
    "text, arg",
    [
        ("a니까 밖에 나가지 마", "밖에 나가지 않기"),  # no syllable before 니까: the connective
        ("그럽니까 밖에 나가지 마", "그럽니까 밖에 나가지 않기"),  # -ㅂ니까 is an ending, no boundary
    ],
)
def test_connective_that_is_an_ending_is_no_clause_boundary(engine, text, arg):
    record = engine.process(text)
    assert (record.label, record.argument) == (3, arg)


def test_command_requirement_nominalizers(analyzer, classifier, extractor):
    assert run(analyzer, classifier, extractor, "인적사항 확인 바랍니다").text == "인적사항 확인하기"
    assert run(analyzer, classifier, extractor, "손 씻어라").text == "손 씻기"
    assert run(analyzer, classifier, extractor, "천천히 운전해").text == "천천히 운전하기"


def test_command_requirement_drops_object_case_particle(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "창문을 열어줘")
    assert got.text == "창문 열어주기"


def test_sr_malgo_drops_whole_negated_clause(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "욕심부리지 말고 지금 팔아")
    pre_clause = {"욕심부리지", "말고"}
    assert not pre_clause & set(got.text.split())
    assert got.category is ArgumentCategory.REQUIREMENT


def test_malgo_drop_applies_to_every_route(analyzer, classifier, extractor):
    cases = [
        ("커피 말고 차 마실래", "차 마실지 여부", {"커피", "말고"}),
        ("그거 말고 이거 살까 저거 살까", "이거 저거 중 살 것", {"그거", "말고"}),
        ("이것 말고 저것 주세요", "저것 주기", {"이것", "말고"}),
    ]
    for text, want, banned in cases:
        got = run(analyzer, classifier, extractor, text)
        assert got.text == want
        assert not banned & set(got.text.split())


# Inputs that repeat a cue: negation coordination fires on the first 말고,
# and the argument is whatever follows the last one.
REPEATED_CUES = [
    ("욕심부리지 말고 놀지 말고 지금 팔아", 5, "지금 팔기"),
    ("놀지 말고 자지 말고 공부해", 5, "공부하기"),
    ("사과 말고 배 살래 귤 살래", 1, "배 귤 중 살 것"),
    ("비 오면 안 나가면 큰일나", 3, "비 오지 않기"),
    ("너 놀지 말고 숙제해 철수야", 5, "숙제하기"),
]


@pytest.mark.parametrize("text, label, argument", REPEATED_CUES)
def test_repeated_cue_outputs(engine, text, label, argument):
    record = engine.process(text)
    assert (record.label, record.argument, record.error) == (label, argument, None)


def test_repeated_malgo_evidence_is_first_malgo(engine):
    record = engine.process("욕심부리지 말고 놀지 말고 지금 팔아")
    assert record.evidence == (Evidence("negation-coordination", (6, 8)),)


def test_repeated_malgo_without_negated_clause_is_unclassifiable(engine):
    assert engine.process("사과 말고 배 말고 귤 사").error == "unclassifiable"


@pytest.mark.parametrize("bearer", ["전해", "너해", "나해", "제해"])
def test_malgo_before_pronoun_stem_bearer_fails(engine, bearer):
    # the bearer drops out with the pronouns, leaving 말고 with nothing after it
    record = engine.process(f"걱정하지 말고 {bearer}")
    assert (record.label, record.argument, record.error) == (5, None, "extraction-failed")


# The cascade step that fired picks the routine, and every routine drops the
# material before the last 말고.
STEP_PICKS_ROUTINE = [
    ("커피 말고 약 안 먹으면 큰일나", 5, "약 먹기"),
    ("장난 말고 안전벨트 안 매면 위험해", 5, "안전벨트 매기"),
    ("이거 말고 나가지 마", 3, "나가지 않기"),
    ("이거 말고 저거 만지면 위험해", 3, "저거 만지지 않기"),
    # a trailing vocative does not hide the want-to-know cue
    ("밥 먹었는지 궁금해 민수야", 0, "밥 먹었는지 여부"),
    # nor does one inside it
    ("밥 먹었는지 알고 민수야 싶다", 0, "밥 먹었는지 여부"),
    # 안으면 is the verb 안다, not a negator fused onto -으면
    ("안으면 혼나", 3, "안지 않기"),
]


@pytest.mark.parametrize("text, label, argument", STEP_PICKS_ROUTINE)
def test_cascade_step_picks_the_routine(engine, text, label, argument):
    record = engine.process(text)
    assert (record.label, record.argument, record.error) == (label, argument, None)


def test_repeated_malgo_with_nothing_after_the_last_fails(engine):
    record = engine.process("놀지 말고 자지 말고 전해")
    assert (record.label, record.argument, record.error) == (5, None, "extraction-failed")


@pytest.mark.parametrize(
    "text, label", [("커피 말고 뭐야", 2), ("커피 말고 너니", 0), ("커피 말고 전해", 4)]
)
def test_malgo_before_a_bearer_that_drops_out_leaves_nothing(engine, text, label):
    # the wh word or pronoun stem bearer is no content, and 말고 rejects
    # everything before it: 말고 never leaks into the argument
    record = engine.process(text)
    assert (record.label, record.argument, record.error) == (label, None, "extraction-failed")


def test_contraction_fallback_flagged_in_notes(analyzer, classifier, extractor):
    # a nonsense coda-ㅆ syllable outside the contraction table: raw stem + 은
    got = run(analyzer, classifier, extractor, "누가 긨니")
    assert got.text == "긨은 사람"
    assert "contraction-fallback" in got.notes


def test_sr_double_negation_removes_negator(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "안전띠 안매면 큰일나")
    assert got.text == "안전띠 매기"
    got = run(analyzer, classifier, extractor, "약 안 먹으면 혼나")
    assert got.text == "약 먹기"


def test_category_agrees_with_supertype(analyzer, classifier, extractor):
    for text, label, _arg, _cat in GOLDEN:
        got = run(analyzer, classifier, extractor, text)
        if label <= 2:
            assert got.category in QUESTION_CATEGORIES
        else:
            assert got.category in COMMAND_CATEGORIES


def test_no_ending_leakage_on_golden(analyzer, classifier, extractor, lexicon):
    for text, *_ in GOLDEN:
        got = run(analyzer, classifier, extractor, text)
        assert not any(tok in lexicon.endings for tok in got.text.split())


def test_subject_pronoun_dropped(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "너 의료 봉사 신청 했어")
    assert "너" not in got.text.split()


def test_vocative_dropped(analyzer, classifier, extractor):
    got = run(analyzer, classifier, extractor, "어디 있니 로비야")
    assert "로비" not in got.text
