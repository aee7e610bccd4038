import random

import pytest
from hypothesis import given, strategies as st

from saek.analyze import PUNCTUATION, Eojeol, negative_imperative
from saek.errors import EmptyUtterance
from saek.lexicon import default_lexicon


def test_normalize_golden_question(analyzer):
    u = analyzer.normalize("너 의료 봉사 신청 했어?")
    assert u.text == "너 의료 봉사 신청 했어"
    assert len(u.tokens) == 5


def test_eojeol_fields_are_the_order_normalize_builds():
    """``Analyzer._analyze_tokens`` builds each token with ``tuple.__new__`` from
    eight positional values, which checks neither their number nor their
    order: a field added or moved must be added or moved there too."""
    assert Eojeol._fields == (
        "surface",
        "start",
        "stem",
        "particle",
        "ending",
        "negation",
        "fused",
        "conditional",
    )


def test_normalize_whitespace_only_raises(analyzer):
    with pytest.raises(EmptyUtterance):
        analyzer.normalize("   ")
    with pytest.raises(EmptyUtterance):
        analyzer.normalize("?!…")


def test_normalize_collapse_and_strip(analyzer):
    assert analyzer.normalize("지금  팔아!").text == "지금 팔아"
    assert analyzer.normalize("\t지금\n팔아…  ").text == "지금 팔아"


def test_normalize_removes_listed_punctuation(analyzer):
    u = analyzer.normalize("뭐, 먹을까~? 진짜….")
    assert not set(u.text) & set(PUNCTUATION)
    # each mark is a space
    assert u == analyzer.normalize("뭐 먹을까 진짜")
    assert analyzer.normalize("뭐,먹을까").text == "뭐 먹을까"


def _surfaces(u):
    return tuple(t.surface for t in u.tokens)


def test_tokens_rebuild_text(analyzer):
    u = analyzer.normalize("버스로 올거야 택시로 올거야")
    assert " ".join(_surfaces(u)) == u.text
    assert all(u.text[t.start : t.start + len(t.surface)] == t.surface for t in u.tokens)


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    from saek.analyze import Analyzer

    analyzer = Analyzer(default_lexicon())
    try:
        once = analyzer.normalize(text)
    except EmptyUtterance:
        return
    assert analyzer.normalize(once.text).text == once.text


def test_strip_josa_examples(analyzer):
    assert analyzer.strip_josa("오늘은") == ("오늘", "은")
    assert analyzer.strip_josa("일정을") == ("일정", "을")
    stem, particle = analyzer.strip_josa("버스")
    assert particle is None and stem == "버스"


def test_strip_josa_never_empties_single_syllable(analyzer):
    for token in ["은", "를", "에", "도"]:
        stem, particle = analyzer.strip_josa(token)
        assert stem == token and particle is None


def test_strip_josa_fuzz_never_aborts_and_reconstructs(analyzer):
    rng = random.Random(7)
    for _ in range(10_000):
        token = "".join(
            chr(rng.randrange(0xAC00, 0xD7A4)) for _ in range(rng.randint(1, 5))
        )
        stem, particle = analyzer.strip_josa(token)
        assert stem, f"emptied stem for {token!r}"
        assert stem + (particle or "") == token


def test_ending_assigned_to_last_non_vocative(analyzer):
    u = analyzer.normalize("어디 있니 로비야")
    assert u.text == "어디 있니 로비야"
    assert _surfaces(u) == ("어디", "있니")
    assert u.tokens[-1].ending is not None
    assert u.tokens[-1].ending.surface == "니"


def test_bearer_is_last_non_vocative(analyzer):
    # the bearer, the token the ending sits on, is the last token kept: every
    # vocative is left out, and each token's start still indexes the text
    u = analyzer.normalize("밥 먹었니 민수야")
    assert _surfaces(u) == ("밥", "먹었니") and u.tokens[-1].ending.surface == "니"
    u = analyzer.normalize("민수야 밥 먹었니")
    assert _surfaces(u) == ("밥", "먹었니") and u.tokens[-1].ending.surface == "니"
    assert [t.start for t in u.tokens] == [4, 6]
    u = analyzer.normalize("민수야 철수야")
    assert u.text == "민수야 철수야" and u.tokens == ()


def test_a_negator_or_a_wh_form_is_no_vocative(analyzer):
    # either makes the token content, so normalize keeps it
    assert _surfaces(analyzer.normalize("밖에 나가지말아 제발")) == ("밖에", "나가지말아", "제발")
    assert _surfaces(analyzer.normalize("거기 어디야 알려줘")) == ("거기", "어디야", "알려줘")


def test_a_final_name_call_follows_an_ending_a_negator_or_a_condition(analyzer):
    for text in ("밥 먹었니 민수야", "밖에 나가지마 민수야", "밖에 나가면 큰일나 민수야"):
        assert _surfaces(analyzer.normalize(text)) == tuple(text.split()[:-1])
    # with none before it, the token is the predicate
    assert _surfaces(analyzer.normalize("사과 민수야")) == ("사과", "민수야")


def test_vocative_not_confused_with_periphrastic_ending(analyzer):
    u = analyzer.normalize("버스로 올거야 택시로 올거야")
    assert _surfaces(u) == tuple(u.text.split(" "))


def test_leading_vocative_flagged(analyzer):
    u = analyzer.normalize("로비야 어디 있니")
    assert "로비야" not in _surfaces(u) and len(u.tokens) == 2
    assert u.tokens[-1].ending is not None
    assert u.text[u.tokens[0].start :] == "어디 있니"


def test_reconstruction_invariant(analyzer):
    for text in [
        "오늘은 누구 왔니",
        "대구 몇 시에 도착이야",
        "태풍 오니까 밖에 나가지 마",
        "이번 주 일정을 모두 말해",
        "어디 있니 로비야",
    ]:
        for t in analyzer.normalize(text).tokens:
            rebuilt = t.stem + (t.particle or "") + (t.ending.surface if t.ending else "")
            assert rebuilt == t.surface


def _step(analyzer, classifier, text):
    return classifier.classify(analyzer.normalize(text)).step


def test_profile_negation_negative_imperative(analyzer, classifier):
    assert _step(analyzer, classifier, "태풍 오니까 밖에 나가지 마") == "negative-imperative"


def test_profile_negation_double_negation(analyzer, classifier):
    assert _step(analyzer, classifier, "안전띠 안매면 큰일나") == "double-negation"


def test_profile_negation_plain_request(analyzer, classifier):
    assert _step(analyzer, classifier, "인적사항 확인 바랍니다") == "imperative-ending"


def test_profile_negation_malgo_index(analyzer, classifier):
    u = analyzer.normalize("욕심부리지 말고 지금 팔아")
    c = classifier.classify(u)
    assert c.step == "negation-coordination"
    assert [e.span for e in c.evidence] == [(u.tokens[1].start, u.tokens[1].start + len("말고"))]


def test_profile_negation_danger_pair_not_preverbal(analyzer, classifier):
    assert _step(analyzer, classifier, "가면 안 돼") == "danger-conditional"
    assert _step(analyzer, classifier, "안 가면 안 돼") == "double-negation"


def test_wh_hits_multi_token(analyzer):
    u = analyzer.normalize("대구 몇 시에 도착이야")
    hits = u.wh_hits
    assert len(hits) == 1
    assert hits[0].token_start == 1 and hits[0].token_end == 3
    assert u.text[hits[0].char_start : hits[0].char_end] == "몇 시"


def _cues(analyzer, text):
    return [(t.negation, t.fused, t.conditional) for t in analyzer.normalize(text).tokens]


@pytest.mark.parametrize(
    "text, cues",
    [
        ("나가지마", [("ma", "마", False)]),
        ("놀지말고", [("malgo", "말고", False)]),
        ("걱정하지 말고 전해", [(None, None, False), ("malgo", None, False), (None, None, False)]),
        ("안매면", [(None, None, True)]),
        (
            "버스 타 아니면 택시 탈래",
            [(None, None, False)] * 5,  # the disjunction is not a conditional
        ),
        ("안 돼", [("preverbal", None, False), (None, None, False)]),
        ("나가지 마", [(None, None, False), ("ma", None, False)]),
    ],
)
def test_token_cues_tagged_once(analyzer, text, cues):
    assert _cues(analyzer, text) == cues


def _ma(u):
    return [i for i in u.cued if u.tokens[i].negation == "ma"]


def test_negative_imperative_reads_the_tags(analyzer):
    u = analyzer.normalize("밖에 나가지 마")
    assert _ma(u) == [2]
    assert negative_imperative(u.tokens, _ma(u)) == (1, "나가지")
    u = analyzer.normalize("밖에 나가지마세요")
    assert negative_imperative(u.tokens, _ma(u)) == (1, "나가지")
    u = analyzer.normalize("밖에 나가 마")
    assert negative_imperative(u.tokens, _ma(u)) is None
    assert negative_imperative(u.tokens, []) is None
