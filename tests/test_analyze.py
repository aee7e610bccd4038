import random

import pytest
from hypothesis import given, strategies as st

from saek.analyze import Eojeol, PUNCTUATION
from saek.errors import EmptyUtterance


def test_normalize_golden_question(analyzer):
    u = analyzer.normalize("너 의료 봉사 신청 했어?")
    assert u.text == "너 의료 봉사 신청 했어"
    assert len(u.tokens) == 5
    assert u.raw == "너 의료 봉사 신청 했어?"


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


def test_tokens_rebuild_text(analyzer):
    u = analyzer.normalize("버스로 올거야 택시로 올거야")
    assert " ".join(t.surface for t in u.tokens) == u.text


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    from saek.analyze import Analyzer

    analyzer = Analyzer()
    try:
        once = analyzer.normalize(text)
    except EmptyUtterance:
        return
    assert analyzer.normalize(once.text).text == once.text


def test_strip_josa_examples(analyzer):
    stripped = analyzer.strip_josa(Eojeol("오늘은", stem="오늘은"))
    assert (stripped.stem, stripped.particle) == ("오늘", "은")
    stripped = analyzer.strip_josa(Eojeol("일정을", stem="일정을"))
    assert (stripped.stem, stripped.particle) == ("일정", "을")
    untouched = analyzer.strip_josa(Eojeol("버스", stem="버스"))
    assert untouched.particle is None and untouched.stem == "버스"


def test_strip_josa_never_empties_single_syllable(analyzer):
    for token in ["은", "를", "에", "도"]:
        out = analyzer.strip_josa(token)
        assert out.stem == token and out.particle is None


def test_strip_josa_fuzz_never_aborts_and_reconstructs(analyzer):
    rng = random.Random(7)
    for _ in range(10_000):
        token = "".join(
            chr(rng.randrange(0xAC00, 0xD7A4)) for _ in range(rng.randint(1, 5))
        )
        out = analyzer.strip_josa(token)
        assert out.stem, f"emptied stem for {token!r}"
        assert out.stem + (out.particle or "") == token


def test_ending_assigned_to_last_non_vocative(analyzer):
    u = analyzer.normalize("어디 있니 로비야")
    assert u.tokens[2].is_vocative
    assert u.tokens[1].ending is not None
    assert u.tokens[1].ending.surface == "니"


def test_vocative_not_confused_with_periphrastic_ending(analyzer):
    u = analyzer.normalize("버스로 올거야 택시로 올거야")
    assert not any(t.is_vocative for t in u.tokens)


def test_leading_vocative_flagged(analyzer):
    u = analyzer.normalize("로비야 어디 있니")
    assert u.tokens[0].is_vocative
    assert u.tokens[2].ending is not None


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


def test_profile_negation_negative_imperative(analyzer):
    p = analyzer.normalize("태풍 오니까 밖에 나가지 마").negation
    assert p.suffix_ci_ma is True
    assert p.malgo is None and not p.danger_pred


def test_profile_negation_double_negation(analyzer):
    p = analyzer.normalize("안전띠 안매면 큰일나").negation
    assert p.preverbal_an and p.conditional_myen and p.danger_pred


def test_profile_negation_plain_request(analyzer):
    p = analyzer.normalize("인적사항 확인 바랍니다").negation
    assert p == type(p)()  # every field at its negative default


def test_profile_negation_malgo_index(analyzer):
    p = analyzer.normalize("욕심부리지 말고 지금 팔아").negation
    assert p.malgo == 1


def test_profile_negation_danger_pair_not_preverbal(analyzer):
    p = analyzer.normalize("가면 안 돼").negation
    assert p.conditional_myen and p.danger_pred and not p.preverbal_an
    p = analyzer.normalize("안 가면 안 돼").negation
    assert p.preverbal_an


def test_wh_hits_multi_token(analyzer):
    u = analyzer.normalize("대구 몇 시에 도착이야")
    hits = u.wh_hits
    assert len(hits) == 1
    assert hits[0].token_start == 1 and hits[0].token_end == 3
    assert u.text[hits[0].char_start : hits[0].char_end] == "몇 시"
