"""Property and fuzz suites: suffix contracts, totality, reconstruction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import fuzz_grammar
from saek import Engine, predicate


def test_grammar_fuzz_contract(engine, lexicon):
    inputs = fuzz_grammar.generate()
    assert len(inputs) >= 1000
    classified = 0
    violations = []
    for text in inputs:
        record = engine.process(text)  # must never raise
        if record.error is not None:
            continue
        classified += 1
        violations.extend(fuzz_grammar.check_contract(record, lexicon))
    assert classified >= 1000, f"only {classified} fuzz inputs classified"
    assert not violations, violations[:10]


# a spaced 지 before a negator is taken for the -지 host, so the ending 지
# (막히지) leaks into the argument: 지 마 -> 지 않기, 밖에 나가 지 마 -> 밖에
# 지 않기; the fuzz digests hold such lines, so a fix may re-record them
BARE_JI = ["지 마", "밖에 나가 지 마", "거기 가 지 마세요"]


def test_a_bare_ji_token_hosts_a_negator():
    # the recorded fuzz digests hold bare-지 prohibitions (3 지 않기)
    assert predicate.is_negation_host("지")


@pytest.mark.xfail(strict=True, reason="a bare 지 leaks into the prohibition")
@pytest.mark.parametrize("text", BARE_JI)
def test_a_bare_ji_keeps_the_no_ending_leakage_contract(engine, lexicon, text):
    record = engine.process(text)
    assert record.label == 3
    assert fuzz_grammar.check_contract(record, lexicon) == []


def test_sr_malgo_never_leaks_pre_clause(engine):
    rng = random.Random(99)
    stems = ["가", "먹", "울", "미루", "걱정하"]
    imps = ["팔아", "먹어라", "씻어라", "해", "시작해"]
    for _ in range(200):
        pre = rng.choice(stems) + "지"
        noun = "".join(rng.choice("가나다라마바사") for _ in range(2))
        text = f"{pre} 말고 {noun} {rng.choice(imps)}"
        record = engine.process(text)
        if record.argument is None:
            continue
        tokens = set(record.argument.split())
        assert pre not in tokens and "말고" not in tokens, (text, record.argument)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_pipeline_total_on_arbitrary_text(text):
    record = _SHARED.process(text)
    assert record is not None


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        max_size=24,
    ).map(lambda s: " ".join(s[i : i + 3] for i in range(0, len(s), 3)))
)
def test_pipeline_total_on_random_hangul(text):
    record = _SHARED.process(text)
    if record.error is None:
        assert record.label in range(6)


_SHARED = Engine()


def test_two_engines_from_same_tables_agree(engine):
    other = Engine()
    for text in fuzz_grammar.generate(seed=5, per_family=30):
        assert engine.process(text) == other.process(text)
