"""Property and fuzz suites: suffix contracts, totality, reconstruction."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fuzz_grammar
from golden_cases import GOLDEN
from saek import Engine, predicate
from saek.errors import Unclassifiable

FIXTURES = Path(__file__).parent / "fixtures"


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


# the tokens steps (5)-(7) read, with content around them: 말고, -(으)면
# clauses, ma and preverbal negators, danger predicates and subordinate
# connectives (공부하려면 is a -(으)면 clause too)
_CUT_MIX = (
    "말고 놀지말고 마 마세요 나가지마 가지 안 못 가면 먹으면 안매면 큰일나 위험해 돼 혼나 밖에 숙제 약 공부해 가라"
    " 오니까 늦어서 공부하려면"
).split()


def _fixture_inputs() -> list[str]:
    """The input of every golden case and fixture row."""
    texts = [text for text, *_ in GOLDEN]
    for path in sorted(FIXTURES.glob("*.tsv")):
        column = 0 if path.name == "known_defects.tsv" else 1
        for row in path.read_text("utf-8").splitlines():
            if not row.startswith("#"):
                texts.append(row.split("\t")[column])
    return texts


def test_every_evidence_span_lies_in_the_main_clause(analyzer, classifier, reference):
    """말고 rejects what precedes it, and a subordinate connective ends a
    clause before the main one, so every evidence span starts in the main
    clause, at or after ``u.tokens[0]``; a negation-coordination span is
    the coordinating 말고 ``normalize`` found before it
    (``u.coordination``)."""
    rng = random.Random(20)
    mixes = [" ".join(rng.choices(_CUT_MIX, k=rng.randint(2, 7))) for _ in range(3000)]
    cut = 0
    outside = []
    for text in ["숙제 안 하면 말고 밖에 나가면 큰일나", *reference, *_fixture_inputs(), *mixes]:
        u = analyzer.normalize(text)
        try:
            c = classifier.classify(u)
        except Unclassifiable:
            continue
        first = u.tokens[0].start
        # only vocatives and the material up to a cut come before the main
        # clause, so the word right before it is a vocative or the cut's 말고
        # or connective
        words = u.text[:first].split()
        if words and not analyzer._is_vocative(u.text.split(" "), len(words) - 1):
            cut += 1
        for rule, span in c.evidence:
            if rule == "negation-coordination":
                if span != u.coordination:
                    outside.append((text, rule, span))
            elif span is not None and span[0] < first:
                outside.append((text, rule, span))
    assert not outside, outside[:5]
    assert cut > 100, "too few classified lines hold a clause cut"


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
