"""Acceptance gate: one test (and one printed pass line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The published dataset
is not redistributed here; point SAEK_DATASET at the released TSV to run
the distribution and coverage checks against the real file, otherwise the
same code paths run on the bundled fixture and a synthetic file built to
the published distribution.
"""

import os
import time
import unicodedata

import pytest

import fuzz_grammar
from golden_cases import GOLDEN
from saek import cli, corpus, hangul
from saek.corpus import TABLE2_COUNTS, TABLE2_GROUP_PERCENTS

DATASET = os.environ.get("SAEK_DATASET")

LABEL_SAMPLES = {
    0: "너 의료 봉사 신청 했어",
    1: "버스로 올거야 택시로 올거야",
    2: "오늘은 누구 왔니",
    3: "태풍 오니까 밖에 나가지 마",
    4: "인적사항 확인 바랍니다",
    5: "욕심부리지 말고 지금 팔아",
}


def test_criterion_golden_pair_suite(engine):
    start = time.perf_counter()
    for text, label, argument, category in GOLDEN:
        record = engine.process(text)
        assert record.error is None, (text, record.error)
        assert record.label == label, (text, record.label, label)
        got = unicodedata.normalize("NFC", record.argument)
        want = unicodedata.normalize("NFC", argument)
        assert got == want, (text, got, want)
        assert record.category == category, (text, record.category)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"
    print(f"\n[PASS] golden pairs: 13/13 exact labels and arguments in {elapsed * 1000:.0f} ms")


def test_criterion_table2_reproduction(tmp_path, capsys):
    if DATASET:
        path = DATASET
        source = "published dataset"
    else:
        path = tmp_path / "table2_synthetic.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for label, n in enumerate(TABLE2_COUNTS):
                fh.writelines(f"{label}\t{LABEL_SAMPLES[label]}\n" for _ in range(n))
        source = "synthetic file built to the published distribution"
    code = cli.run(["corpus", "stats", "--expect-table2", str(path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    with open(path, encoding="utf-8") as fh:
        entries, errors = corpus.load(fh)
    assert not errors
    observed = corpus.stats(entries)
    assert observed.counts == TABLE2_COUNTS
    assert observed.total == 30837
    for got, want in zip(observed.group_portions, TABLE2_GROUP_PERCENTS):
        assert abs(got * 100.0 - want) <= 0.01

    # absent-file fallback: the bundled fixture, ten rows per label
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "corpus60.tsv")
    with open(fixture, encoding="utf-8") as fh:
        entries, errors = corpus.load(fh)
    assert not errors
    stats = corpus.stats(entries)
    assert stats.counts == (10,) * 6
    assert stats.total == 60
    print(f"\n[PASS] table 2 reproduction: exact counts and portions via {source}; "
          "fixture fallback clean")


def test_criterion_argument_invariants_fuzz(engine, lexicon):
    inputs = fuzz_grammar.generate()
    classified = 0
    violations = []
    for text in inputs:
        record = engine.process(text)
        if record.error is not None:
            continue
        classified += 1
        violations.extend(fuzz_grammar.check_contract(record, lexicon))
    assert classified >= 1000
    assert not violations, violations[:10]

    # pipeline totality on arbitrary junk
    import random

    rng = random.Random(13)
    for _ in range(500):
        junk = "".join(chr(rng.randrange(0x20, 0x30000)) for _ in range(rng.randint(0, 20)))
        engine.process(junk)
    print(f"\n[PASS] argument invariants: {classified} classified fuzz inputs, "
          "0 contract violations; pipeline total on arbitrary text")


def test_criterion_jamo_round_trip():
    start = time.perf_counter()
    for cp in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(cp)
        assert hangul.compose(hangul.decompose(ch)) == ch
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"round trip took {elapsed * 1000:.1f} ms"
    print(f"\n[PASS] jamo round trip: 11172 syllables in {elapsed * 1000:.1f} ms")


def test_criterion_fleiss_kappa_oracles():
    perfect = corpus.fleiss_kappa([[4, 0, 0], [0, 4, 0], [0, 0, 4], [4, 0, 0]])
    assert perfect == pytest.approx(1.0, abs=1e-12)
    disagreement = corpus.fleiss_kappa([[1, 1], [1, 1]])
    assert disagreement == pytest.approx(-1.0, abs=1e-12)
    print("\n[PASS] fleiss kappa: perfect-agreement 1.0 and hand-computed -1.0 at 1e-12")


def test_criterion_classification_coverage(engine, capsys):
    if DATASET:
        path = DATASET
        source = "published dataset"
    else:
        path = os.path.join(os.path.dirname(__file__), "fixtures", "corpus60.tsv")
        source = "bundled 60-row fixture (dataset file absent)"
    code = cli.run(["eval", str(path)])
    out, err = capsys.readouterr()
    import json

    report = json.loads(out)
    assert code == 0
    assert report["coverage"] >= 0.90, report
    print(f"\n[PASS] classification coverage: {report['coverage']:.2%} labeled "
          f"on the {source}; failures emitted as typed records")
