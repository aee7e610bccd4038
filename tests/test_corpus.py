import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from saek import corpus
from saek.classify import IntentLabel
from saek.errors import DegenerateMatrix, EmptyCorpus, LengthMismatch


def test_load_labeled_row():
    entries, errors = corpus.load(["0\t너 의료 봉사 신청 했어"])
    assert not errors
    assert entries[0].label is IntentLabel.YES_NO
    assert entries[0].utterance == "너 의료 봉사 신청 했어"
    assert entries[0].line_no == 1


def test_load_rejects_bad_rows_without_aborting():
    entries, errors = corpus.load(
        [
            "7\tx",
            "abc\ty",
            "3",
            "2\t",
            "1\t물음표 있는 문장?",
            "4\t창문 열어줘",
        ]
    )
    assert len(entries) == 1 and entries[0].line_no == 6
    assert len(errors) == 5
    assert "out of range" in errors[0].error
    assert "not an integer" in errors[1].error
    assert "columns" in errors[2].error
    assert "empty utterance" in errors[3].error
    assert "punctuation" in errors[4].error


def test_load_paired_with_category_tag():
    entries, errors = corpus.load(
        ["2\t대구 몇 시에 도착이야\t대구 도착 시간"], format="paired"
    )
    assert not errors
    assert entries[0].gold_argument == "대구 도착 시간"
    assert entries[0].gold_category is None

    entries, _ = corpus.load(["5\t지금 팔아\t지금 팔기 (요구)"], format="paired")
    assert entries[0].gold_argument == "지금 팔기"
    assert entries[0].gold_category == "요구"


def test_load_paired_keeps_non_category_parens():
    entries, _ = corpus.load(["0\t밥 먹었어\t밥 (아침) 여부"], format="paired")
    assert entries[0].gold_argument == "밥 (아침) 여부"
    assert entries[0].gold_category is None


def test_stats_six_row_uniform():
    entries, _ = corpus.load(f"{i}\t창문 열어줘" for i in range(6))
    s = corpus.stats(entries)
    assert s.total == 6
    assert s.counts == (1,) * 6
    assert all(abs(p - 1 / 6) < 1e-12 for p in s.portions)
    assert abs(sum(s.portions) - 1.0) < 1e-9


def test_stats_bundled_fixture(fixtures_dir):
    with open(fixtures_dir / "corpus60.tsv", encoding="utf-8") as fh:
        entries, errors = corpus.load(fh)
    assert not errors
    s = corpus.stats(entries)
    assert s.total == 60
    assert s.counts == (10,) * 6
    assert all(round(p, 4) == 0.1667 for p in s.portions)
    # within-group: 10/30 questions, 10/30 commands
    assert all(abs(p - 1 / 3) < 1e-12 for p in s.group_portions)


def test_stats_permutation_invariant(fixtures_dir):
    with open(fixtures_dir / "corpus60.tsv", encoding="utf-8") as fh:
        entries, _ = corpus.load(fh)
    shuffled = list(reversed(entries))
    assert corpus.stats(entries).counts == corpus.stats(shuffled).counts


def test_stats_empty_corpus():
    with pytest.raises(EmptyCorpus):
        corpus.stats([])


def test_diff_expected_full_table():
    rows = itertools.chain.from_iterable(
        [f"{label}\t문장"] * n for label, n in enumerate(corpus.TABLE2_COUNTS)
    )
    entries, _ = corpus.load(rows)
    s = corpus.stats(entries)
    assert s.total == corpus.TABLE2_TOTAL
    assert corpus.diff_expected(s) == []


def test_diff_expected_reports_mismatch():
    entries, _ = corpus.load(f"{i}\t문장" for i in range(6))
    diffs = corpus.diff_expected(corpus.stats(entries))
    assert diffs and any("count" in d for d in diffs)


def _identity_predictions(entries):
    return [(int(e.label), e.gold_argument) for e in entries]


def test_evaluate_identity(fixtures_dir):
    with open(fixtures_dir / "paired13.tsv", encoding="utf-8") as fh:
        gold, _ = corpus.load(fh, format="paired")
    report = corpus.evaluate(_identity_predictions(gold), gold)
    assert report.label_accuracy == 1.0
    assert report.arg_exact == 1.0
    assert report.arg_char_f1 == 1.0
    assert report.coverage == 1.0
    assert report.macro_f1 == 1.0


def test_evaluate_all_labels_wrong(fixtures_dir):
    with open(fixtures_dir / "paired13.tsv", encoding="utf-8") as fh:
        gold, _ = corpus.load(fh, format="paired")
    preds = [((int(e.label) + 1) % 6, e.gold_argument) for e in gold]
    report = corpus.evaluate(preds, gold)
    assert report.label_accuracy == 0.0


def test_evaluate_length_mismatch():
    gold, _ = corpus.load(["0\t밥 먹었어"])
    with pytest.raises(LengthMismatch):
        corpus.evaluate([], gold)


def _bigram_f1_oracle(pred: str, gold: str) -> float:
    """Brute-force bigram F1, kept independent of the implementation."""

    def grams(s):
        s = " ".join(s.split())
        if len(s) < 2:
            return Counter([s]) if s else Counter()
        return Counter(s[i : i + 2] for i in range(len(s) - 1))

    if " ".join(pred.split()) == " ".join(gold.split()):
        return 1.0
    p, g = grams(pred), grams(gold)
    tp = sum((p & g).values())
    if tp == 0:
        return 0.0
    prec, rec = tp / sum(p.values()), tp / sum(g.values())
    return 2 * prec * rec / (prec + rec)


def test_evaluate_hand_computed_three_rows():
    gold, _ = corpus.load(
        [
            "0\t너 의료 봉사 신청 했어\t의료 봉사 신청 여부",
            "2\t오늘은 누구 왔니\t오늘 온 사람",
            "4\t지금 팔아라\t지금 팔기",
        ],
        format="paired",
    )
    preds = [
        (0, "의료 봉사 신청 여부"),
        (1, "오늘 온 사람"),  # label error, argument exact
        (4, "지금 팔지"),  # one differing bigram
    ]
    report = corpus.evaluate(preds, gold)
    assert report.label_accuracy == pytest.approx(2 / 3)
    # per-class oracle worked out by hand:
    # class 0: tp=1 -> P=R=F1=1; class 1: fp=1 -> 0; class 2: fn=1 -> 0;
    # class 3: empty -> 0; class 4: tp=1 -> 1; class 5: empty -> 0
    assert [round(s.f1, 6) for s in report.per_class] == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    assert report.macro_f1 == pytest.approx(2 / 6)
    assert report.arg_exact == pytest.approx(2 / 3)
    expected_char = sum(
        _bigram_f1_oracle(p, g.gold_argument) for (_, p), g in zip(preds, gold)
    ) / 3
    assert report.arg_char_f1 == pytest.approx(expected_char)
    assert report.arg_char_f1 == pytest.approx((1.0 + 1.0 + 0.75) / 3)


def _per_class_oracle(preds, gold):
    """One pass per class and count, kept independent of the implementation."""
    labels = [int(g.label) for g in gold]
    scores = []
    for c in range(corpus.N_LABELS):
        tp = sum(1 for p, g in zip(preds, labels) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, labels) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, labels) if p != c and g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(corpus.ClassScore(precision, recall, f1, tp + fn))
    return tuple(scores)


_LABELS = st.integers(min_value=0, max_value=corpus.N_LABELS - 1)


@given(st.lists(st.tuples(st.one_of(st.none(), _LABELS), _LABELS), min_size=1, max_size=40))
def test_evaluate_per_class_scores_equal_a_pass_per_class(rows):
    gold, _ = corpus.load([f"{g}\t밥 먹었어" for _, g in rows])
    preds = [p for p, _ in rows]
    report = corpus.evaluate([(p, None) for p in preds], gold)
    assert report.per_class == _per_class_oracle(preds, gold)
    assert report.label_accuracy == sum(p == g for p, g in rows) / len(rows)
    assert report.coverage == sum(p is not None for p in preds) / len(rows)


def test_evaluate_skips_argument_metrics_without_gold():
    gold, _ = corpus.load(["0\t밥 먹었어", "4\t창문 열어줘"])
    report = corpus.evaluate([(0, None), (None, None)], gold)
    assert report.arg_exact is None and report.arg_char_f1 is None
    assert report.coverage == pytest.approx(0.5)
    assert report.label_accuracy == pytest.approx(0.5)


def test_char_bigram_f1_direct():
    assert corpus.char_bigram_f1("지금 팔기", "지금  팔기") == 1.0  # whitespace collapse
    assert corpus.char_bigram_f1("가", "가") == 1.0
    assert corpus.char_bigram_f1("가", "나") == 0.0
    assert corpus.char_bigram_f1("지금 팔지", "지금 팔기") == pytest.approx(0.75)


def test_fleiss_perfect_agreement_mixed_categories():
    assert corpus.fleiss_kappa([[3, 0], [0, 3], [3, 0]]) == pytest.approx(1.0, abs=1e-12)


def test_fleiss_hand_computed_disagreement():
    # two items, two raters, full disagreement, balanced marginals:
    # P-bar = 0, chance = 0.5, kappa = -1
    assert corpus.fleiss_kappa([[1, 1], [1, 1]]) == pytest.approx(-1.0, abs=1e-12)


def test_fleiss_degenerate_matrix():
    with pytest.raises(DegenerateMatrix):
        corpus.fleiss_kappa([[2, 0], [2, 0]])


def test_fleiss_validates_shape():
    with pytest.raises(ValueError):
        corpus.fleiss_kappa([])
    with pytest.raises(ValueError):
        corpus.fleiss_kappa([[1, 1], [2, 1]])
    with pytest.raises(ValueError):
        corpus.fleiss_kappa([[1, -1]])
    with pytest.raises(ValueError):
        corpus.fleiss_kappa([[1, 0]])


def test_fleiss_published_worked_example():
    # the classic 1971 worked example: 10 subjects, 14 raters, kappa ~ 0.21
    table = [
        [0, 0, 0, 0, 14],
        [0, 2, 6, 4, 2],
        [0, 0, 3, 5, 6],
        [0, 3, 9, 2, 0],
        [2, 2, 8, 1, 1],
        [7, 7, 0, 0, 0],
        [3, 2, 6, 3, 0],
        [2, 5, 3, 2, 2],
        [6, 5, 2, 1, 0],
        [0, 2, 2, 3, 7],
    ]
    assert corpus.fleiss_kappa(table) == pytest.approx(0.2099, abs=5e-4)


@st.composite
def _rating_matrices(draw):
    n_raters = draw(st.integers(min_value=2, max_value=5))
    n_items = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for _ in range(n_items):
        votes = draw(
            st.lists(st.integers(0, 2), min_size=n_raters, max_size=n_raters)
        )
        rows.append([votes.count(c) for c in range(3)])
    return rows


@given(_rating_matrices())
def test_fleiss_column_permutation_invariant(rows):
    perm = [rows_i[::-1] for rows_i in rows]
    try:
        base = corpus.fleiss_kappa(rows)
    except DegenerateMatrix:
        with pytest.raises(DegenerateMatrix):
            corpus.fleiss_kappa(perm)
        return
    assert corpus.fleiss_kappa(perm) == pytest.approx(base, abs=1e-12)


def test_load_io_failure():
    class Boom:
        def __iter__(self):
            return self

        def __next__(self):
            raise OSError("unreadable")

    with pytest.raises(corpus.IoFailure):
        corpus.load(Boom())
