"""Dataset loading, statistics, prediction scoring and annotator agreement.

The released corpus format is TSV (UTF-8, LF, no header): ``label<TAB>
utterance`` with an optional third column carrying a gold argument.  Labels
0..5 follow the published ordering: yes/no, alternative, wh, prohibition,
requirement, strong requirement.  Loading is error tolerant: malformed rows
are collected as positional errors instead of aborting the pass.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO, Union

from .analyze import PUNCTUATION, UNDECODED_RE
from .classify import IntentLabel
from .errors import DegenerateMatrix, EmptyCorpus, IoFailure, LengthMismatch
from .lexicon import ArgumentCategory

N_LABELS = 6

# published distribution: counts per label and per-supertype percentages
TABLE2_COUNTS = (5718, 227, 11924, 477, 12369, 122)
TABLE2_GROUP_PERCENTS = (31.99, 1.27, 66.73, 3.67, 95.38, 0.94)
TABLE2_TOTAL = 30837

_CATEGORY_WORDS = {c.value for c in ArgumentCategory}
_TAG_RE = re.compile(r"\s*\(([^()]+)\)\s*$")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class CorpusEntry:
    label: IntentLabel
    utterance: str
    gold_argument: Optional[str] = None
    gold_category: Optional[str] = None
    line_no: int = 0


@dataclass(frozen=True)
class LoadError:
    line: int
    error: str


@dataclass(frozen=True)
class CorpusStats:
    counts: tuple[int, ...]
    portions: tuple[float, ...]  # of the whole corpus, sums to 1
    group_portions: tuple[float, ...]  # within questions (0-2) / commands (3-5)
    total: int


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    label_accuracy: float
    per_class: tuple[ClassScore, ...]
    macro_f1: float
    coverage: float  # fraction of rows that received any label
    arg_exact: Optional[float] = None  # only over rows with gold arguments
    arg_char_f1: Optional[float] = None


def load(
    stream: Union[TextIO, Iterable[str]], format: str = "labeled"
) -> tuple[list[CorpusEntry], list[LoadError]]:
    """Parse corpus rows; bad rows become LoadErrors, never exceptions."""
    if format not in ("labeled", "paired"):
        raise ValueError(f"format must be 'labeled' or 'paired', got {format!r}")
    entries: list[CorpusEntry] = []
    errors: list[LoadError] = []
    try:
        for line_no, raw in enumerate(stream, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parsed = _parse_row(line, line_no, format)
            if isinstance(parsed, LoadError):
                errors.append(parsed)
            else:
                entries.append(parsed)
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(str(exc)) from exc
    return entries, errors


def _parse_row(line: str, line_no: int, format: str) -> Union[CorpusEntry, LoadError]:
    if UNDECODED_RE.search(line):
        return LoadError(line_no, "invalid UTF-8")
    cols = line.split("\t")
    want = 2 if format == "labeled" else 3
    if len(cols) != want:
        return LoadError(line_no, f"expected {want} tab-separated columns, got {len(cols)}")
    try:
        value = int(cols[0])
    except ValueError:
        return LoadError(line_no, f"label is not an integer: {cols[0]!r}")
    if not 0 <= value < N_LABELS:
        return LoadError(line_no, f"label out of range 0..5: {value}")
    utterance = cols[1].strip()
    if not utterance:
        return LoadError(line_no, "empty utterance")
    bad = sorted(set(utterance) & set(PUNCTUATION))
    if bad:
        return LoadError(line_no, f"utterance contains sentence punctuation: {bad}")
    argument = category = None
    if format == "paired":
        argument = cols[2].strip()
        if not argument:
            return LoadError(line_no, "empty argument column")
        m = _TAG_RE.search(argument)
        if m and m.group(1) in _CATEGORY_WORDS:
            category = m.group(1)
            argument = argument[: m.start()].strip()
    return CorpusEntry(IntentLabel(value), utterance, argument, category, line_no)


def stats(entries: Sequence[CorpusEntry]) -> CorpusStats:
    """Per-label tallies plus whole-corpus and within-supertype fractions."""
    if not entries:
        raise EmptyCorpus("no entries to summarize")
    counts = Counter(int(e.label) for e in entries)
    tallies = tuple(counts.get(i, 0) for i in range(N_LABELS))
    total = len(entries)
    questions = sum(tallies[:3])
    commands = sum(tallies[3:])
    portions = tuple(c / total for c in tallies)
    group_portions = tuple(
        (c / questions if questions else 0.0) if i < 3 else (c / commands if commands else 0.0)
        for i, c in enumerate(tallies)
    )
    return CorpusStats(tallies, portions, group_portions, total)


def diff_expected(
    observed: CorpusStats,
    counts: Sequence[int] = TABLE2_COUNTS,
    group_percents: Optional[Sequence[float]] = TABLE2_GROUP_PERCENTS,
    tolerance_pp: float = 0.01,
) -> list[str]:
    """Differences between observed stats and an expected distribution.

    Counts must match exactly; within-group percentages must agree to
    ``tolerance_pp`` percentage points.  Empty result means full agreement.
    """
    diffs = []
    for i, (got, want) in enumerate(zip(observed.counts, counts)):
        if got != want:
            diffs.append(f"label {i}: count {got} != expected {want}")
    if observed.total != sum(counts):
        diffs.append(f"total {observed.total} != expected {sum(counts)}")
    if group_percents is not None:
        for i, (got, want) in enumerate(zip(observed.group_portions, group_percents)):
            if abs(got * 100.0 - want) > tolerance_pp:
                diffs.append(
                    f"label {i}: portion {got * 100.0:.4f}% off expected {want}%"
                )
    return diffs


# -- prediction scoring ----------------------------------------------------


def normalize_argument(text: str) -> str:
    """NFC + internal whitespace collapse, the argument-comparison form."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", text)).strip()


def _char_bigrams(text: str) -> Counter:
    if len(text) < 2:
        return Counter({text: 1}) if text else Counter()
    return Counter(text[i : i + 2] for i in range(len(text) - 1))


def char_bigram_f1(pred: str, gold: str) -> float:
    """Multiset character-bigram F1 after argument normalization."""
    p, g = normalize_argument(pred), normalize_argument(gold)
    if p == g:
        return 1.0
    pb, gb = _char_bigrams(p), _char_bigrams(g)
    overlap = sum((pb & gb).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pb.values())
    recall = overlap / sum(gb.values())
    return 2 * precision * recall / (precision + recall)


Prediction = tuple[Optional[int], Optional[str]]


def evaluate(predictions: Sequence[Prediction], gold: Sequence[CorpusEntry]) -> EvalReport:
    """Score aligned predictions against gold entries.

    ``predictions[i]`` is ``(label, argument)``; either part may be None
    when the engine produced no output for that row.
    """
    if len(predictions) != len(gold):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(gold)} gold rows")
    if not gold:
        raise EmptyCorpus("nothing to evaluate")

    hits = sum(
        1 for (p, _), g in zip(predictions, gold) if p is not None and p == int(g.label)
    )
    covered = sum(1 for p, _ in predictions if p is not None)

    per_class = []
    for c in range(N_LABELS):
        tp = sum(
            1 for (p, _), g in zip(predictions, gold) if p == c and int(g.label) == c
        )
        fp = sum(
            1 for (p, _), g in zip(predictions, gold) if p == c and int(g.label) != c
        )
        fn = sum(
            1 for (p, _), g in zip(predictions, gold) if p != c and int(g.label) == c
        )
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassScore(precision, recall, f1, tp + fn))

    arg_rows = [
        (p_arg, g.gold_argument)
        for (_, p_arg), g in zip(predictions, gold)
        if g.gold_argument is not None
    ]
    arg_exact = arg_char = None
    if arg_rows:
        exact = sum(
            1
            for p_arg, g_arg in arg_rows
            if p_arg is not None and normalize_argument(p_arg) == normalize_argument(g_arg)
        )
        arg_exact = exact / len(arg_rows)
        arg_char = sum(
            char_bigram_f1(p_arg, g_arg) if p_arg is not None else 0.0
            for p_arg, g_arg in arg_rows
        ) / len(arg_rows)

    return EvalReport(
        label_accuracy=hits / len(gold),
        per_class=tuple(per_class),
        macro_f1=sum(s.f1 for s in per_class) / N_LABELS,
        coverage=covered / len(gold),
        arg_exact=arg_exact,
        arg_char_f1=arg_char,
    )


# -- inter-annotator agreement ----------------------------------------------


def fleiss_kappa(matrix: Sequence[Sequence[int]]) -> float:
    """Fleiss' kappa over an items x categories matrix of rating counts.

    Every row must sum to the same number of raters n >= 2.  Raises
    DegenerateMatrix when all mass sits in one category (chance agreement
    is 1 and the statistic is undefined).
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be non-empty")
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        raise ValueError("ragged matrix")
    if any(c < 0 or int(c) != c for r in rows for c in r):
        raise ValueError("cells must be non-negative integers")
    n = sum(rows[0])
    if any(sum(r) != n for r in rows):
        raise ValueError("every item needs the same number of ratings")
    if n < 2:
        raise ValueError("need at least two raters")

    n_items = len(rows)
    p_bar = sum((sum(c * c for c in r) - n) / (n * (n - 1)) for r in rows) / n_items
    totals = [sum(r[j] for r in rows) for j in range(k)]
    grand = n_items * n
    p_e = sum((t / grand) ** 2 for t in totals)
    if abs(1.0 - p_e) < 1e-12:
        raise DegenerateMatrix("all ratings in a single category")
    return (p_bar - p_e) / (1.0 - p_e)
