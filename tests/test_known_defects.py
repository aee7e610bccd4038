"""Each known defect keeps its current output until a change fixes it on
purpose: ``fixtures/known_defects.tsv`` holds one row per defect input, with
its label, argument, error and evidence as ``saek extract --format tsv`` writes
them, and the ROADMAP item that owns it. A change that fixes one moves its row
to ``minimal_pairs.tsv``; a change that moves one by accident fails here."""

import re
from pathlib import Path

import pytest

from saek.engine import TSV_COLUMNS, record_tsv_row

FIXTURES = Path(__file__).parent / "fixtures"
ROADMAP = Path(__file__).resolve().parents[1] / "ROADMAP.md"


def known_defects() -> list[tuple[str, ...]]:
    lines = (FIXTURES / "known_defects.tsv").read_text("utf-8").splitlines()
    return [tuple(line.split("\t")) for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("text, label, argument, error, evidence, item", known_defects())
def test_a_known_defect_keeps_its_current_output(engine, text, label, argument, error, evidence, item):
    cells = dict(zip(TSV_COLUMNS, record_tsv_row(engine.process(text)).split("\t")))
    got = (cells["label"], cells["argument"], cells["error"], cells["evidence"])
    assert got == (label, argument, error, evidence)


def test_each_known_defect_is_one_row_of_an_open_roadmap_item():
    rows = known_defects()
    texts = [row[0] for row in rows]
    assert len(set(texts)) == len(texts)
    roadmap = ROADMAP.read_text("utf-8")
    items = {row[-1] for row in rows}
    assert [i for i in sorted(items) if not re.search(rf"^{i}\. \*\*", roadmap, re.M)] == []
    # a fixed defect leaves this file for the minimal pairs
    pairs = {line.split("\t")[1] for line in (FIXTURES / "minimal_pairs.tsv").read_text("utf-8").splitlines()}
    assert pairs.isdisjoint(texts)
