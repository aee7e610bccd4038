"""Negation and disjunction cues come from the lexicon: no source file spells
one out.  Only the classifier reads the negation profile to pick a rule."""

import ast
from pathlib import Path

from saek.analyze import NegationProfile
from saek.lexicon import default_lexicon

SRC = Path(__file__).resolve().parents[1] / "src" / "saek"


def test_no_negation_surface_literals_in_source():
    lexicon = default_lexicon()
    negation = lexicon.negation
    fused = {"지" + s for s, kind in negation.items() if kind in ("ma", "malgo")}
    forbidden = set(negation) | fused | lexicon.disjunction
    assert {"말고", "지말고", "안", "못", "아니면"} <= forbidden
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in forbidden:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, "cue surfaces belong in the lexicon: " + ", ".join(found)


def test_extract_makes_no_rule_decision():
    # the cascade step that fired picks the extraction routine, so extract
    # reads no negation-profile field and projects no label; the classifier
    # hands the info verb over, so extract reads no info-verb table either
    fields = set(NegationProfile._fields)
    assert {"malgo", "suffix_ci_ma", "preverbal_an", "danger_pred", "conditional_myen"} <= fields
    path = SRC / "extract.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in fields | {"negativeness", "infoverbs"}:
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "negativeness":
            found.append(f"{path.name}:{node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name == "negativeness":
            found.append(f"{path.name}:{node.lineno}: import {node.name}")
    assert not found, "rule decisions belong in the classifier: " + ", ".join(found)


def test_only_predicate_forms_rebuild_syllables():
    # syllable arithmetic belongs to the predicate forms and the lexicon's
    # batchim conditions; any other module reads a coda through hangul.tail
    arithmetic = {"decompose", "compose", "with_tail"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("hangul.py", "predicate.py", "lexicon.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in arithmetic:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in arithmetic:
                found.append(f"{path.name}:{node.lineno}: {node.id}")
            elif isinstance(node, ast.alias) and node.name in arithmetic:
                found.append(f"{path.name}:{node.lineno}: import {node.name}")
    assert not found, "syllable arithmetic belongs in saek.predicate: " + ", ".join(found)
