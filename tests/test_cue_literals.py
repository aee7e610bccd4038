"""Negation cues come from the lexicon: no source file spells one out."""

import ast
from pathlib import Path

from saek.lexicon import default_lexicon

SRC = Path(__file__).resolve().parents[1] / "src" / "saek"


def test_no_negation_surface_literals_in_source():
    negation = default_lexicon().negation
    fused = {"지" + s for s, kind in negation.items() if kind in ("ma", "malgo")}
    forbidden = set(negation) | fused
    assert {"말고", "지말고", "안", "못"} <= forbidden
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in forbidden:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, "negation surfaces belong in the lexicon: " + ", ".join(found)
