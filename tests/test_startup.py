"""Start-up cost stays low: the engine path never loads the corpus tooling,
and no engine-path record type is built by ``@dataclass`` except
``OutputRecord``, whose callers use ``dataclasses.replace``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import saek

SRC = Path(saek.__file__).resolve().parent

# run in a fresh interpreter, so that nothing this test session imported counts
FOOTPRINT = """
import json, sys
import saek
from saek import cli

saek.Engine().process("뭐 먹을래")
code = cli.run(["extract", sys.argv[1]])
corpus_loaded = "saek.corpus" in sys.modules
star = {}
exec("from saek import *", star)
print(json.dumps({
    "code": code,
    "corpus_loaded": corpus_loaded,
    "unbound": [name for name in saek.__all__ if name not in star],
    "corpus_names": [saek.evaluate.__module__, saek.CorpusEntry.__module__, saek.load.__module__],
}))
"""


def test_engine_path_never_loads_the_corpus_tooling(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("뭐 먹을래\n창문 열어줘\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(path)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 3  # two records, then the report
    report = json.loads(lines[-1])
    assert report["code"] == 0
    assert not report["corpus_loaded"]
    assert report["unbound"] == []
    assert report["corpus_names"] == ["saek.corpus"] * 3


def test_engine_path_builds_no_dataclass_but_output_record():
    engine_path = sorted(p for p in SRC.glob("*.py") if p.name != "corpus.py")
    assert len(engine_path) > 5
    decorated = []
    for path in engine_path:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if "dataclass" in ast.unparse(target):
                        decorated.append(f"{path.name}:{node.name}")
    assert decorated == ["engine.py:OutputRecord"]
