"""Start-up cost stays low: the engine path never loads the corpus tooling,
nor ``pathlib`` and ``importlib.resources`` to find the bundled lexicon, and
no engine-path record type is built by ``@dataclass`` except
``OutputRecord``, whose callers use ``dataclasses.replace``."""

import ast
import json
import os
import subprocess
import sys
import zipfile
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


# under ``python -S`` no site hook imports these modules before saek does
BARE = """
import sys
import saek

saek.Engine().process("뭐 먹을래")
print(" ".join(m for m in ("pathlib", "importlib.resources") if m in sys.modules))
"""


def test_engine_path_never_loads_pathlib_or_importlib_resources():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BARE],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == ""


def test_bundled_lexicon_loads_from_a_zip_import(tmp_path):
    archive = tmp_path / "saek.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(SRC.rglob("*")):
            if path.suffix in (".py", ".tsv"):
                zf.write(path, path.relative_to(SRC.parent).as_posix())
    env = dict(os.environ, PYTHONPATH=str(archive), PYTHONIOENCODING="utf-8")
    script = 'import saek; print(saek.__file__); print(saek.Engine().process("창문 열어줘").argument)'
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        check=True,
    )
    where, argument = proc.stdout.splitlines()
    assert where.startswith(str(archive))
    assert argument == saek.Engine().process("창문 열어줘").argument == "창문 열어주기"


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
