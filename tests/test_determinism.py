"""Bit-for-bit determinism across processes: ``saek extract`` prints the same
bytes whatever the interpreter's string-hash seed, so no output may depend on
the iteration order of a set or a hash-keyed table."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import saek
from golden_cases import GOLDEN

SRC = Path(saek.__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
# two want-to-know cues that overlap the bundled 궁금 one
OVERLAPPING_CUES = ["cue\t좀 궁금", "cue\t너무 좀 궁금"]


def _utterances() -> list[str]:
    lines = [text for text, *_ in GOLDEN] + ["어디 갔는지 너무 좀 궁금해"]
    for name in ("corpus60.tsv", "paired13.tsv"):
        for row in (FIXTURES / name).read_text("utf-8").splitlines():
            lines.append(row.split("\t")[1])
    return lines


@pytest.mark.parametrize("extra_rows", [[], OVERLAPPING_CUES], ids=["default", "overlapping-cues"])
def test_extract_is_independent_of_the_hash_seed(tmp_path, extra_rows):
    data = tmp_path / "in.txt"
    data.write_text("\n".join(_utterances()) + "\n", encoding="utf-8")
    argv = [sys.executable, "-m", "saek.cli"]
    if extra_rows:
        bundled = resources.files("saek").joinpath("data/default_lexicon.tsv").read_text("utf-8")
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(bundled + "\n".join(extra_rows) + "\n", encoding="utf-8")
        argv += ["--lexicon", str(lexicon)]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        env.pop("SAEK_LEXICON", None)
        proc = subprocess.run(argv + ["extract", str(data)], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") == len(_utterances())
    assert outputs[0] == outputs[1]
