"""Tests of the benchmark itself:  python -m pytest perfbench -q

They check the seeded generator, the digest gate, span counting and the
metric names; two of them run the benchmark for a second.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import spans  # noqa: E402
import workload_gen as gen  # noqa: E402
from saek import Engine  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic_per_seed():
    assert gen.generate(5, 50) == gen.generate(5, 50)
    assert gen.generate(5, 50) != gen.generate(6, 50)
    assert next(gen.engine_blocks(7)) == next(gen.engine_blocks(7))
    assert next(gen.engine_blocks(7)) != next(gen.engine_blocks(8))
    assert gen.long_tail(3, 10) == gen.long_tail(3, 10)


def test_engine_blocks_carry_the_long_tail():
    block = next(gen.engine_blocks(2))
    assert len(block) == gen.ENGINE_BLOCK
    lengths = sorted(len(line.split(" ")) for line in block)
    n_tail = gen.ENGINE_BLOCK // gen.TAIL_EVERY
    assert all(n > gen.TAIL_TOKENS[0] for n in lengths[-n_tail:])
    assert all(n < gen.TAIL_TOKENS[0] for n in lengths[:-n_tail])


def test_cli_files_never_repeat_a_line():
    files = gen.distinct_files(4, size=2000)
    lines = next(files) + next(files) + next(files)
    assert len(lines) == len(set(lines)) == 6000


def test_frozen_generator_matches_the_test_grammar(engine):
    sys.path.insert(0, str(ROOT / "tests"))
    import fuzz_grammar

    lines = gen.generate(gen.REFERENCE_SEED, gen.REFERENCE_PER_FAMILY)
    assert lines == fuzz_grammar.generate(seed=1, per_family=1000)
    expected = gate.load_expected()["reference"]
    assert len(lines) == expected["fuzz_lines"] == 6000
    assert gate.digest((line + "\n").encode() for line in lines) == expected["generator_sha256"]
    errors = sum(engine.process(line).error is not None for line in lines)
    assert errors == expected["fuzz_error_records"] == 277


def test_recorded_digests_match_the_engine(engine):
    assert gate.expected_now(engine) == gate.load_expected()


def test_digest_gate_rejects_a_perturbed_record(engine):
    lines = gen.reference_lines()
    records = [engine.process(line) for line in lines]
    expected = gate.load_expected()
    good = gate.digest(map(gate.record_line, records))
    assert gate.check_digest("engine-fuzz", good, expected) == []
    i = next(k for k, r in enumerate(records) if r.argument)
    records[i] = dataclasses.replace(records[i], argument=records[i].argument + " ")
    bad = gate.digest(map(gate.record_line, records))
    assert gate.check_digest("engine-fuzz", bad, expected) != []


def test_golden_gate_passes_and_catches_a_wrong_engine(engine):
    assert gate.golden_failures(engine) == []

    class Broken:
        def process(self, text):
            return dataclasses.replace(engine.process(text), argument="x")

    assert len(gate.golden_failures(Broken())) == len(gate.GOLDEN) == 13


def test_traced_counts_repeat_exactly(engine):
    block = next(gen.engine_blocks(9))[:300]
    recorded = spans.Spans()
    tracer = spans.Tracer(recorded)
    tracer.install()
    try:
        ranges = []
        for _ in range(2):
            lo = len(recorded)
            for line in block:
                engine.process(line)
            ranges.append((lo, len(recorded)))
    finally:
        tracer.uninstall()
    first, second = (spans.counts(recorded, lo, hi) for lo, hi in ranges)
    assert first == second
    assert first[spans.ROOT] == len(block)
    st = spans.self_times(recorded, ranges)
    assert min(st["engine.process"]) >= 0
    parts = sum(sum(st[n]) for n in ("analyze.normalize", "classify.classify", "extract.extract", "engine.process"))
    assert parts == sum(spans.durations(recorded, ranges, spans.ROOT))
    assert not hasattr(Engine.process, "__wrapped__")


def test_metric_names_and_units_are_well_formed(bench):
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in metrics:
        assert UNIT_RE.fullmatch(m["unit"]), m
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in bench["end_to_end"]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_reports_every_metric(bench, trace, key):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "engine-fuzz", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench[key]}
    units = {m["name"]: m["unit"] for m in bench[key]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
