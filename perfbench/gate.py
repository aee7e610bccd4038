"""Correctness gate: golden pairs, pinned output digests, CLI/in-process equality.

The expected digests live in ``expected.json`` next to this file.  They were
recorded from this engine's outputs on the fixed reference inputs; a
deliberate, documented output fix records new ones in its own change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from golden import GOLDEN

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def record_line(record) -> bytes:
    """One record exactly as ``saek extract`` prints it in JSON format."""
    return (json.dumps(record.to_dict(), ensure_ascii=False) + "\n").encode("utf-8")


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def golden_failures(engine) -> list[str]:
    """Golden pairs the engine gets wrong, as readable lines."""
    bad = []
    for text, label, argument, category in GOLDEN:
        r = engine.process(text)
        got = (r.label, r.argument, r.category)
        if got != (label, argument, category):
            bad.append(f"golden {text!r}: expected {(label, argument, category)}, got {got}")
    return bad


def check_digest(workload: str, actual: str, expected: dict) -> list[str]:
    want = expected["digests"][workload]
    if actual != want:
        return [f"{workload} output digest {actual} != expected {want}"]
    return []


def expected_now(engine) -> dict:
    """``expected.json`` for the engine as it is; run this file to re-record
    after a deliberate, documented output change."""
    import workload_gen as gen

    reference = [engine.process(line) for line in gen.reference_lines()]
    ref_digest = digest(map(record_line, reference))
    n_fuzz = gen.REFERENCE_PER_FAMILY * 6
    return {
        "reference": {
            "seed": gen.REFERENCE_SEED,
            "per_family": gen.REFERENCE_PER_FAMILY,
            "tail": gen.REFERENCE_TAIL,
            "generator_sha256": digest(
                (line + "\n").encode("utf-8")
                for line in gen.generate(gen.REFERENCE_SEED, gen.REFERENCE_PER_FAMILY)
            ),
            "fuzz_lines": n_fuzz,
            "fuzz_error_records": sum(r.error is not None for r in reference[:n_fuzz]),
        },
        "digests": {
            "engine-fuzz": ref_digest,
            "cli-extract": ref_digest,
            "cli-oneshot": digest(record_line(engine.process(line)) for line in gen.oneshot_pool()),
        },
    }


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from saek import Engine

    EXPECTED_PATH.write_text(json.dumps(expected_now(Engine()), indent=1) + "\n", encoding="utf-8")
    print(EXPECTED_PATH.read_text(encoding="utf-8"), end="")
