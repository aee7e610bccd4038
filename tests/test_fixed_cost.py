"""A deterministic budget for what every utterance pays in ``Engine.process``.

Timings swing with the machine; the number of Python calls an utterance
makes does not. The first 600 lines of the benchmark's reference set are
short fuzz lines, whose cost is mostly this fixed per-utterance part: the
hand-off between the layers, the want-to-know cue test and the record.
"""

import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload_gen  # noqa: E402

LINES = 600
# the mean "call" events per utterance on CPython 3.11 is 17552/600, about
# 29.25 (it was 40.58 before the cue table's gate and the direct record
# build, 31.92 before the suffix conditions were compiled at load, 31.71
# before the 말고 cut and the wh-anchor scan were made once in normalize, and
# 29.625 before WhKind hashed by identity); interpreters that inline
# comprehensions (3.12+) count fewer
BUDGET = 17552 / 600


def test_short_utterances_stay_within_the_call_budget(engine):
    lines = workload_gen.reference_lines()[:LINES]
    for line in lines:
        engine.process(line)  # anything built on first use is built now
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # a collection inside the window would count the Python-level gc
    # callbacks other libraries register (hypothesis has one), not the engine
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        for line in lines:
            engine.process(line)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert calls / LINES <= BUDGET
