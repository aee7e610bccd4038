"""A deterministic budget for what every utterance pays in ``Engine.process``.

Timings swing with the machine; the number of Python calls an utterance
makes does not. The first 600 lines of the benchmark's reference set are
short fuzz lines, whose cost is mostly this fixed per-utterance part: the
hand-off between the layers, the want-to-know cue test and the record.
"""

import gc
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload_gen  # noqa: E402

LINES = 600
# the mean "call" events per utterance on CPython 3.11 is 12604/600, about
# 21.01 (it was 40.58 before the cue table's gate and the direct record
# build, 31.92 before the suffix conditions were compiled at load, 31.71
# before the 말고 cut and the wh-anchor scan were made once in normalize,
# 29.625 before WhKind hashed by identity, 29.25 before the record kept
# the cascade's Evidence tuples and classify built no closures or surface
# list, and 26.20 before each cascade step handed extraction the token it
# was decided on, so extraction no longer searched again for the -지 host
# or the -면 clause, and 25.85 before normalize left the vocatives out of the
# tokens, so the alternative routine no longer filters them out, and 25.69
# before the per-item tests of _fired, _clean_parts and the syllable checks
# ran in C and the info-verb test was folded into classify); interpreters
# that inline comprehensions (3.12+) count fewer
BUDGET = 12604 / 600


def _profile_calls(engine, lines, on_call) -> None:
    """Process ``lines`` with ``on_call(code)`` on each Python-level call.

    A collection inside the window would count the Python-level gc
    callbacks other libraries register (hypothesis has one), not the
    engine, so the collector is off while it runs."""

    def profile(frame, event, arg):
        if event == "call":
            on_call(frame.f_code)

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        for line in lines:
            engine.process(line)
    finally:
        sys.setprofile(None)
        gc.enable()


def test_short_utterances_stay_within_the_call_budget(engine):
    lines = workload_gen.reference_lines()[:LINES]
    for line in lines:
        engine.process(line)  # anything built on first use is built now
    calls = 0

    def count(code):
        nonlocal calls
        calls += 1

    _profile_calls(engine, lines, count)
    if calls / LINES > BUDGET:
        # a second pass, on failure only, names the ten most called functions
        codes = []
        _profile_calls(engine, lines, codes.append)
        top = Counter(codes).most_common(10)
        pytest.fail(
            f"{calls}/{LINES} = {calls / LINES:.4f} calls per utterance, over {BUDGET:.4f};"
            " most calls per utterance:\n"
            + "\n".join(
                f"{n / LINES:8.2f}  {Path(c.co_filename).name}:{c.co_firstlineno} {c.co_name}"
                for c, n in top
            )
        )


# (shape, its first n tokens): each line ends in a base utterance, so that
# classification and extraction run over the whole run of tokens in front
SHAPES = {
    "plain nouns": lambda n: ["나무"] * n + ["밖에", "나가지", "마"],
    "fuzz nouns": lambda n: [workload_gen._noun(random.Random(i)) for i in range(n)]
    + ["뭐", "먹을래"],
    "repeated wh words": lambda n: ["뭐"] * n + ["먹을래"],
    "커피 말고 pairs": lambda n: ["커피", "말고"] * (n // 2) + ["차", "줘"],
    "trailing name calls": lambda n: ["나무"] * (n // 2) + ["먹어"] + ["민수야"] * (n // 2),
    "listed marks": lambda n: [s + "," for s in ["나무"] * n] + ["뭐", "먹을까~?"],
    # each 자니 ends in the interrogative 니, so the alternative routine
    # starts a new option clause at each one
    "interrogative clauses": lambda n: ["자니", "커피"] * (n // 2) + ["볼까", "차", "볼까"],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_calls_grow_linearly_with_length(engine, shape):
    """``Engine.process`` on 4n tokens makes at most 4x the calls it makes on
    n tokens, plus a small constant: no per-utterance saving may turn into
    work per pair of tokens."""
    calls = []
    for n in (50, 200):
        line = " ".join(SHAPES[shape](n))
        engine.process(line)  # anything built on first use is built now
        codes = []
        _profile_calls(engine, [line], codes.append)
        calls.append(len(codes))
    short, long = calls
    assert long <= 4 * short + 10, calls
