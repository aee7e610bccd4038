"""The benchmark's span tracer still finds the functions it times.

``perfbench/spans.py`` wraps each ``TARGETS`` entry by patching the class or
module attribute the program looks up at call time, and silently skips a
target it cannot resolve. A rename in ``src/`` would so turn a per-layer
metric into a quiet 0; this test makes it fail instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

# targets whose code is gone or moved on purpose, until the benchmark drops them:
# NegationProfile and its per-utterance pass were folded into the cascade, and
# strip_josa_all reads only the lexicon, so it is Lexicon.strip_josa_all now
RETIRED = {"analyze.profile_negation", "analyze.strip_josa_all"}


def test_every_span_target_resolves():
    tracer = spans.Tracer(spans.Spans())
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert set(missing) <= RETIRED
