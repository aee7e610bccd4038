"""Seeded inputs for the benchmark workloads.

``generate`` is a frozen copy of the fuzz grammar in ``tests/fuzz_grammar.py``
as it stood when the benchmark was defined, so that later edits to the test
grammar cannot shift the workloads.  ``long_tail`` adds long utterances (tens
to hundreds of tokens) so that the latency tail measures the length
dimension.  Everything here is stdlib-only and a pure function of its seed.
"""

from __future__ import annotations

import random
from typing import Iterator

# common, phonotactically plain syllables for synthetic nouns
_SYLLABLES = list("가나다라마바사자카타파하노모소보고도로조구두루무수주기니리미비시지")

_YESNO_PREDS = ["했어", "했니", "먹었어", "갔어", "왔니", "있니", "보냈어", "팔았어", "했어요"]
_ALT_PREDS = ["올거야", "갈래", "살까", "먹을래", "마실래", "할래", "볼까"]
_WH_WORDS = ["누구", "뭐", "어디", "언제", "왜", "어떻게"]
_WH_PREDS = ["왔니", "있니", "막히지", "도착이야", "갔어", "하는 거야"]
_PH_STEMS = ["가", "먹", "만지", "나가", "하", "뛰"]
_DANGER = ["큰일나", "혼나", "위험해", "안 돼"]
_IMP_PREDS = ["해", "해라", "하세요", "먹어라", "가라", "씻어라", "앉아", "열어줘", "팔아"]
_INFO_VERBS = ["말해", "알려줘", "말해줘"]
_MA = ["마", "마라", "마세요", "말아라"]

# The reference set pinned by the digest gate: fuzz seed 1 at per_family=1000
# (6000 lines, 277 error records when the benchmark was defined) plus a tail.
REFERENCE_SEED = 1
REFERENCE_PER_FAMILY = 1000
REFERENCE_TAIL = 60

# Long-tail shape: one tail utterance per TAIL_EVERY lines, with this many
# extra noun tokens in front of an ordinary utterance.
TAIL_EVERY = 50
TAIL_TOKENS = (20, 200)

# Lines per engine-fuzz block and per cli-extract child file.
ENGINE_BLOCK = 500
CLI_FILE_LINES = 2000

# cli-oneshot cycles through this many leading reference lines (four whole
# rounds of the six families), so that its error_rate does not depend on
# which few dozen lines a seed would draw.
ONESHOT_POOL = 24


def _noun(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))


def generate(seed: int = 20240601, per_family: int = 180) -> list[str]:
    """Frozen copy of ``tests/fuzz_grammar.generate``: six families per round."""
    rng = random.Random(seed)
    out: list[str] = []
    for _ in range(per_family):
        n1, n2 = _noun(rng), _noun(rng)
        out.append(f"{n1} {n2} {rng.choice(_YESNO_PREDS)}")
        pred = rng.choice(_ALT_PREDS)
        out.append(f"{n1} {pred} {n2} {pred}")
        out.append(f"{n1} {rng.choice(_WH_WORDS)} {rng.choice(_WH_PREDS)}")
        if rng.random() < 0.5:
            out.append(f"{n1} {rng.choice(_PH_STEMS)}지 {rng.choice(_MA)}")
        else:
            out.append(f"{n1} {rng.choice(_PH_STEMS)}면 {rng.choice(_DANGER)}")
        if rng.random() < 0.5:
            out.append(f"{n1} {n2} {rng.choice(_IMP_PREDS)}")
        else:
            out.append(f"{n1} {n2} 바랍니다")
        roll = rng.random()
        if roll < 0.4:
            out.append(f"{rng.choice(_PH_STEMS)}지 말고 {n1} {rng.choice(_IMP_PREDS)}")
        elif roll < 0.7:
            out.append(f"{n1} 안 {rng.choice(_PH_STEMS)}면 {rng.choice(_DANGER)}")
        else:
            out.append(f"{n1} {n2} 모두 {rng.choice(_INFO_VERBS)}")
    return out


def long_tail(seed: int, count: int) -> list[str]:
    """``count`` long utterances: a run of nouns in front of a grammar line.

    The run lengths are spread evenly over TAIL_TOKENS (in seeded order), so
    every block has the same length mix and a block's cost does not depend on
    which lengths a seed happened to draw.
    """
    rng = random.Random(f"tail:{seed}")
    base = generate(seed=rng.randrange(2**32), per_family=(count + 5) // 6)
    lo, hi = TAIL_TOKENS
    lengths = [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(lengths)
    return [" ".join(_noun(rng) for _ in range(n)) + " " + base[i] for i, n in enumerate(lengths)]


def reference_lines() -> list[str]:
    """The fixed set whose outputs the digest gate pins."""
    return generate(REFERENCE_SEED, REFERENCE_PER_FAMILY) + long_tail(
        REFERENCE_SEED, REFERENCE_TAIL
    )


def oneshot_pool() -> list[str]:
    return generate(REFERENCE_SEED, REFERENCE_PER_FAMILY)[:ONESHOT_POOL]


def _block_seed(seed: int, block: int) -> int:
    return seed * 1_000_003 + block


def engine_blocks(seed: int) -> Iterator[list[str]]:
    """Endless blocks of ENGINE_BLOCK lines, one tail line every TAIL_EVERY."""
    per_block_tail = ENGINE_BLOCK // TAIL_EVERY
    normal = ENGINE_BLOCK - per_block_tail
    block = 0
    while True:
        s = _block_seed(seed, block)
        lines = generate(s, per_family=(normal + 5) // 6)[:normal]
        tail = long_tail(s, per_block_tail)
        out = []
        for i, line in enumerate(lines):
            out.append(line)
            if (i + 1) % (TAIL_EVERY - 1) == 0 and tail:
                out.append(tail.pop())
        out.extend(tail)
        yield out
        block += 1


def distinct_files(seed: int, size: int = CLI_FILE_LINES) -> Iterator[list[str]]:
    """Endless files of ``size`` generated lines, no line repeated in a run."""
    seen: set[str] = set()
    pending: list[str] = []
    block = 0
    while True:
        while len(pending) < size:
            for line in generate(_block_seed(seed, block), per_family=500):
                if line not in seen:
                    seen.add(line)
                    pending.append(line)
            block += 1
        yield pending[:size]
        pending = pending[size:]
