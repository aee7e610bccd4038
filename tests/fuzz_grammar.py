"""Seeded pattern grammar producing classifiable spoken-Korean inputs.

Used by both the property suite and the acceptance gate.  The generator is
deliberately noisy: random nouns may collide with lexicon surfaces, so the
resulting label can differ from the pattern family that produced the input.
The contract checks therefore key off the OUTPUT category, never the
intended pattern.
"""

import random

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


def _noun(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))


def generate(seed: int = 20240601, per_family: int = 180) -> list[str]:
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


def check_contract(record, lexicon) -> list[str]:
    """Category-suffix contract violations for one successful record."""
    problems = []
    if record.argument is None:
        return problems
    text, category = record.argument, record.category
    tokens = text.split(" ")
    if any(t in lexicon.endings for t in tokens):
        problems.append(f"ending leaked into argument: {text!r}")
    allowed = {
        0: {"여부"},
        1: {"선택"},
        2: {"사람", "의미", "위치", "시간", "이유", "방법"},
        3: {"금지"},
        4: {"요구"},
        5: {"요구"},
    }[record.label]
    if category not in allowed:
        problems.append(f"category {category} illegal for label {record.label}")
    if category == "금지":
        if not text.endswith("지 않기"):
            problems.append(f"prohibition suffix broken: {text!r}")
    elif category == "요구":
        if not text.endswith("기"):
            problems.append(f"requirement suffix broken: {text!r}")
    elif category == "여부":
        if not text.endswith(("여부", "지")):
            problems.append(f"polar suffix broken: {text!r}")
    elif category == "선택":
        if "중" not in tokens or not text.endswith("것"):
            problems.append(f"choice shape broken: {text!r}")
    else:
        # the category's word is the replacement noun the argument ends in
        info = any(e.rule == "info-seeking" for e in record.evidence)
        if not info and tokens[-1] != category:
            problems.append(f"wh argument does not end in its category {category}: {text!r}")
    return problems
