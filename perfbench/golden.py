"""Frozen copy of the 13 hand-written golden pairs in ``tests/golden_cases.py``.

They are an independent reference: utterance, label, canonical argument,
category.  The correctness gate requires the engine to reproduce every one.
"""

GOLDEN = [
    ("너 의료 봉사 신청 했어", 0, "의료 봉사 신청 여부", "여부"),
    ("버스로 올거야 택시로 올거야", 1, "버스 택시 중 올 것", "선택"),
    ("오늘은 누구 왔니", 2, "오늘 온 사람", "사람"),
    ("스톡옵션이 뭔 줄 아니", 2, "스톡옵션 의미", "의미"),
    ("어디 있니 로비야", 2, "있는 위치", "위치"),
    ("대구 몇 시에 도착이야", 2, "대구 도착 시간", "시간"),
    ("이 동네 갑자기 왜 이렇게 막히지", 2, "막히는 이유", "이유"),
    ("해외 송금 어떻게 하는 거야", 2, "해외 송금 방법", "방법"),
    ("태풍 오니까 밖에 나가지 마", 3, "밖에 나가지 않기", "금지"),
    ("안전띠 안매면 큰일나", 5, "안전띠 매기", "요구"),
    ("인적사항 확인 바랍니다", 4, "인적사항 확인하기", "요구"),
    ("이번 주 일정을 모두 말해", 2, "이번 주 모든 일정", "의미"),
    ("욕심부리지 말고 지금 팔아", 5, "지금 팔기", "요구"),
]
