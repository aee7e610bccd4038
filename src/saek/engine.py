"""One-stop pipeline: normalize, classify, extract, assemble output records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analyze import UNDECODED_RE, Analyzer
from .classify import (
    COMMAND_LABELS,
    Classifier,
    IntentLabel,
    LABEL_NAMES,
    QUESTION_LABELS,
    negativeness,
    question_type,
)
from .errors import EmptyUtterance, ExtractionFailed, OptionsNotFound, Unclassifiable
from .extract import Extractor
from .lexicon import Lexicon, default_lexicon, load_lexicon


@dataclass(frozen=True)
class OutputRecord:
    """Flat record for one input line; optional fields follow the super-type."""

    text: str
    label: Optional[int] = None
    label_name: Optional[str] = None
    question_type: Optional[str] = None
    negativeness: Optional[str] = None
    argument: Optional[str] = None
    category: Optional[str] = None
    evidence: tuple[dict, ...] = ()
    error: Optional[str] = None

    def to_dict(self) -> dict:
        out: dict = {"text": self.text}
        if self.label is not None:
            out["label"] = self.label
            out["label_name"] = self.label_name
        if self.question_type is not None:
            out["question_type"] = self.question_type
        if self.negativeness is not None:
            out["negativeness"] = self.negativeness
        if self.argument is not None:
            out["argument"] = self.argument
            out["category"] = self.category
        if self.evidence:
            out["evidence"] = list(self.evidence)
        if self.error is not None:
            out["error"] = self.error
        return out


TSV_COLUMNS = (
    "text",
    "label",
    "label_name",
    "question_type",
    "negativeness",
    "argument",
    "category",
    "evidence",
    "error",
)


def record_tsv_row(record: OutputRecord) -> str:
    evidence = ";".join(
        f"{e['rule']}@{e['span'][0]}-{e['span'][1]}" if "span" in e else e["rule"]
        for e in record.evidence
    )
    cells = [
        record.text,
        "" if record.label is None else str(record.label),
        record.label_name or "",
        record.question_type or "",
        record.negativeness or "",
        record.argument or "",
        record.category or "",
        evidence,
        record.error or "",
    ]
    return "\t".join(cells)


class Engine:
    """Analyzer + classifier + extractor over one shared lexicon."""

    def __init__(self, lexicon: Optional[Lexicon] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self.analyzer = Analyzer(self.lexicon)
        self.classifier = Classifier(self.lexicon)
        self.extractor = Extractor(self.lexicon, self.analyzer)

    @classmethod
    def from_lexicon_path(cls, path: Optional[str]) -> "Engine":
        return cls(load_lexicon(path)) if path else cls()

    def process(self, text: str, extract: bool = True) -> OutputRecord:
        """Classify (and optionally extract from) one utterance.

        Failures come back as records with a typed ``error`` field; this
        method never raises on malformed input.
        """
        if UNDECODED_RE.search(text):
            text = " ".join(UNDECODED_RE.sub("\ufffd", text).split())
            return OutputRecord(text=text, error="invalid-utf8")
        try:
            u = self.analyzer.normalize(text)
        except EmptyUtterance:
            return OutputRecord(text=text.strip(), error="empty-utterance")
        try:
            c = self.classifier.classify(u)
        except Unclassifiable:
            return OutputRecord(text=u.text, error="unclassifiable")

        label = IntentLabel(c.label)
        qt = question_type(label).value if label in QUESTION_LABELS else None
        neg = negativeness(label).value if label in COMMAND_LABELS else None
        evidence = [{"rule": e.rule, "span": list(e.span)} for e in c.evidence]

        argument = category = None
        error = None
        if extract:
            try:
                arg = self.extractor.extract(u, c)
                argument, category = arg.text, arg.category.value
                evidence.extend({"rule": note} for note in arg.notes)
            except OptionsNotFound:
                error = "options-not-found"
            except ExtractionFailed:
                error = "extraction-failed"

        return OutputRecord(
            text=u.text,
            label=int(label),
            label_name=LABEL_NAMES[label],
            question_type=qt,
            negativeness=neg,
            argument=argument,
            category=category,
            evidence=tuple(evidence),
            error=error,
        )
