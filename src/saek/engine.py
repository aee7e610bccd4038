"""One-stop pipeline: normalize, classify, extract, assemble output records."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .analyze import UNDECODED_RE, Analyzer
from .classify import Classifier, Evidence, IntentLabel
from .errors import EmptyUtterance, ExtractionFailed, OptionsNotFound, Unclassifiable
from .extract import Extractor
from .lexicon import Lexicon, default_lexicon


@dataclass(frozen=True, init=False)
class OutputRecord:
    """Flat record for one input line; optional fields follow the super-type.

    The fields are the record's one definition and ``__init__`` its one build,
    which sets them in order: ``to_dict``'s keys and the TSV columns follow it."""

    text: str
    label: Optional[int] = None
    label_name: Optional[str] = None
    question_type: Optional[str] = None
    negativeness: Optional[str] = None
    argument: Optional[str] = None
    category: Optional[str] = None
    evidence: tuple[Evidence, ...] = ()
    error: Optional[str] = None

    def __init__(
        self,
        text: str,
        label: Optional[int] = None,
        label_name: Optional[str] = None,
        question_type: Optional[str] = None,
        negativeness: Optional[str] = None,
        argument: Optional[str] = None,
        category: Optional[str] = None,
        evidence: tuple[Evidence, ...] = (),
        error: Optional[str] = None,
    ) -> None:
        # straight into __dict__, without the generated frozen __init__'s
        # object.__setattr__ call per field; every record's dict shares its keys
        attrs = self.__dict__
        attrs["text"] = text
        attrs["label"] = label
        attrs["label_name"] = label_name
        attrs["question_type"] = question_type
        attrs["negativeness"] = negativeness
        attrs["argument"] = argument
        attrs["category"] = category
        attrs["evidence"] = evidence
        attrs["error"] = error

    def to_dict(self) -> dict:
        """The fields in order, less those that do not apply (None, or no evidence);
        an evidence item is {"rule", "span": [start, end]}, or {"rule"} for a note."""
        out = {k: v for k, v in self.__dict__.items() if v is not None}
        if self.evidence:
            out["evidence"] = [
                {"rule": rule} if span is None else {"rule": rule, "span": list(span)}
                for rule, span in self.evidence
            ]
        else:
            del out["evidence"]
        return out


TSV_COLUMNS = tuple(f.name for f in fields(OutputRecord))


def _tsv_cell(name: str, value) -> str:
    if name == "evidence":
        return ";".join(
            rule if span is None else f"{rule}@{span[0]}-{span[1]}" for rule, span in value
        )
    return "" if value is None else str(value)


def record_tsv_row(record: OutputRecord) -> str:
    """The fields in TSV_COLUMNS order: "" for None, evidence as rule@start-end;note."""
    return "\t".join(_tsv_cell(k, v) for k, v in record.__dict__.items())


# the one definition of the record fields each label carries: the four
# OutputRecord fields after text, in order
_LABEL_FIELDS = {
    IntentLabel.YES_NO: (0, "yes_no", "yes/no", None),
    IntentLabel.ALTERNATIVE: (1, "alternative", "alternative", None),
    IntentLabel.WH: (2, "wh", "wh", None),
    IntentLabel.PROHIBITION: (3, "prohibition", None, "prohibition"),
    IntentLabel.REQUIREMENT: (4, "requirement", None, "requirement"),
    IntentLabel.STRONG_REQUIREMENT: (5, "strong_requirement", None, "strong requirement"),
}


class Engine:
    """Analyzer + classifier + extractor over one shared lexicon."""

    def __init__(self, lexicon: Optional[Lexicon] = None):
        self.lexicon = lexicon if lexicon is not None else default_lexicon()
        self.analyzer = Analyzer(self.lexicon)
        self.classifier = Classifier(self.lexicon)
        self.extractor = Extractor(self.lexicon)

    def process(self, text: str, extract: bool = True) -> OutputRecord:
        """Classify (and optionally extract from) one utterance.

        Failures come back as records with a typed ``error`` field; this
        method never raises on malformed input.
        """
        if UNDECODED_RE.search(text):
            text = " ".join(UNDECODED_RE.sub("\ufffd", text).split())
            return OutputRecord(text, error="invalid-utf8")
        try:
            u = self.analyzer.normalize(text)
        except EmptyUtterance:
            return OutputRecord(" ".join(text.split()), error="empty-utterance")
        try:
            c = self.classifier.classify(u)
        except Unclassifiable:
            return OutputRecord(u.text, error="unclassifiable")

        evidence = c.evidence
        argument = category = error = None
        if extract:
            try:
                argument, category, notes = self.extractor.extract(u, c)
            except OptionsNotFound:
                error = "options-not-found"
            except ExtractionFailed:
                error = "extraction-failed"
            else:
                # the member's value without the Enum.value property's call
                category = category._value_
                if notes:
                    evidence += tuple(Evidence(note, None) for note in notes)

        return OutputRecord(u.text, *_LABEL_FIELDS[c.label], argument, category, evidence, error)
