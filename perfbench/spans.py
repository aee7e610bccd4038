"""In-memory span tracing around the public functions of each saek layer.

The wrappers live here, in the benchmark, and are installed by patching the
class or module attribute the program looks up at call time; nothing in
``src/`` knows about them.  A span is (name, start ns, end ns, parent span,
utterance id).  Spans stay in flat arrays until the run ends, when
``write_tsv`` puts them next to the run's other outputs.

Two tiers of spans are recorded.  Stage spans (``STAGES``) partition the
work: a stage's self time is its span minus its child stage spans, so
``engine.process`` self time is process minus normalize, classify and extract,
and the four add up to the traced process time.  Leaf spans (lexicon lookups,
analyzer helpers, hangul) nest inside stages and are counted and timed on
their own; they are not subtracted from stage self times.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Iterable, Optional

# (span name, module, attribute path) for every wrapped function
TARGETS = [
    ("engine.process", "saek.engine", "Engine.process"),
    ("analyze.normalize", "saek.analyze", "Analyzer.normalize"),
    ("classify.classify", "saek.classify", "Classifier.classify"),
    ("extract.extract", "saek.extract", "Extractor.extract"),
    ("analyze.find_wh", "saek.analyze", "Analyzer.find_wh"),
    ("analyze.profile_negation", "saek.analyze", "Analyzer.profile_negation"),
    ("analyze.strip_josa", "saek.analyze", "Analyzer.strip_josa"),
    ("analyze.strip_josa_all", "saek.analyze", "Analyzer.strip_josa_all"),
    ("lexicon.lookup_wh", "saek.lexicon", "Lexicon.lookup_wh"),
    ("lexicon.lookup_wh_pair", "saek.lexicon", "Lexicon.lookup_wh_pair"),
    ("lexicon.longest_josa", "saek.lexicon", "Lexicon.longest_josa"),
    ("lexicon.match_ending", "saek.lexicon", "Lexicon.match_ending"),
    ("lexicon.match_cue", "saek.lexicon", "Lexicon.match_cue"),
    ("lexicon.is_danger_predicate", "saek.lexicon", "Lexicon.is_danger_predicate"),
    ("lexicon.parse", "saek.lexicon", "parse_lexicon"),
    ("hangul.decompose", "saek.hangul", "decompose"),
    ("hangul.compose", "saek.hangul", "compose"),
    ("cli.to_dict", "saek.engine", "OutputRecord.to_dict"),
    ("cli.json_dumps", "json", "dumps"),
    ("cli.stream", "saek.cli", "_run_stream"),
]
ROOT = "engine.process"
STAGES = {
    "engine.process",
    "analyze.normalize",
    "classify.classify",
    "extract.extract",
    "cli.to_dict",
    "cli.json_dumps",
    "cli.stream",
    "lexicon.parse",
}
LOOKUPS = [
    "lexicon.lookup_wh",
    "lexicon.lookup_wh_pair",
    "lexicon.longest_josa",
    "lexicon.match_ending",
    "lexicon.match_cue",
    "lexicon.is_danger_predicate",
]
# recorded by the traced CLI child around ``import saek.cli``
IMPORT = "cli.import"
NAMES = [t[0] for t in TARGETS] + [IMPORT]
NAME_ID = {n: i for i, n in enumerate(NAMES)}


class Spans:
    """Flat span arrays; parent and utterance are indices, -1 for none."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.utt = array("i")
        self.n_utts = 0

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: int, end: int, parent: int = -1, utt: int = -1) -> None:
        self.name.append(NAME_ID[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.utt.append(utt)

    def extend(self, other: "Spans") -> tuple[int, int]:
        """Append ``other`` with indices shifted; returns the new span range."""
        base, ubase = len(self), self.n_utts
        self.name.extend(other.name)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        self.utt.extend(u + ubase if u >= 0 else -1 for u in other.utt)
        self.n_utts += other.n_utts
        return base, len(self)

    def write_tsv(self, path, header: Iterable[str] = ()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            fh.write("name\tstart_ns\tend_ns\tparent\tutt\n")
            for i in range(len(self)):
                fh.write(
                    f"{NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.utt[i]}\n"
                )

    @classmethod
    def read_tsv(cls, path) -> "Spans":
        spans = cls()
        utts = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("name\t"):
                    continue
                name, start, end, parent, utt = line.rstrip("\n").split("\t")
                spans.add(name, int(start), int(end), int(parent), int(utt))
                if int(utt) >= 0:
                    utts.add(int(utt))
        spans.n_utts = len(utts)
        return spans


class Tracer:
    """Installs timing wrappers that append to one ``Spans``."""

    def __init__(self, spans: Optional[Spans] = None) -> None:
        self.spans = spans if spans is not None else Spans()
        self._saved: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self._utt = [-1]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = NAME_ID[name]
        s = self.spans
        names, starts, ends, parents, utts = s.name, s.start, s.end, s.parent, s.utt
        stack, cur = self._stack, self._utt
        clock = time.perf_counter_ns
        root = name == ROOT

        def traced(*args, **kwargs):
            idx = len(names)
            if root:
                cur.append(s.n_utts)
                s.n_utts += 1
            names.append(nid)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1])
            utts.append(cur[-1])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if root:
                    cur.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names that were missing."""
        missing = []
        for name, module, path in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return missing

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def counts(spans: Spans, lo: int, hi: int) -> Counter:
    """Calls per span name within utterances, over spans[lo:hi]."""
    c: Counter = Counter()
    name, utt = spans.name, spans.utt
    for i in range(lo, hi):
        if utt[i] >= 0:
            c[NAMES[name[i]]] += 1
    return c


def self_times(spans: Spans, ranges: Iterable[tuple[int, int]]) -> dict[str, list[int]]:
    """Stage self times (ns) and per-utterance lookup totals over the ranges."""
    stage_ids = {NAME_ID[n] for n in STAGES}
    lookup_ids = {NAME_ID[n] for n in LOOKUPS}
    name, start, end, parent, utt = spans.name, spans.start, spans.end, spans.parent, spans.utt
    out: dict[str, list[int]] = {}
    for lo, hi in ranges:
        child: dict[int, int] = {}
        lookup: dict[int, int] = {}
        for i in range(lo, hi):
            nid, p = name[i], parent[i]
            dur = end[i] - start[i]
            if nid in stage_ids and p >= 0 and name[p] in stage_ids:
                child[p] = child.get(p, 0) + dur
            if nid in lookup_ids and (p < 0 or name[p] not in lookup_ids) and utt[i] >= 0:
                lookup[utt[i]] = lookup.get(utt[i], 0) + dur
        for i in range(lo, hi):
            nid = name[i]
            if nid in stage_ids:
                out.setdefault(NAMES[nid], []).append(end[i] - start[i] - child.get(i, 0))
        roots = {utt[i] for i in range(lo, hi) if NAMES[name[i]] == ROOT}
        out.setdefault("lexicon.lookup", []).extend(lookup.get(u, 0) for u in roots)
    return out


def durations(spans: Spans, ranges: Iterable[tuple[int, int]], wanted: str) -> list[int]:
    nid = NAME_ID[wanted]
    return [
        spans.end[i] - spans.start[i]
        for lo, hi in ranges
        for i in range(lo, hi)
        if spans.name[i] == nid
    ]


def median(values: list, default: float = 0.0) -> float:
    return statistics.median(values) if values else default
