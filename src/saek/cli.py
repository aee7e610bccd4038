"""Batch command line front end.

Subcommands: ``classify``, ``extract``, ``corpus stats``, ``corpus
validate`` and ``eval``.  Input is one utterance (or TSV row) per line,
from a file path argument or standard input.  Data goes to stdout as
JSON lines (or TSV with --format tsv); diagnostics go to stderr.  Exit
codes: 0 success, 1 any per-line error under --strict (or a failed
expectation), 2 usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys
from typing import Optional, TextIO

from .engine import Engine, OutputRecord, TSV_COLUMNS, record_tsv_row
from .errors import EmptyCorpus, IoFailure, LexiconError
from .lexicon import load_lexicon

_TSV_HELP = "TSV column order: " + ", ".join(TSV_COLUMNS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saek",
        description="Intent classification and argument extraction "
        "for spoken-style Korean questions and commands.",
        epilog=_TSV_HELP,
    )
    parser.add_argument(
        "--lexicon",
        default=os.environ.get("SAEK_LEXICON"),
        help="lexicon TSV overriding the built-in tables "
        "(default: $SAEK_LEXICON or the bundled file)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stream_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, epilog=_TSV_HELP)
        p.add_argument("input", nargs="?", help="input file (default: stdin)")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument(
            "--strict", action="store_true", help="exit 1 if any line yields an error record"
        )
        return p

    add_stream_command("classify", "label utterances, one per line")
    add_stream_command("extract", "label utterances and extract argument phrases")

    corpus_p = sub.add_parser("corpus", help="dataset tooling")
    corpus_sub = corpus_p.add_subparsers(dest="corpus_command", required=True)

    stats_p = corpus_sub.add_parser("stats", help="per-label counts and portions")
    stats_p.add_argument("data", help="labeled TSV file")
    stats_p.add_argument(
        "--expect-table2",
        action="store_true",
        help="diff against the published distribution; exit 1 on any mismatch",
    )

    validate_p = corpus_sub.add_parser(
        "validate", help="report malformed rows as JSON lines {line, error}"
    )
    validate_p.add_argument("data", help="TSV file to check")
    validate_p.add_argument("--paired", action="store_true", help="expect a gold argument column")
    validate_p.add_argument("--strict", action="store_true", help="exit 1 if any row is bad")

    eval_p = sub.add_parser("eval", help="run the engine over a gold corpus and score it")
    eval_p.add_argument("data", help="labeled or paired TSV file")
    eval_p.add_argument("--paired", action="store_true", help="score gold arguments too")
    eval_p.add_argument(
        "--failures", help="write unclassified/unextracted rows to this JSONL file"
    )
    return parser


def _open_input(path: Optional[str]) -> TextIO:
    """UTF-8 text; a byte that is not UTF-8 becomes a lone surrogate, which the
    engine and the corpus loader report for its line alone."""
    if path is None or path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return sys.stdin
    return _open(path, "r")


def _open(path: str, mode: str) -> TextIO:
    try:
        return open(path, mode, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


# records per write from a regular file after its first: about 7 KB, and an
# unbuffered stdout makes one system call per block
_BLOCK = 32


def _emit(record: OutputRecord, fmt: str, block: list[str]) -> None:
    # the record's line joins the block that _run_stream writes out
    if fmt == "tsv":
        line = record_tsv_row(record)
    else:
        # a record of strings, ints, lists and dicts holds no cycle to look for
        line = json.dumps(record.to_dict(), ensure_ascii=False, check_circular=False)
    block.append(line + "\n")


def _is_regular_file(stream: TextIO) -> bool:
    try:
        return stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (OSError, ValueError):  # no descriptor: an in-memory stream
        return False


def _run_stream(engine: Engine, args: argparse.Namespace, extract: bool) -> int:
    failed = False
    stream = _open_input(args.input)
    # a regular file, by path or by < redirect, holds every line already: its
    # first record goes out as soon as it exists and the rest in blocks.  Any
    # other input (a pipe, a terminal, a FIFO) may bring its lines over time,
    # so each of its records is written and flushed as it is made, buffered
    # stdout or not
    in_blocks = _is_regular_file(stream)
    per_write = 1
    out = sys.stdout
    pending: list[str] = []
    try:
        for line in stream:
            if not line.strip():
                continue
            record = engine.process(line, extract=extract)
            _emit(record, args.format, pending)
            failed = failed or record.error is not None
            if len(pending) >= per_write:
                text = "".join(pending)
                pending.clear()
                out.write(text)
                if in_blocks:
                    per_write = _BLOCK
                else:
                    out.flush()
    finally:
        if stream is not sys.stdin:
            stream.close()
        # the records already made still go out if the input fails mid-way
        if pending:
            out.write("".join(pending))
    return 1 if (failed and args.strict) else 0


def _load_corpus(path: str, fmt: str) -> tuple[list, list]:
    from . import corpus  # the corpus tooling loads only for the commands that use it

    with _open_input(path) as fh:
        return corpus.load(fh, format=fmt)


def _run_stats(args: argparse.Namespace) -> int:
    from . import corpus

    entries, errors = _load_corpus(args.data, "labeled")
    for err in errors:
        print(f"line {err.line}: {err.error}", file=sys.stderr)
    stats = corpus.stats(entries)
    print(
        json.dumps(
            {
                "total": stats.total,
                "counts": list(stats.counts),
                "portions": [round(p, 4) for p in stats.portions],
                "group_portions": [round(p, 4) for p in stats.group_portions],
            },
            ensure_ascii=False,
        )
    )
    if args.expect_table2:
        diffs = corpus.diff_expected(stats)
        for diff in diffs:
            print(diff, file=sys.stderr)
        if diffs:
            return 1
        print("distribution matches the published table", file=sys.stderr)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    fmt = "paired" if args.paired else "labeled"
    entries, errors = _load_corpus(args.data, fmt)
    for err in errors:
        print(json.dumps({"line": err.line, "error": err.error}, ensure_ascii=False))
    print(f"{len(entries)} rows ok, {len(errors)} bad", file=sys.stderr)
    return 1 if (errors and args.strict) else 0


def _run_eval(engine: Engine, args: argparse.Namespace) -> int:
    from . import corpus

    fmt = "paired" if args.paired else "labeled"
    entries, errors = _load_corpus(args.data, fmt)
    for err in errors:
        print(f"line {err.line}: {err.error}", file=sys.stderr)

    failures_out: Optional[TextIO] = None
    if args.failures:
        failures_out = _open(args.failures, "w")
    try:
        predictions = []
        n_failures = 0
        for entry in entries:
            record = engine.process(entry.utterance)
            predictions.append((record.label, record.argument))
            if record.error is not None:
                n_failures += 1
                payload = json.dumps(
                    {"line": entry.line_no, **record.to_dict()}, ensure_ascii=False
                )
                print(payload, file=failures_out or sys.stderr)
    finally:
        if failures_out is not None:
            failures_out.close()

    report = corpus.evaluate(predictions, entries)
    out = {
        "total": len(entries),
        "label_accuracy": report.label_accuracy,
        "coverage": report.coverage,
        "macro_f1": report.macro_f1,
        "per_class": [
            {
                "label": i,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
                "support": s.support,
            }
            for i, s in enumerate(report.per_class)
        ],
        "failures": n_failures,
    }
    if report.arg_exact is not None:
        out["arg_exact"] = report.arg_exact
        out["arg_char_f1"] = report.arg_char_f1
    print(json.dumps(out, ensure_ascii=False))
    return 0


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "corpus":  # the corpus tooling needs no engine
            if args.corpus_command == "stats":
                return _run_stats(args)
            return _run_validate(args)
        engine = Engine(load_lexicon(args.lexicon)) if args.lexicon else Engine()
        if args.command == "eval":
            return _run_eval(engine, args)
        return _run_stream(engine, args, extract=args.command == "extract")
    except (EmptyCorpus, IoFailure, LexiconError) as exc:
        print(f"saek: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # the imported modules live until exit: frozen, the collector neither
    # walks them during the run nor tears them down at exit
    gc.freeze()
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (saek extract FILE | head -1): point stdout
        # at devnull so that the flush at shutdown raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
