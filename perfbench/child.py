"""Child-process entry points of the benchmark (run with ``src`` on PYTHONPATH).

    child.py setup LINES_FILE
        Fresh-interpreter set-up: time ``import saek`` + ``Engine()`` + the
        first ``process`` call, then process the rest of the file so the
        parent can read the peak RSS of a process running the workload.
        Prints {"setup_s": ...}.

    child.py trace-cli SPANS_OUT CLI_ARGS...
        ``saek.cli.run(CLI_ARGS)`` with the benchmark's span wrappers
        installed; the import of ``saek.cli`` is timed first, before anything
        else is imported.  Spans are written to SPANS_OUT at exit.
"""

import sys
import time


def _setup(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    t0 = time.perf_counter()
    import saek

    engine = saek.Engine()
    engine.process(lines[0])
    t1 = time.perf_counter()
    for line in lines[1:]:
        engine.process(line)
    print('{"setup_s": %r}' % (t1 - t0))
    return 0


def _trace_cli(spans_out: str, argv: list) -> int:
    t0 = time.perf_counter_ns()
    import saek.cli

    t1 = time.perf_counter_ns()
    import spans

    recorded = spans.Spans()
    recorded.add(spans.IMPORT, t0, t1)
    tracer = spans.Tracer(recorded)
    tracer.install()
    try:
        code = saek.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        recorded.write_tsv(spans_out)
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        return _setup(sys.argv[2])
    if mode == "trace-cli":
        return _trace_cli(sys.argv[2], sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
