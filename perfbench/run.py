"""saek benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` (in process, and as ``python -m saek.cli`` in child
processes), never from an installed copy.  Uses only the standard library.

Workloads (see README.md for why each exists):
    engine-fuzz  Engine.process in process over seeded fuzz lines + long tail
    cli-extract  one ``saek extract`` child at a time over files of distinct lines
    cli-oneshot  one-line ``saek extract`` invocations, one after another

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's public functions from ``spans.py`` and
reports the per-layer metrics instead.  Either way the correctness gate runs
(``gate.py``), and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans, the environment and every metric are also written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("engine-fuzz", "cli-extract", "cli-oneshot")

SETUP_CHILDREN = 7
PROBE_CHILDREN = 7
MAX_TRACED = 8
CLI_PROBE_LINES = 500

import gate  # noqa: E402
import spans  # noqa: E402
import workload_gen as gen  # noqa: E402
from pacing import Pacer  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


ENV = _child_env()
CLI = [sys.executable, "-m", "saek.cli"]
CHILD = [sys.executable, str(HERE / "child.py")]


class Child:
    """Outcome of one child process: wall time, first-record time, rusage."""

    def __init__(self, cmd: list, stdin: bytes | None = None, first: bool = False):
        with open(WORK / "child.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                env=ENV,
                cwd=ROOT,
            )
            try:
                if stdin is not None:
                    try:
                        proc.stdin.write(stdin)
                        proc.stdin.close()
                    except BrokenPipeError:
                        pass  # the child exited early; its status says why
                head = proc.stdout.readline() if first else b""
                self.first = time.perf_counter() - t0 if first else None
                self.out = head + proc.stdout.read()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.cpu = ru.ru_utime + ru.ru_stime
            self.rss_mb = ru.ru_maxrss / 1024.0
            err.seek(0)
            self.err = err.read().decode("utf-8", "replace")


class Run:
    """Counts, problems and metrics of one benchmark invocation."""

    def __init__(self, args, env: dict):
        from saek import Engine

        self.args = args
        self.env = env
        self.attempted = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, object] = {}
        self.engine = Engine()
        self.expected = gate.load_expected()

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def in_process(self, lines) -> tuple[bytes, int]:
        """The JSON lines ``saek extract`` should print, and their error count."""
        records = [self.engine.process(line) for line in lines]
        return b"".join(map(gate.record_line, records)), sum(r.error is not None for r in records)

    def check_child(self, child: Child, want: bytes, what: str) -> None:
        if child.code != 0 or child.err.strip():
            self.fail(f"{what}: exit {child.code}: {child.err.strip()[-500:]}")
        elif child.out != want:
            self.fail(f"{what}: stdout differs from the in-process records")

    # -- gate --------------------------------------------------------------

    def gate(self, workload: str) -> None:
        """Golden pairs, then the digest of the workload's output path over the
        fixed reference set (cli-oneshot pins its own pool's digest instead)."""
        for problem in gate.golden_failures(self.engine):
            self.fail(problem)
        if workload == "cli-oneshot":
            return
        lines = gen.reference_lines()
        if workload == "engine-fuzz":
            records = [self.engine.process(line) for line in lines]
            actual = gate.digest(map(gate.record_line, records))
            n_fuzz = gen.REFERENCE_PER_FAMILY * 6
            errors = sum(r.error is not None for r in records[:n_fuzz])
            self.notes["reference_error_records"] = f"{errors}/{n_fuzz}"
        else:
            child = Child(CLI + ["extract", str(_write_lines("reference.txt", lines))])
            if child.code != 0:
                self.fail(f"reference run: exit {child.code}: {child.err.strip()[-500:]}")
            actual = gate.digest([child.out])
        for problem in gate.check_digest(workload, actual, self.expected):
            self.fail(problem)

    # -- end-to-end ----------------------------------------------------------

    def engine_fuzz(self) -> None:
        blocks = gen.engine_blocks(self.args.seed)
        block = next(blocks)
        self._setup_children(block)
        pacer = Pacer()
        windows = []
        errors = 0
        deadline = time.perf_counter() + self.args.seconds
        while time.perf_counter() < deadline:
            windows.append(pacer.window(lambda: _engine_window(self.engine, block)))
            errors += windows[-1][3]
            self.attempted += len(block)
            block = next(blocks)
        kept = [windows[i] for i in pacer.kept()]
        lat = array("q")
        for w in kept:
            lat.extend(w[2])
        self.metric("throughput_utt_s", len(lat) / sum(w[0] for w in kept), "utt/s")
        self._latency([x / 1e3 for x in lat], "per process call")
        self.metric("cpu_us_per_utt", sum(w[1] for w in kept) / len(lat) * 1e6, "us")
        self.metric("error_rate", errors / self.attempted, "fraction")
        self.notes["windows_kept"] = f"{len(kept)}/{len(windows)}"

    def _setup_children(self, lines) -> None:
        """Fresh interpreters: set-up time, and peak RSS while running a block."""
        path = _write_lines("engine-setup.txt", lines)
        Child(CHILD + ["setup", str(path)])  # warm the bytecode and file caches
        pacer = Pacer()
        runs = [pacer.window(lambda: Child(CHILD + ["setup", str(path)])) for _ in range(SETUP_CHILDREN)]
        for child in runs:
            if child.code != 0:
                self.fail(f"setup child: exit {child.code}: {child.err.strip()[-500:]}")
                return
        setup = [json.loads(runs[i].out)["setup_s"] for i in pacer.kept()]
        self.metric("setup_s", statistics.median(setup), "s")
        self.metric("peak_rss_mb", statistics.median(c.rss_mb for c in runs), "MB")

    def cli_extract(self) -> None:
        pacer = Pacer()
        runs = []
        files = gen.distinct_files(self.args.seed)
        deadline = time.perf_counter() + self.args.seconds
        while time.perf_counter() < deadline:
            lines = next(files)
            path = _write_lines("cli-extract.txt", lines)
            runs.append((lines, pacer.window(lambda: Child(CLI + ["extract", str(path)], first=True))))
        errors = 0
        for k, (lines, child) in enumerate(runs):
            want, n_errors = self.in_process(lines)
            self.check_child(child, want, f"cli-extract child {k}")
            errors += n_errors
            self.attempted += len(lines)
        kept = [runs[i] for i in pacer.kept()]
        self.metric("setup_s", statistics.median(c.first for _, c in kept), "s")
        n_kept = sum(len(ls) for ls, _ in kept)
        self.metric("throughput_utt_s", n_kept / sum(c.wall for _, c in kept), "utt/s")
        self._latency([c.wall / len(ls) * 1e6 for ls, c in kept], "per child run (wall per line)")
        self.metric("cpu_us_per_utt", sum(c.cpu for _, c in kept) / n_kept * 1e6, "us")
        self.metric("peak_rss_mb", statistics.median(c.rss_mb for _, c in runs), "MB")
        self.metric("error_rate", errors / self.attempted, "fraction")
        self.notes["windows_kept"] = f"{len(kept)}/{len(runs)}"

    def cli_oneshot(self) -> None:
        pool = gen.oneshot_pool()
        want = {line: self.in_process([line]) for line in pool}
        Child(CLI + ["extract"], stdin=_stdin(pool[0]))  # warm the bytecode and file caches
        rng = random.Random(self.args.seed)
        pacer = Pacer()
        runs = []
        errors = 0
        outputs: dict[str, bytes] = {}
        deadline = time.perf_counter() + self.args.seconds
        while not runs or time.perf_counter() < deadline:  # whole passes over the pool
            order = pool[:]
            rng.shuffle(order)
            for line in order:
                child = pacer.window(lambda: Child(CLI + ["extract"], stdin=_stdin(line)))
                self.check_child(child, want[line][0], f"one-shot {line!r}")
                outputs.setdefault(line, child.out)
                errors += want[line][1]
                runs.append(child)
        self.attempted = len(runs)
        actual = gate.digest(outputs[line] for line in pool)
        for problem in gate.check_digest("cli-oneshot", actual, self.expected):
            self.fail(problem)
        kept = [runs[i] for i in pacer.kept()]
        walls = [c.wall for c in kept]
        self.metric("setup_s", statistics.median(walls), "s")
        self.metric("throughput_utt_s", statistics.median(1 / w for w in walls), "utt/s")
        self._latency([w * 1e6 for w in walls], "per invocation")
        self.metric("cpu_us_per_utt", statistics.median(c.cpu for c in kept) * 1e6, "us")
        self.metric("peak_rss_mb", statistics.median(c.rss_mb for c in runs), "MB")
        self.metric("error_rate", errors / self.attempted, "fraction")
        self.notes["windows_kept"] = f"{len(kept)}/{len(runs)}"

    def _latency(self, samples_us: list, what: str) -> None:
        samples_us = sorted(samples_us)
        # "inclusive" never extrapolates past the largest sample, which matters
        # for the CLI workloads' few dozen samples
        p99 = statistics.quantiles(samples_us, n=100, method="inclusive")[98] if len(samples_us) > 1 else samples_us[0]
        beyond = sum(1 for x in samples_us if x > p99)
        self.metric("latency_p50_us", statistics.median(samples_us), "us")
        self.metric("latency_p99_us", p99, "us")
        self.notes["latency_samples"] = f"{len(samples_us)} {what}, {beyond} beyond p99"

    # -- per-layer (traced) ------------------------------------------------

    def traced(self, workload: str) -> None:
        self.spans = spans.Spans()
        getattr(self, "_traced_" + workload.replace("-", "_"))()
        self._layer_metrics()
        self._probe_interpreter()
        self._probe_corpus()
        if workload == "engine-fuzz":
            self._probe_cli(self.lines[:CLI_PROBE_LINES])
        path = WORK / f"spans-{workload}-seed{self.args.seed}.tsv"
        self.spans.write_tsv(path, [json.dumps(self.env)])
        self.notes["spans"] = str(path.relative_to(ROOT))

    def _traced_engine_fuzz(self) -> None:
        """Untraced and traced passes over one block, alternating."""
        block = next(gen.engine_blocks(self.args.seed))
        pacer = Pacer()
        tracer = spans.Tracer(self.spans)
        kinds, ranges, walls = [], [], []
        deadline = time.perf_counter() + self.args.seconds
        while len(ranges) < MAX_TRACED and (len(ranges) < 2 or time.perf_counter() < deadline):
            walls.append(pacer.window(lambda: _engine_window(self.engine, block))[0])
            lo = len(self.spans)
            tracer.install()
            try:
                walls.append(pacer.window(lambda: _engine_window(self.engine, block))[0])
            finally:
                tracer.uninstall()
            kinds += [0, 1]
            ranges.append((lo, len(self.spans)))
            self.attempted += len(block)
        self.lines = block
        self.errors = [self.engine.process(line).error for line in block]
        self._repeats(pacer, kinds, ranges, walls, 1)

    def _traced_cli_extract(self) -> None:
        lines = next(gen.distinct_files(self.args.seed))
        path = _write_lines("cli-extract.txt", lines)
        self._traced_children([(lines, ["extract", str(path)], None)])

    def _traced_cli_oneshot(self) -> None:
        order = gen.oneshot_pool()
        random.Random(self.args.seed).shuffle(order)
        self._traced_children([([line], ["extract"], _stdin(line)) for line in order])

    def _traced_children(self, jobs) -> None:
        """Untraced and traced children over the same jobs, alternating."""
        want = [self.in_process(lines)[0] for lines, _, _ in jobs]
        out = WORK / "child-spans.tsv"
        pacer = Pacer()
        kinds, ranges, walls = [], [], []
        Child(CLI + jobs[0][1], stdin=jobs[0][2])  # warm the bytecode and file caches
        deadline = time.perf_counter() + self.args.seconds
        while len(ranges) < MAX_TRACED * len(jobs) and (
            len(ranges) < 2 * len(jobs) or time.perf_counter() < deadline
        ):
            for (lines, argv, stdin), expected in zip(jobs, want):
                plain = pacer.window(lambda: Child(CLI + argv, stdin=stdin))
                traced = pacer.window(lambda: Child(CHILD + ["trace-cli", str(out)] + argv, stdin=stdin))
                for kind, child in ((0, plain), (1, traced)):
                    self.check_child(child, expected, f"{'traced' if kind else 'untraced'} child")
                    kinds.append(kind)
                    walls.append(child.wall)
                ranges.append(self.spans.extend(spans.Spans.read_tsv(out)))
                self.attempted += len(lines)
        self.lines = [line for lines, _, _ in jobs for line in lines]
        self.errors = [json.loads(line).get("error") for w in want for line in w.splitlines()]
        self._repeats(pacer, kinds, ranges, walls, len(jobs))

    def _repeats(self, pacer, kinds, ranges, walls, per_repeat: int) -> None:
        """Group traced spans by repeat of the whole input; keep fast-state ones.

        ``ranges[j]`` holds the spans of the j-th traced window; ``kinds``
        and ``walls`` cover every window, untraced (0) and traced (1).
        """
        kept = set(pacer.kept())
        traced = [i for i, k in enumerate(kinds) if k == 1]
        self.count_ranges = [
            (ranges[r * per_repeat][0], ranges[(r + 1) * per_repeat - 1][1])
            for r in range(len(ranges) // per_repeat)
        ]
        self.time_ranges = [ranges[j] for j, i in enumerate(traced) if i in kept] or ranges
        plain = [walls[i] for i, k in enumerate(kinds) if k == 0 and i in kept]
        slow = [walls[i] for i in traced if i in kept]
        if not plain or not slow:
            plain = [walls[i] for i, k in enumerate(kinds) if k == 0]
            slow = [walls[i] for i in traced]
        self.metric("trace.overhead_pct", 100.0 * (statistics.median(slow) / statistics.median(plain) - 1.0), "%")
        self.notes["windows_kept"] = f"{len(kept)}/{len(kinds)}"
        self.notes["traced_repeats"] = len(self.count_ranges)

    def _layer_metrics(self) -> None:
        per_repeat = [spans.counts(self.spans, lo, hi) for lo, hi in self.count_ranges]
        if any(c != per_repeat[0] for c in per_repeat[1:]):
            self.fail("traced call counts differ between repeats of the same input")
        c = per_repeat[0]
        utts = max(1, c[spans.ROOT])
        for name in (
            "lexicon.lookup_wh",
            "lexicon.lookup_wh_pair",
            "lexicon.longest_josa",
            "lexicon.match_ending",
            "analyze.find_wh",
            "analyze.profile_negation",
            "analyze.strip_josa",
            "hangul.decompose",
            "hangul.compose",
        ):
            self.metric(f"{name}.calls_per_utt", c[name] / utts, "calls")
        self.metric("lexicon.lookup_calls_per_utt", sum(c[n] for n in spans.LOOKUPS) / utts, "calls")
        self.metric("classify.unclassifiable_rate", self.errors.count("unclassifiable") / utts, "fraction")
        failed = self.errors.count("extraction-failed") + self.errors.count("options-not-found")
        self.metric("extract.failed_rate", failed / max(1, c["extract.extract"]), "fraction")

        st = spans.self_times(self.spans, self.time_ranges)
        stages = {
            "analyze.normalize_us": "analyze.normalize",
            "classify.classify_us": "classify.classify",
            "extract.extract_us": "extract.extract",
            "engine.process_self_us": "engine.process",
            "lexicon.lookup_us_per_utt": "lexicon.lookup",
        }
        for metric, name in stages.items():
            self.metric(metric, spans.median(st.get(name, [])) / 1e3, "us")
        process = spans.durations(self.spans, self.time_ranges, spans.ROOT)
        self.metric("engine.process_us", spans.median(process) / 1e3, "us")
        parts = sum(sum(st.get(n, [])) for n in list(stages.values())[:4])
        self.notes["process_time_accounted_pct"] = round(100.0 * parts / max(1, sum(process)), 3)
        self._cli_metrics(self.time_ranges, st)

    def _cli_metrics(self, ranges, st) -> None:
        """Metrics that only a traced CLI child yields, if the ranges hold one."""
        to_dict = spans.durations(self.spans, ranges, "cli.to_dict")
        dumps = spans.durations(self.spans, ranges, "cli.json_dumps")
        if not to_dict:
            return
        emit = [a + b for a, b in zip(to_dict, dumps)]
        self.metric("cli.emit_json_us", spans.median(emit) / 1e3, "us")
        per_line = [
            s / max(1, spans.counts(self.spans, lo, hi)[spans.ROOT])
            for s, (lo, hi) in zip(st.get("cli.stream", []), ranges)
        ]
        self.metric("cli.stream_overhead_us", spans.median(per_line) / 1e3, "us")
        imports = spans.durations(self.spans, ranges, spans.IMPORT)
        self.metric("cli.import_ms", spans.median(imports) / 1e6, "ms")
        self.metric("lexicon.load_ms", spans.median(st.get("lexicon.parse", [])) / 1e6, "ms")

    def _probe_cli(self, lines) -> None:
        """Traced CLI children over a few lines, for the cli and load metrics."""
        path = _write_lines("cli-probe.txt", lines)
        out = WORK / "child-spans.tsv"
        want = self.in_process(lines)[0]
        pacer = Pacer()
        ranges = []
        for _ in range(3):
            child = pacer.window(lambda: Child(CHILD + ["trace-cli", str(out), "extract", str(path)]))
            self.check_child(child, want, "cli probe")
            ranges.append(self.spans.extend(spans.Spans.read_tsv(out)))
        kept = [ranges[i] for i in pacer.kept()]
        self._cli_metrics(kept, spans.self_times(self.spans, kept))

    def _probe_interpreter(self) -> None:
        pacer = Pacer()
        walls = [pacer.window(lambda: Child([sys.executable, "-c", "pass"])).wall for _ in range(PROBE_CHILDREN)]
        self.metric("cli.interpreter_ms", statistics.median(walls[i] for i in pacer.kept()) * 1e3, "ms")

    def _probe_corpus(self) -> None:
        """corpus.load and corpus.evaluate over the traced lines' own records."""
        from saek import corpus

        records = [self.engine.process(line) for line in self.lines]
        rows = [f"{r.label if r.label is not None else 0}\t{r.text}" for r in records]

        def once():
            t0 = time.perf_counter()
            entries, _ = corpus.load(rows, format="labeled")
            t1 = time.perf_counter()
            preds = [(records[e.line_no - 1].label, records[e.line_no - 1].argument) for e in entries]
            t2 = time.perf_counter()
            corpus.evaluate(preds, entries)
            t3 = time.perf_counter()
            return (t1 - t0) / len(rows), (t3 - t2) / len(entries)

        pacer = Pacer()
        results = [pacer.window(once) for _ in range(PROBE_CHILDREN)]
        kept = [results[i] for i in pacer.kept()]
        self.metric("corpus.load_us_per_row", statistics.median(r[0] for r in kept) * 1e6, "us")
        self.metric("corpus.evaluate_us_per_row", statistics.median(r[1] for r in kept) * 1e6, "us")


def _engine_window(engine, block):
    process = engine.process
    clock = time.perf_counter_ns
    lat = array("q")
    errors = 0
    c0 = time.process_time()
    w0 = clock()
    for line in block:
        t = clock()
        r = process(line)
        lat.append(clock() - t)
        if r.error is not None:
            errors += 1
    w1 = clock()
    return (w1 - w0) / 1e9, time.process_time() - c0, lat, errors


def _stdin(line: str) -> bytes:
    return (line + "\n").encode("utf-8")


def _write_lines(name: str, lines) -> Path:
    path = WORK / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "saek" / "__init__.py").is_file():
        print(f"perfbench: no saek package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = _environment(args)
    print(json.dumps({"env": env}))

    run = Run(args, env)
    run.gate(args.workload)
    if args.trace:
        run.traced(args.workload)
    else:
        getattr(run, args.workload.replace("-", "_"))()
    run.attempted = max(1, run.attempted)
    correct = not run.problems
    failed = 0
    if not correct:
        # a traceback, a non-zero exit or a mismatch fails every line of the run
        failed = run.attempted
        if "error_rate" in run.metrics:
            run.metric("error_rate", 1.0, "fraction")
    for problem in run.problems:
        print(f"FAIL: {problem}")
    for name, m in sorted(run.metrics.items()):
        print(f"{args.workload:12s} {name:40s} {m['value']:14.4f} {m['unit']}")
    for key, value in run.notes.items():
        print(f"note: {key}: {value}")
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"env": env, "notes": run.notes, "problems": run.problems, "metrics": run.metrics}, indent=1),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": run.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
