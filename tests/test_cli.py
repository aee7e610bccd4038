import contextlib
import io
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import saek
from saek import cli
from saek.corpus import TABLE2_COUNTS
from saek.engine import record_tsv_row

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workload_gen  # noqa: E402


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_extract_stdin_json(monkeypatch, capsys):
    code, out, err = run_cli(
        ["extract"],
        "해외 송금 어떻게 하는 거야\n",
        monkeypatch,
        capsys,
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["label"] == 2
    assert record["argument"] == "해외 송금 방법"
    assert record["question_type"] == "wh"
    assert err == ""


def test_extract_error_record_non_strict(monkeypatch, capsys):
    code, out, _ = run_cli(["extract"], "비가 온다\n", monkeypatch, capsys)
    assert code == 0
    record = json.loads(out.strip())
    assert record["error"] == "unclassifiable"
    assert "label" not in record


def test_strict_exit_code(monkeypatch, capsys):
    code, out, _ = run_cli(["extract", "--strict"], "비가 온다\n", monkeypatch, capsys)
    assert code == 1


def test_output_line_count_matches_input(monkeypatch, capsys):
    text = "밥 먹었어\n비가 온다\n창문 열어줘\n"
    code, out, _ = run_cli(["classify"], text, monkeypatch, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        json.loads(line)


def test_classify_omits_argument(monkeypatch, capsys):
    _, out, _ = run_cli(["classify"], "창문 열어줘\n", monkeypatch, capsys)
    record = json.loads(out.strip())
    assert record["label"] == 4
    assert record["negativeness"] == "requirement"
    assert "argument" not in record


def test_tsv_format_fixed_columns(monkeypatch, capsys):
    _, out, _ = run_cli(
        ["extract", "--format", "tsv"], "오늘은 누구 왔니\n", monkeypatch, capsys
    )
    cells = out.rstrip("\n").split("\t")
    assert len(cells) == 9
    assert cells[1] == "2" and cells[5] == "오늘 온 사람"


def test_empty_utterance_record_collapses_whitespace(monkeypatch, capsys):
    _, out, _ = run_cli(["extract", "--format", "tsv"], ".\t.\n", monkeypatch, capsys)
    cells = out.rstrip("\n").split("\t")
    assert len(cells) == 9
    assert cells[0] == ". ." and cells[8] == "empty-utterance"
    _, out, _ = run_cli(["extract"], ".\t.\n", monkeypatch, capsys)
    assert json.loads(out) == {"text": ". .", "error": "empty-utterance"}


def test_file_input(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("인적사항 확인 바랍니다\n", encoding="utf-8")
    code = cli.run(["extract", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out.strip())["argument"] == "인적사항 확인하기"


def test_missing_file_reports_and_exits_one(capsys):
    code = cli.run(["extract", "/nonexistent/file.txt"])
    _, err = capsys.readouterr()
    assert code == 1 and "saek:" in err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_a_traceback(tmp_path, unbuffered):
    # more output than a pipe holds, so the writer meets the closed end
    path = tmp_path / "in.txt"
    path.write_text("오늘은 누구 왔니\n" * 1000, encoding="utf-8")
    src = Path(saek.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    env.pop("SAEK_LEXICON", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "saek.cli", "extract", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert json.loads(first)["argument"] == "오늘 온 사람"
    assert err == b""


def _child_env(unbuffered="1"):
    src = Path(saek.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("SAEK_LEXICON", None)
    return env


def _readline_within(stream, seconds):
    ready, _, _ = select.select([stream], [], [], seconds)
    assert ready, f"no record within {seconds} s"
    return stream.readline()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdin_input_streams_each_record_before_the_next_line(engine, unbuffered):
    # a live feed (tail -f log | saek extract): each record comes back while
    # stdin is still open, whether or not stdout is buffered
    lines = ["오늘은 누구 왔니", "창문 열어줘"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "saek.cli", "extract"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    try:
        for line in lines:
            proc.stdin.write(line.encode() + b"\n")
            proc.stdin.flush()
            got = json.loads(_readline_within(proc.stdout, 60))
            assert got == engine.process(line).to_dict()
        proc.stdin.close()
        assert proc.stdout.read() == b""
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# three full blocks and a part of a fourth
N_BLOCKED = 3 * cli._BLOCK + 5


def _blocked_lines():
    lines = [line for line in workload_gen.reference_lines() if line.strip()]
    return lines[:N_BLOCKED]


def _want_text(engine, lines, fmt):
    records = [engine.process(line) for line in lines]
    if fmt == "tsv":
        return "".join(record_tsv_row(r) + "\n" for r in records)
    return "".join(json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in records)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("given", ["path", "redirect"])
def test_a_regular_file_is_written_in_blocks(engine, tmp_path, monkeypatch, given, fmt):
    # by path or as stdin (saek extract < FILE): the input is a regular file
    lines = _blocked_lines()
    path = tmp_path / "in.txt"
    _write_lines(path, lines)
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["extract", "--format", fmt]
    if given == "path":
        argv.append(str(path))
        assert cli.run(argv) == 0
    else:
        with open(path, encoding="utf-8") as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert cli.run(argv) == 0
    assert len(out.writes) <= -(-len(lines) // cli._BLOCK) + 1
    assert out.writes[0].count("\n") == 1  # the first record waits for no block
    assert out.getvalue() == _want_text(engine, lines, fmt)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("given", ["pipe", "fifo", "in-memory"])
def test_any_other_input_is_written_one_record_at_a_time(
    engine, tmp_path, monkeypatch, given, fmt
):
    # a pipe on stdin, a FIFO given as a path, or a stream with no descriptor
    lines = _blocked_lines()
    text = "".join(line + "\n" for line in lines)
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["extract", "--format", fmt]
    if given == "fifo":
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_write_lines, args=(fifo, lines))
        writer.start()
        try:
            assert cli.run(argv + [str(fifo)]) == 0
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
    else:
        if given == "pipe":
            read_fd, write_fd = os.pipe()
            with os.fdopen(write_fd, "w", encoding="utf-8") as w:
                w.write(text)  # a few KB: the pipe's buffer holds it all
            stdin = os.fdopen(read_fd, encoding="utf-8")
        else:
            stdin = io.StringIO(text)
        with stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert cli.run(argv) == 0
    assert len(out.writes) == len(lines)
    assert out.getvalue() == _want_text(engine, lines, fmt)


def test_a_file_over_several_blocks_matches_the_in_process_records(engine, tmp_path):
    # through main(), the process entry point, which freezes the start-up heap
    lines = _blocked_lines()
    path = tmp_path / "in.txt"
    _write_lines(path, lines)
    proc = subprocess.run(
        [sys.executable, "-m", "saek.cli", "extract", str(path)],
        capture_output=True,
        env=_child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == _want_text(engine, lines, "json").encode("utf-8")

def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.run(["bogus-command"])
    assert exc.value.code == 2


def test_corpus_stats_fixture(fixtures_dir, capsys):
    code = cli.run(["corpus", "stats", str(fixtures_dir / "corpus60.tsv")])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 60
    assert payload["counts"] == [10] * 6
    assert payload["portions"] == [0.1667] * 6


def test_corpus_stats_expect_table2_mismatch(fixtures_dir, capsys):
    code = cli.run(
        ["corpus", "stats", "--expect-table2", str(fixtures_dir / "corpus60.tsv")]
    )
    _, err = capsys.readouterr()
    assert code == 1
    assert "count" in err


def test_corpus_stats_expect_table2_match(tmp_path, capsys):
    path = tmp_path / "table2.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for label, n in enumerate(TABLE2_COUNTS):
            fh.writelines(f"{label}\t문장 견본\n" for _ in range(n))
    code = cli.run(["corpus", "stats", "--expect-table2", str(path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["total"] == sum(TABLE2_COUNTS)
    assert "matches" in err


def test_corpus_validate_reports_json_lines(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t밥 먹었어\n9\tx\nabc\n", encoding="utf-8")
    code = cli.run(["corpus", "validate", str(path)])
    out, err = capsys.readouterr()
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["line"] for r in reports] == [2, 3]
    assert "1 rows ok" in err
    code = cli.run(["corpus", "validate", "--strict", str(path)])
    assert code == 1


def test_eval_fixture_coverage(fixtures_dir, capsys):
    code = cli.run(["eval", str(fixtures_dir / "corpus60.tsv")])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 60
    assert report["coverage"] >= 0.9
    assert report["label_accuracy"] == 1.0


def test_eval_paired_arguments(fixtures_dir, capsys):
    code = cli.run(["eval", "--paired", str(fixtures_dir / "paired13.tsv")])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["arg_exact"] == 1.0
    assert report["arg_char_f1"] == 1.0


def test_eval_minimal_pairs(fixtures_dir, capsys):
    # each fixed input sits next to a near-identical row that must not move
    code = cli.run(["eval", "--paired", str(fixtures_dir / "minimal_pairs.tsv")])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["label_accuracy"] == 1.0
    assert report["arg_exact"] == 1.0


def test_eval_failures_file(tmp_path, capsys):
    data = tmp_path / "mixed.tsv"
    data.write_text("0\t밥 먹었어\n3\t그냥 명사구\n", encoding="utf-8")
    failures = tmp_path / "fail.jsonl"
    code = cli.run(["eval", str(data), "--failures", str(failures)])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 1
    logged = [json.loads(l) for l in failures.read_text("utf-8").strip().split("\n")]
    assert logged[0]["line"] == 2 and logged[0]["error"] == "unclassifiable"


def test_lexicon_override_flag(tmp_path, capsys):
    # a tiny lexicon that only knows the imperative ending 어라
    tiny = tmp_path / "tiny.tsv"
    tiny.write_text(
        "ending\t어라\tkind=imp\n",
        encoding="utf-8",
    )
    source = tmp_path / "in.txt"
    source.write_text("손 씻어라\n오늘은 누구 왔니\n", encoding="utf-8")
    code = cli.run(["--lexicon", str(tiny), "extract", str(source)])
    out, _ = capsys.readouterr()
    first, second = (json.loads(line) for line in out.strip().split("\n"))
    assert first["label"] == 4
    assert second.get("error") == "unclassifiable"  # no wh table entries


def test_lexicon_env_default(tmp_path, capsys, monkeypatch):
    broken = tmp_path / "broken.tsv"
    broken.write_text("nonsense\t뭐\t\n", encoding="utf-8")
    monkeypatch.setenv("SAEK_LEXICON", str(broken))
    code = cli.run(["classify", "-"])
    _, err = capsys.readouterr()
    assert code == 1 and "unknown role" in err


def _bad_lexicon(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.tsv"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.tsv"
    path.write_bytes("josa\t은\tcond=batchim\n".encode() + b"josa\t\xe9\n")
    return path


@pytest.mark.parametrize(
    "kind, message",
    [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", ":2: not UTF-8"),
    ],
)
@pytest.mark.parametrize("via_env", [False, True])
def test_bad_lexicon_path_reports_and_exits_one(
    tmp_path, capsys, monkeypatch, kind, message, via_env
):
    path = _bad_lexicon(tmp_path, kind)
    if via_env:
        monkeypatch.setenv("SAEK_LEXICON", str(path))
        argv = ["extract", "-"]
    else:
        argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "손 씻어라\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("saek: ") and str(path) in err and message in err
    assert "Traceback" not in err


def test_a_corrupt_bundled_lexicon_reports_its_line_and_exits_one(tmp_path):
    # the bundled file goes through the reader a --lexicon path goes through
    package = tmp_path / "saek"
    shutil.copytree(Path(saek.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    data = package / "data" / "default_lexicon.tsv"
    data.write_bytes(b"josa\t\xe9\n" + data.read_bytes())
    env = dict(_child_env(), PYTHONPATH=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "saek.cli", "extract", "-"],
        input="손 씻어라\n".encode(),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == "saek: default_lexicon.tsv:1: not UTF-8 (invalid continuation byte)\n"


def test_bad_condition_in_lexicon_reports_its_line_and_exits_one(tmp_path, capsys, monkeypatch):
    bundled = (Path(saek.__file__).parent / "data" / "default_lexicon.tsv").read_text("utf-8")
    lines = bundled.splitlines()
    line = lines.index("vocative\t야\tcond=no_batchim") + 1
    lines[line - 1] = "vocative\t야\tcond=nobatchim"
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "손 씻어라\n철수야 뭐 먹을래\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    cond = "any|batchim|no_batchim|open_or_rieul|batchim_not_rieul"
    assert err == f"saek: {path}:{line}: vocative needs cond={cond}\n"
    assert "Traceback" not in err


def test_a_row_spelling_a_polite_form_reports_its_line_and_exits_one(tmp_path, capsys, monkeypatch):
    # the bundled 까 row is flagged polite, so it loads 까요 already
    bundled = (Path(saek.__file__).parent / "data" / "default_lexicon.tsv").read_text("utf-8")
    lines = bundled.splitlines() + ["ending\t까요\tkind=int"]
    path = tmp_path / "doubled.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "커피 살까요\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == f"saek: {path}:{len(lines)}: duplicate entry ending '까요'\n"


def test_unknown_attribute_in_lexicon_reports_its_line_and_exits_one(tmp_path, capsys, monkeypatch):
    bundled = (Path(saek.__file__).parent / "data" / "default_lexicon.tsv").read_text("utf-8")
    lines = bundled.splitlines()
    line = lines.index("josa\t는\tcond=no_batchim;droppable") + 1
    lines[line - 1] = "josa\t는\tkond=no_batchim;droppable"
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "나는 밥 먹었니\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"saek: {path}:{line}: unknown attribute kond for josa")
    assert "Traceback" not in err


def test_a_whnoun_row_in_lexicon_reports_its_line_and_exits_one(tmp_path, capsys, monkeypatch):
    # a wh argument ends in its category's word: no row sets a replacement noun
    path = tmp_path / "old.tsv"
    path.write_text("whnoun\t사람\tcategory=who\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "누가 왔니\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"saek: {path}:1: unknown role 'whnoun'")
    assert "Traceback" not in err


def test_an_ending_row_of_kind_cue_in_lexicon_reports_its_line_and_exits_one(
    tmp_path, capsys, monkeypatch
):
    # a want-to-know cue is a cue row; the old ending spelling has no reading
    path = tmp_path / "old.tsv"
    path.write_text("ending\t궁금\tkind=cue\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "어디 갔는지 궁금해\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"saek: {path}:1: ending needs kind=int|imp")
    assert "Traceback" not in err


def test_a_spaced_josa_row_in_lexicon_reports_its_line_and_exits_one(
    tmp_path, capsys, monkeypatch
):
    # a particle is split off one token, so a surface with a space never matched
    path = tmp_path / "spaced.tsv"
    path.write_text("josa\t에 서\n", encoding="utf-8")
    argv = ["--lexicon", str(path), "extract", "-"]
    code, out, err = run_cli(argv, "학교에서 뭐 했니\n", monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"saek: {path}:1: '에 서' is not one word")
    assert "Traceback" not in err


def test_corpus_commands_never_read_the_lexicon(fixtures_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SAEK_LEXICON", str(tmp_path / "missing.tsv"))
    code = cli.run(["corpus", "stats", str(fixtures_dir / "corpus60.tsv")])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["total"] == 60 and err == ""
    code = cli.run(["corpus", "validate", str(fixtures_dir / "corpus60.tsv")])
    out, err = capsys.readouterr()
    assert (code, out) == (0, "") and err == "60 rows ok, 0 bad\n"


BAD_UTF8 = "밥 먹었어\n".encode() + b"\xff\xfe " + "밖에\n창문 열어줘\n".encode()


def run_cli_bytes(argv, data, via_stdin):
    """Run the CLI on raw input bytes, from stdin or from a file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        if via_stdin:
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            with mock.patch.object(sys, "stdin", stdin):
                code = cli.run(argv)
        else:
            path = Path(tmp) / "in.txt"
            path.write_bytes(data)
            code = cli.run(argv + [str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("via_stdin", [False, True])
def test_invalid_utf8_line_is_one_typed_record(via_stdin):
    code, out, _ = run_cli_bytes(["extract"], BAD_UTF8, via_stdin)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r.get("label") for r in records] == [0, None, 4]
    assert records[1] == {"text": "\ufffd\ufffd 밖에", "error": "invalid-utf8"}
    code, _, _ = run_cli_bytes(["extract", "--strict"], BAD_UTF8, via_stdin)
    assert code == 1


def _line_bytes():
    raw = st.one_of(st.binary(max_size=24), st.text(max_size=12).map(str.encode))
    return raw.map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))


@settings(max_examples=150, deadline=None)
@given(st.lists(_line_bytes(), max_size=6), st.booleans())
def test_extract_total_on_arbitrary_bytes(lines, via_stdin):
    code, out, err = run_cli_bytes(["extract"], b"\n".join(lines), via_stdin)
    assert code == 0 and "Traceback" not in err
    non_blank = [b for b in lines if b.decode("utf-8", "surrogateescape").strip()]
    assert out.count("\n") == len(non_blank)
    for line in out.split("\n")[:-1]:
        json.loads(line)


def test_corpus_rows_with_invalid_utf8_are_load_errors(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_bytes("0\t밥 먹었어\n0\t".encode() + b"\xff " + "밖에\n".encode())
    code = cli.run(["corpus", "validate", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == {"line": 2, "error": "invalid UTF-8"}
    code = cli.run(["eval", str(path)])
    out, err = capsys.readouterr()
    assert code == 0 and "line 2: invalid UTF-8" in err
    assert json.loads(out)["total"] == 1


def test_eval_unwritable_failures_path_reports(fixtures_dir, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.jsonl"
    code = cli.run(["eval", str(fixtures_dir / "corpus60.tsv"), "--failures", str(missing)])
    _, err = capsys.readouterr()
    assert code == 1 and err.startswith("saek: ") and "No such file" in err


def test_corpus_stats_empty_reports(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    code = cli.run(["corpus", "stats", str(empty)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("saek: ")


def test_eval_empty_reports(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n", encoding="utf-8")
    code = cli.run(["eval", str(empty)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("saek: ")


# one input per record shape: invalid-utf8, empty-utterance, unclassifiable,
# extraction-failed, label 0, a question type, a negativeness, a note
PINNED_INPUT = b"\n".join(
    [
        "비가 ".encode() + b"\xff " + "온다".encode(),
        b". \t .",
        "비가 온다".encode(),
        "뭐 하는 거야".encode(),
        "밥 먹었어".encode(),
        "오늘은 누구 왔니".encode(),
        "창문 열어줘".encode(),
        "누가 긨니".encode(),
    ]
)
_PINNED_ERRORS = [
    '{"text": "비가 � 온다", "error": "invalid-utf8"}',
    '{"text": ". .", "error": "empty-utterance"}',
    '{"text": "비가 온다", "error": "unclassifiable"}',
]
PINNED = {
    "extract": _PINNED_ERRORS
    + [
        '{"text": "뭐 하는 거야", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"evidence": [{"rule": "wh-word", "span": [0, 1]}], "error": "extraction-failed"}',
        '{"text": "밥 먹었어", "label": 0, "label_name": "yes_no", "question_type": "yes/no", '
        '"argument": "밥 먹었는지 여부", "category": "여부", '
        '"evidence": [{"rule": "polar-ending", "span": [4, 5]}]}',
        '{"text": "오늘은 누구 왔니", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"argument": "오늘 온 사람", "category": "사람", '
        '"evidence": [{"rule": "wh-word", "span": [4, 6]}]}',
        '{"text": "창문 열어줘", "label": 4, "label_name": "requirement", '
        '"negativeness": "requirement", "argument": "창문 열어주기", "category": "요구", '
        '"evidence": [{"rule": "imperative-ending", "span": [5, 6]}]}',
        '{"text": "누가 긨니", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"argument": "긨은 사람", "category": "사람", '
        '"evidence": [{"rule": "wh-word", "span": [0, 2]}, {"rule": "contraction-fallback"}]}',
    ],
    "classify": _PINNED_ERRORS
    + [
        '{"text": "뭐 하는 거야", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"evidence": [{"rule": "wh-word", "span": [0, 1]}]}',
        '{"text": "밥 먹었어", "label": 0, "label_name": "yes_no", "question_type": "yes/no", '
        '"evidence": [{"rule": "polar-ending", "span": [4, 5]}]}',
        '{"text": "오늘은 누구 왔니", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"evidence": [{"rule": "wh-word", "span": [4, 6]}]}',
        '{"text": "창문 열어줘", "label": 4, "label_name": "requirement", '
        '"negativeness": "requirement", "evidence": [{"rule": "imperative-ending", "span": [5, 6]}]}',
        '{"text": "누가 긨니", "label": 2, "label_name": "wh", "question_type": "wh", '
        '"evidence": [{"rule": "wh-word", "span": [0, 2]}]}',
    ],
    "extract --format tsv": [
        "비가 � 온다\t\t\t\t\t\t\t\tinvalid-utf8",
        ". .\t\t\t\t\t\t\t\tempty-utterance",
        "비가 온다\t\t\t\t\t\t\t\tunclassifiable",
        "뭐 하는 거야\t2\twh\twh\t\t\t\twh-word@0-1\textraction-failed",
        "밥 먹었어\t0\tyes_no\tyes/no\t\t밥 먹었는지 여부\t여부\tpolar-ending@4-5\t",
        "오늘은 누구 왔니\t2\twh\twh\t\t오늘 온 사람\t사람\twh-word@4-6\t",
        "창문 열어줘\t4\trequirement\t\trequirement\t창문 열어주기\t요구\timperative-ending@5-6\t",
        "누가 긨니\t2\twh\twh\t\t긨은 사람\t사람\twh-word@0-2;contraction-fallback\t",
    ],
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_output_lines_are_pinned(command):
    code, out, _ = run_cli_bytes(command.split(), PINNED_INPUT, via_stdin=False)
    assert code == 0
    assert out.split("\n") == PINNED[command] + [""]


def test_eval_failures_line_is_pinned(tmp_path, capsys):
    data = tmp_path / "gold.tsv"
    data.write_text("0\t밥 먹었어\n2\t뭐 하는 거야\n", encoding="utf-8")
    failures = tmp_path / "fail.jsonl"
    code = cli.run(["eval", str(data), "--failures", str(failures)])
    capsys.readouterr()
    assert code == 0
    assert failures.read_text("utf-8") == (
        '{"line": 2, "text": "뭐 하는 거야", "label": 2, "label_name": "wh", '
        '"question_type": "wh", "evidence": [{"rule": "wh-word", "span": [0, 1]}], '
        '"error": "extraction-failed"}\n'
    )
