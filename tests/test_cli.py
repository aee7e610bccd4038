import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from saek import cli
from saek.corpus import TABLE2_COUNTS


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
        "ending\t어라\tkind=imp\n"
        "whnoun\t사람\tcategory=who\n"
        "whnoun\t의미\tcategory=what\n"
        "whnoun\t위치\tcategory=where\n"
        "whnoun\t시간\tcategory=when\n"
        "whnoun\t이유\tcategory=why\n"
        "whnoun\t방법\tcategory=how\n",
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
