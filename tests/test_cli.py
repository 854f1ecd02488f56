"""Command line surface: output formats, exit codes, cache, fixtures."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import torus_super
from torus_super import cli
from torus_super.invariant import compute, superpolynomial_to_json

FIXTURES = Path(__file__).parent.parent / "src" / "torus_super" / "fixtures"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUS_SUPER_CACHE", str(tmp_path / "cache"))


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_plain(capsys):
    code, out, err = run(capsys, "compute", "2", "3")
    assert code == 0
    assert out == "P(2,3) = 1 + q^4*t^2 + a^2*q^2*t^3\n"


def test_compute_grouped(capsys):
    code, out, _ = run(capsys, "compute", "2", "3", "--grouped")
    assert code == 0
    assert out == "a^0: 1 + q^4*t^2\na^2: q^2*t^3\n"


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "2", "3", "--latex")
    assert code == 0
    assert out.startswith("\\begin{array}{c|l}")
    assert "\\textbf{a}^{2} & \\textbf{q}^{2} \\textbf{t}^{3}" in out
    assert out.rstrip().endswith("\\end{array}")


def test_compute_json_matches_fixture(capsys):
    code, out, _ = run(capsys, "compute", "3", "4", "--json")
    assert code == 0
    assert out.strip() == (FIXTURES / "3_4.json").read_text().strip()


def test_compute_json_bit_identical_across_runs(capsys):
    first = run(capsys, "compute", "3", "5", "--json")
    second = run(capsys, "compute", "3", "5", "--json")  # now served from cache
    assert first == second


def test_compute_nonpolynomial_exit(capsys):
    code, out, err = run(capsys, "compute", "2", "4")
    assert code == cli.EXIT_NONPOLYNOMIAL == 5
    assert out == ""
    assert "gcd(2,4) = 2" in err
    assert "T*D - N has lowest term -1 at (a, q, t) = (0, 6, -10)" in err
    # A bad request is a usage error, distinguishable by its exit status.
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "0", "3"])
    assert exc.value.code == 2


def test_compute_raw_prints_content(capsys):
    code, out, _ = run(capsys, "compute", "2", "3", "--raw")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("content: ")
    assert lines[1].startswith("P(2,3) = ")


def test_compute_raw_reads_the_cache(monkeypatch, capsys):
    code, out, _ = run(capsys, "compute", "3", "4", "--raw")
    assert code == 0 and len(out.splitlines()) == 2

    def refuse(n, m):
        raise AssertionError("compute ran on a cached knot")

    monkeypatch.setattr(cli, "compute", refuse)
    assert run(capsys, "compute", "3", "4", "--raw") == (0, out, "")


def test_compute_raw_json_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["compute", "2", "3", "--raw", "--json"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "args,cause",
    [
        (("compute", "0", "3"), "n and m must be positive, got (0, 3)"),
        (("specialize", "2", "0", "--at", "jones"), "n and m must be positive, got (2, 0)"),
        (("genfun", "3", "3"), "need 1 <= r < n"),
        (("genfun", "4", "2"), "family (n=4, r=2) hits non-coprime windings"),
        (("scan", "--n-max", "1", "--m-max", "20"), "no pair 2 <= n <= 1, n < m <= 20 to scan"),
        (("scan", "--n-max", "6", "--m-max", "2"), "no pair 2 <= n <= 6, n < m <= 2 to scan"),
        (("genfun", "0", "1"), "n and r must be positive, got (0, 1)"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, args, cause):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"torus-super: error: {cause}" in err
    assert "Traceback" not in err


def test_internal_errors_are_not_usage_errors(monkeypatch):
    def broken(n, m):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "compute", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(["specialize", "2", "3", "--at", "jones"])


def test_verify_corpus_passes(capsys):
    code, out, _ = run(capsys, "verify", "corpus")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(cli.CORPUS_PAIRS)
    assert all(line.endswith(" ok") for line in lines)


def test_verify_corpus_flags_corruption(tmp_path, capsys):
    bad = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, bad)
    payload = json.loads((bad / "2_3.json").read_text())
    payload["terms"][1][3] = "2"
    (bad / "2_3.json").write_text(json.dumps(payload, separators=(",", ":")))
    code, out, _ = run(capsys, "verify", "corpus", "--fixtures", str(bad))
    assert code == 1
    assert "(2,3) MISMATCH" in out
    assert "fixture=2 computed=1" in out


def test_verify_corpus_reports_an_unreadable_fixture_and_goes_on(tmp_path, capsys):
    # Before, the reader's error escaped after the first MISMATCH line and
    # the remaining pairs were never checked.
    bad = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, bad)
    text = (bad / "2_5.json").read_text()
    (bad / "2_5.json").write_text(text[: text.index("],[") + 2])
    (bad / "3_4.json").write_text('{"n":3,"m":4}')
    # A zero coefficient row: before, it was dropped, and the pair read as a
    # MISMATCH with no line saying why.
    data = json.loads((bad / "4_5.json").read_text())
    data["terms"].append([0, 1, 0, "0"])
    (bad / "4_5.json").write_text(json.dumps(data, separators=(",", ":")))
    # A coefficient spelled otherwise than the writer spells it: before, "1_1"
    # read as 11, the row's true value, and the MISMATCH had no line saying why.
    spelled = json.loads((bad / "5_8.json").read_text())
    assert spelled["terms"][102][3] == "11"
    spelled["terms"][102][3] = "1_1"
    (bad / "5_8.json").write_text(json.dumps(spelled, separators=(",", ":")))
    code, out, _ = run(capsys, "verify", "corpus", "--fixtures", str(bad))
    assert code == 1
    lines = out.splitlines()
    at = lines.index("(2,5) MISMATCH")
    assert lines[at + 1].startswith("  unreadable fixture: Expecting value")
    at = lines.index("(3,4) MISMATCH")
    assert lines[at + 1] == "  unreadable fixture: JSON object has no 'terms' field"
    at = lines.index("(4,5) MISMATCH")
    rows = len(data["terms"])
    assert lines[at + 1] == f"  unreadable fixture: term row {rows - 1} coefficient must be nonzero, got '0'"
    at = lines.index("(5,8) MISMATCH")
    assert lines[at + 1] == "  unreadable fixture: term row 102 coefficient must be written '11', got '1_1'"
    assert len(lines) == 19 and sum(line.endswith(" ok") for line in lines) == 11


def test_verify_corpus_says_why_equal_terms_mismatch(tmp_path, capsys):
    # Before, each of these printed a bare MISMATCH: the terms read back
    # equal to the computed ones, and only the bytes differ from the writer's.
    bad = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, bad)
    text = (bad / "5_8.json").read_text()
    data = json.loads(text)
    data["terms"][102][3] = 11  # an integer, not the string "11"
    written = json.dumps(data, separators=(",", ":")) + "\n"
    (bad / "5_8.json").write_text(written)
    integer_at = next(i for i, (x, y) in enumerate(zip(text, written)) if x != y)
    assert text[integer_at - 1:integer_at + 3] == ',"11'
    data = json.loads((bad / "2_3.json").read_text())
    (bad / "2_3.json").write_text(json.dumps(dict(reversed(data.items())), separators=(",", ":")))
    # A space after the first colon, and two leading spaces: offsets count in the file.
    text = (bad / "3_4.json").read_text()
    (bad / "3_4.json").write_text("  " + text.replace(":", ": ", 1))
    code, out, _ = run(capsys, "verify", "corpus", "--fixtures", str(bad))
    assert code == 1
    lines = out.splitlines()
    detail = "  terms agree, but the fixture's bytes differ from the canonical JSON at byte"
    for pair, at in (("(2,3)", 2), ("(3,4)", 7), ("(5,8)", integer_at)):
        assert lines[lines.index(f"{pair} MISMATCH") + 1] == f"{detail} {at}"
    assert len(lines) == 18 and sum(line.endswith(" ok") for line in lines) == 12


def test_verify_corpus_missing_fixture(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "corpus", "--fixtures", str(tmp_path / "nowhere"))
    assert code == 3
    assert "missing fixture" in err


def test_verify_oracle_small(capsys):
    # The whole suite in order, so a check relabelled or moved shows.
    code, out, _ = run(capsys, "verify", "oracle", "--max-size", "2")
    assert code == 0
    assert out.splitlines() == [
        "ok orthogonality degree 1",
        "ok power-sum expansion degree 1",
        "ok orthogonality degree 2",
        "ok power-sum expansion degree 2",
        "ok principal specialization (1,)",
        "ok expansion limit (1,)",
        "ok schur degeneration (1,)",
        "ok principal specialization (2,)",
        "ok expansion limit (2,)",
        "ok schur degeneration (2,)",
        "ok principal specialization (1, 1)",
        "ok expansion limit (1, 1)",
        "ok schur degeneration (1, 1)",
        "ok kernel identity order 1",
        "ok kernel identity order 1, principal L=5",
        "ok kernel identity order 2",
        "ok kernel identity order 2, principal L=5",
    ]


def test_verify_oracle_names_a_raising_check(monkeypatch, capsys):
    from torus_super import oracle

    def capped(n):
        raise ArithmeticError("heuristic gcd: no certified gcd within 16 evaluation points")

    monkeypatch.setattr(oracle, "verify_orthogonality", capped)
    code, out, err = run(capsys, "verify", "oracle", "--max-size", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "FAIL orthogonality degree 1: heuristic gcd: no certified gcd within 16 evaluation points"
    )
    assert sum(line.startswith("FAIL ") for line in lines) == 2
    assert "ok power-sum expansion degree 1" in lines
    assert "Traceback" not in err


def test_genfun_json(capsys):
    code, out, _ = run(capsys, "genfun", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["r"] == 1
    assert [0, 0, 0] in payload["denominator"]
    assert [0, 4, 2] in payload["denominator"]


def test_specialize(capsys):
    code, out, _ = run(capsys, "specialize", "2", "3", "--at", "jones")
    assert code == 0
    assert out == "1 + q^4 - q^6\n"
    code, out, _ = run(capsys, "specialize", "2", "3", "--at", "homfly")
    assert out == "1 + q^4 - a^2*q^2\n"
    code, _, err = run(capsys, "specialize", "2", "4", "--at", "homfly")
    assert code == 5
    assert (
        "gcd(2,4) = 2; multiply-back check failed: "
        "T*D - N has lowest term -1 at (a, q, t) = (0, 6, -10)"
    ) in err


def test_scan_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "scan", "--n-max", "3", "--m-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,gcd,status,a_max,q_max,t_max,term_count,millis"
    assert any(line.startswith("2,4,2,nonpolynomial,") for line in lines)
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "scan", "--n-max", "3", "--m-max", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == lines[0]


def test_scan_unwritable_output(tmp_path, capsys):
    code, _, err = run(
        capsys, "scan", "--n-max", "2", "--m-max", "3",
        "--out", str(tmp_path / "no" / "dir" / "report.csv"),
    )
    assert code == 3
    assert "cannot write" in err


def test_cache_round_trip_and_corruption_recovery(tmp_path, capsys):
    cache = tmp_path / "cache"
    first = run(capsys, "compute", "2", "7", "--json")
    entries = list(cache.glob("2_7_*.json"))
    assert len(entries) == 1
    assert run(capsys, "compute", "2", "7", "--json") == first
    entries[0].write_text("{ not json")
    assert run(capsys, "compute", "2", "7", "--json") == first


def test_cached_compute_keeps_content(tmp_path):
    want = compute(3, 4)
    assert want.content != (0, 0, 0)
    miss = cli.cached_compute(3, 4)
    hit = cli.cached_compute(3, 4)
    for got in (miss, hit):
        assert (got.terms, got.content, got.flags) == (want.terms, want.content, want.flags)
    # An entry in the bare canonical form has no content field: a miss.
    (entry,) = (tmp_path / "cache").glob("3_4_*.json")
    entry.write_text(superpolynomial_to_json(want) + "\n")
    assert cli.cached_compute(3, 4).content == want.content
    assert "content" in json.loads(entry.read_text())


def test_cached_compute_rejects_a_non_integer_content(tmp_path):
    # Before the check, int() read 1.5 above each exponent back as 1 or 2 above it.
    want = compute(3, 4)
    cli.cached_compute(3, 4)
    (entry,) = (tmp_path / "cache").glob("3_4_*.json")
    stored = json.loads(entry.read_text())
    stored["content"] = [x + 1.5 for x in stored["content"]]
    entry.write_text(json.dumps(stored))
    assert cli.cached_compute(3, 4).content == want.content
    assert json.loads(entry.read_text())["content"] == list(want.content)


@pytest.mark.parametrize("cut", [slice(0, 2), slice(0, 0)], ids=["two", "none"])
def test_cached_compute_rejects_a_short_content(tmp_path, cut):
    # Before the check, the (3,4) entry cut to two values returned content (0, -2).
    want = compute(3, 4)
    cli.cached_compute(3, 4)
    (entry,) = (tmp_path / "cache").glob("3_4_*.json")
    stored = json.loads(entry.read_text())
    stored["content"] = stored["content"][cut]
    entry.write_text(json.dumps(stored))
    assert cli.cached_compute(3, 4).content == want.content
    assert json.loads(entry.read_text())["content"] == list(want.content)


def test_cached_compute_rejects_another_knots_entry(tmp_path):
    cli.cached_compute(2, 3)
    (entry,) = (tmp_path / "cache").glob("2_3_*.json")
    moved = entry.with_name(entry.name.replace("2_3_", "3_4_", 1))
    shutil.copy(entry, moved)
    got = cli.cached_compute(3, 4)
    want = compute(3, 4)
    assert (got.n, got.m) == (3, 4)
    assert (got.terms, got.content) == (want.terms, want.content)
    # The wrong entry was overwritten by the recomputed one.
    assert json.loads(json.loads(moved.read_text())["superpolynomial"])["m"] == 4


def test_module_entry_point(tmp_path):
    # An empty PATH shows the module runs without the console script; the
    # child imports the same checkout as this process, installed or not.
    package_root = str(Path(torus_super.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torus_super", "compute", "2", "3"],
        capture_output=True,
        text=True,
        env={
            "PATH": "",
            "PYTHONPATH": pythonpath,
            "TORUS_SUPER_CACHE": str(tmp_path / "cache"),
        },
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("P(2,3) = ")


def test_import_loads_neither_dataclasses_nor_hashlib():
    # Every command starts a fresh interpreter: dataclasses would load inspect,
    # ast and dis with it, hashlib OpenSSL's libcrypto, and tempfile shutil,
    # random, bz2 and lzma.
    package_root = str(Path(torus_super.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import torus_super, torus_super.cli; "
        "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib', 'tempfile'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, package_root],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_code_version_reads_the_sources_once(monkeypatch):
    first = cli._code_version()

    def refuse(path):
        raise AssertionError(f"read {path} again")

    monkeypatch.setattr(Path, "read_bytes", refuse)
    cli.cached_compute(2, 3)
    assert cli._code_version() == first


def test_code_version_hashes_every_module(monkeypatch):
    read = []
    real = Path.read_bytes

    def record(path):
        read.append(path)
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", record)
    cli._code_version.__wrapped__()
    package = Path(cli.__file__).parent
    assert read == sorted(package.glob("*.py"))
    assert {path.name for path in read} >= {"cli.py", "invariant.py", "oracle.py", "algebra.py"}


def test_cached_compute_removes_its_temp_file_on_a_failed_write(tmp_path, monkeypatch):
    def full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full)
    assert cli.cached_compute(2, 3).terms == compute(2, 3).terms
    assert list((tmp_path / "cache").iterdir()) == []
