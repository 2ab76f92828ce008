"""Command-line interface: formats, batch runs, exit codes, caps."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsim import analysis, cli, ehrhart, linalg, simplex as splx
from lapsim.errors import InternalInconsistencyError, LapsimError
from lapsim.graph import FAMILIES, MAX_N, Graph, family
from oracles import narrow_group_packing, write_edge_list


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


# -- report ------------------------------------------------------------------


def test_report_json_cycle5():
    code, text = run(["--family", "cycle", "--n", "5", "report"])
    assert code == 0
    d = json.loads(text)
    assert d["graph"]["n"] == 5
    assert d["kappa"] == 5 and d["volume"] == 25
    assert d["hstar"] == [1, 1, 21, 1, 1]
    assert d["strategy"] == "cycle_closed_form"
    assert d["reflexive"] is True and d["symmetric"] is True
    assert d["ell"] == 1 and d["idp"] is False


def test_report_text_format():
    code, text = run(["--family", "path", "--n", "3", "--format", "text", "report"])
    assert code == 0
    assert "kappa       1" in text
    assert "volume      3" in text
    assert "reflexive   True" in text


def test_report_text_notes_are_one_joined_line():
    argv = ["--family", "cycle", "--n", "6", "--fpp-cap", "1", "--format", "text", "report"]
    code, text = run(argv)
    assert code == 0
    (notes,) = [line for line in text.splitlines() if line.startswith("notes")]
    assert notes.count("cap is 1") == 2 and "; idp skipped" in notes
    assert "[" not in notes and "'" not in notes


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "cycle", "--n", "6", "--format", "json", "batch"],
        ["--family", "cycle", "--n", "6", "--format", "text", "batch"],
        ["--family", "cycle", "--n", "6", "--fpp-cap", "-3", "report"],
        ["--family", "cycle", "--n", "6", "--count", "0", "batch"],
        ["--family", "cycle", "--n-range", "9:3", "batch"],
        ["--edge-list", "EDGES", "--n-range", "3:5", "batch"],
        ["--edge-list", "EDGES", "--n", "5", "report"],
        ["--family", "cycle", "--n", "5", "--n-range", "3:4", "batch"],
        ["--family", "cycle", "--n", "5", "--n-range", "3:4", "report"],
        ["--n-range", "3:4", "verify-paper"],
        ["verify-paper", "--only", "nomatch"],
        ["--family", "cycle", "--n", "5", "--count", "3", "--format", "csv", "report"],
        ["--edge-list", "EDGES", "verify-paper", "--only", "C5"],
        ["--family", "cycle", "verify-paper", "--only", "C5"],
        ["--n", "5", "verify-paper", "--only", "C5"],
        ["--seed", "3", "verify-paper", "--only", "C5"],
        ["--whisker", "verify-paper", "--only", "C5"],
        ["--bridge-with", "cycle:3", "verify-paper", "--only", "C5"],
        ["--attach-path", "1:2", "verify-paper", "--only", "C5"],
        ["--strategy", "generic_snf", "verify-paper", "--only", "C5"],
        ["--fpp-cap", "0", "verify-paper", "--only", "C5"],
        ["--format", "csv", "verify-paper", "--only", "C5"],
        # an unread option is refused at its default value too
        ["--seed", "0", "verify-paper", "--only", "C5"],
        ["--fpp-cap", str(ehrhart.DEFAULT_FPP_CAP), "verify-paper", "--only", "C5"],
        ["--family", "cycle", "--n", "5", "--count", "1", "report"],
        # --seed and --count are read only with --family random_tree
        ["--family", "cycle", "--n", "5", "--seed", "7", "report"],
        ["--edge-list", "EDGES", "--seed", "2", "report"],
        ["--family", "cycle", "--n", "5", "--count", "3", "batch"],
        ["--edge-list", "EDGES", "--count", "2", "batch"],
        # a --bridge-with spec takes a seed for random_tree only
        ["--family", "cycle", "--n", "5", "--bridge-with", "cycle:5:9", "report"],
        # a malformed value exits before batch writes any row, the header included
        ["--family", "cycle", "--n", "5", "--attach-path", "x", "batch"],
        ["--family", "cycle", "--n", "5", "--bridge-with", "cycle:x", "batch"],
        ["--family", "cycle", "--n", "5", "--bridge-with", "/nonexistent/g.txt", "batch"],
        # an empty value is given, not absent
        ["--family", "cycle", "--n", "5", "--attach-path", "", "report"],
        ["--family", "cycle", "--n", "5", "--bridge-with", "", "report"],
    ],
)
def test_ignored_or_meaningless_option_values_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "g.txt"  # a real file, so that only the option is at fault
    write_edge_list(family("path", 3), path)
    code, text = run([str(path) if arg == "EDGES" else arg for arg in argv])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_csv_format():
    code, text = run(["--family", "cycle", "--n", "4", "--format", "csv", "report"])
    assert code == 0
    header, row = text.strip().splitlines()
    assert header == cli.CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "4" and fields[1] == "4" and fields[2] == "16"
    assert fields[3].count(";") == 3  # h* joined by semicolons


def test_csv_rows_keep_commas_in_their_field():
    # notes and error messages hold commas: each row must still parse to 10 fields
    for argv in (
        ["--family", "cycle", "--n", "6", "--fpp-cap", "1", "--format", "csv", "report"],
        ["--family", "complete", "--n-range", f"{MAX_N + 100}:{MAX_N + 100}", "batch"],
    ):
        code, text = run(argv)
        assert code == 0
        header, row = csv.reader(io.StringIO(text))
        assert ",".join(header) == cli.CSV_HEADER
        assert len(row) == 10 and "," in row[-1], row


def test_inconsistent_hstar_exits_3(monkeypatch, capsys):
    # an h* that does not start with 1 is a bug, not bad input
    count = ehrhart.count_dilate_points
    monkeypatch.setattr(
        ehrhart, "count_dilate_points", lambda S, t, **kw: count(S, t, **kw) + (t == 0)
    )
    for command in ("report", "batch"):
        code, text = run(
            ["--family", "cycle", "--n", "4", "--strategy", "dilate_interpolation", command]
        )
        assert code == cli.EXIT_INCONSISTENT
        assert "error" not in text
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: ") and err.count("\n") == 1


def test_hibi_disagreement_exits_3(monkeypatch, capsys):
    # symmetric h* with a non-reflexive simplex contradicts Hibi's theorem
    reflexive = splx.is_reflexive
    monkeypatch.setattr(splx, "is_reflexive", lambda S: not reflexive(S))
    with pytest.raises(InternalInconsistencyError, match="h\\* symmetry disagrees"):
        analysis.analyze(family("cycle", 5))
    code, text = run(["--family", "cycle", "--n", "5", "report"])
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: h* symmetry") and err.count("\n") == 1


def test_report_strategy_override():
    code, text = run(
        ["--family", "cycle", "--n", "5", "--strategy", "generic_snf", "report"]
    )
    assert code == 0
    assert json.loads(text)["strategy"] == "generic_snf"


def test_report_edge_list_input(tmp_path):
    path = tmp_path / "c5.txt"
    write_edge_list(family("cycle", 5), path)
    code, text = run(["--edge-list", str(path), "report"])
    assert code == 0
    assert json.loads(text)["volume"] == 25


def test_report_operations():
    code, text = run(["--family", "cycle", "--n", "4", "--whisker", "report"])
    assert code == 0
    d = json.loads(text)
    assert d["graph"]["n"] == 8 and d["reflexive"] is True

    code, text = run(
        ["--family", "cycle", "--n", "3", "--bridge-with", "complete:3", "report"]
    )
    assert code == 0
    assert json.loads(text)["reflexive"] is True

    code, text = run(["--family", "cycle", "--n", "3", "--attach-path", "1:2", "report"])
    assert code == 0
    assert json.loads(text)["graph"]["n"] == 5


def test_bridge_with_random_tree_defaults_to_seed_0():
    argv = ["--family", "path", "--n", "5", "--bridge-with", "random_tree:5", "report"]
    runs = [json.loads(run(argv)[1])["graph"]["edges"] for _ in range(2)]
    seeded = json.loads(run(argv[:5] + ["random_tree:5:0", "report"])[1])["graph"]["edges"]
    assert runs == [seeded, seeded]


def test_batch_reads_the_bridge_with_file_once(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    write_edge_list(family("cycle", 4), path)
    argv = ["--family", "random_tree", "--n", "4", "--bridge-with", str(path)]
    reports = [run(argv + ["--seed", str(seed), "--format", "csv", "report"])[1] for seed in range(3)]
    calls = []
    read = cli.graphs.read_edge_list
    monkeypatch.setattr(cli.graphs, "read_edge_list", lambda p: calls.append(p) or read(p))
    code, text = run(argv + ["--count", "3", "batch"])
    assert code == 0 and calls == [str(path)]
    assert text.splitlines() == [cli.CSV_HEADER] + [r.splitlines()[1] for r in reports]


# -- batch -------------------------------------------------------------------


def test_batch_range():
    code, text = run(
        ["--family", "cycle", "--n-range", "3:6", "--format", "csv", "batch"]
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 5
    assert [ln.split(",")[0] for ln in lines[1:]] == ["3", "4", "5", "6"]


def test_batch_deterministic():
    argv = ["--family", "random_tree", "--n", "6", "--count", "3", "--seed", "9", "batch"]
    _, a = run(argv)
    _, b = run(argv)
    assert a == b


def test_batch_needs_a_target():
    code, _ = run(["--family", "cycle", "batch"])
    assert code == 2


def test_batch_keeps_input_errors_in_their_row():
    code, text = run(["--family", "cycle", "--n-range", "2:4", "batch"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[1].startswith("2,,,,,,,,,error: ")
    assert [ln.split(",")[0] for ln in lines[2:]] == ["3", "4"]


def test_batch_exits_3_on_a_corrupted_walk(monkeypatch, capsys):
    monkeypatch.setattr(linalg, "group_packing", narrow_group_packing)
    code, text = run(["--family", "cycle", "--n-range", "6:6", "batch"])
    assert code == cli.EXIT_INCONSISTENT
    assert "error" not in text
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: ") and err.count("\n") == 1


# -- verify-paper ------------------------------------------------------------


def test_verify_paper_passes():
    code, text = run(["verify-paper"])
    assert code == 0
    lines = text.strip().splitlines()
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1] == "21/21 checks passed"


def test_verify_paper_only():
    code, text = run(["verify-paper", "--only", "trees"])
    assert code == 0
    assert "trees/hstar-all-ones" in text
    assert "complete/reflexive" not in text


def test_verify_paper_reports_failures_and_exits_1(monkeypatch):
    def boom():
        raise ZeroDivisionError("boom")

    claims = {"test/passes": lambda: True, "test/raises": boom, "test/fails": lambda: False}
    monkeypatch.setattr(analysis, "PAPER_CLAIMS", claims)
    code, text = run(["verify-paper"])
    assert code == cli.EXIT_REGRESSION
    assert text.splitlines() == [
        "PASS  test/passes",
        "FAIL  test/raises  (error: ZeroDivisionError('boom'))",
        "FAIL  test/fails",
        "1/3 checks passed",
    ]


def _readme_cli_lines():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("lapsim ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_exit_0(line, tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(family("cycle", 5), path)
    argv = [str(path) if arg == "graph.txt" else arg for arg in shlex.split(line)[1:]]
    assert run(argv)[0] == 0


# -- errors and environment --------------------------------------------------


def test_missing_input_is_exit_2():
    assert run(["report"])[0] == 2
    assert run(["--family", "cycle", "report"])[0] == 2  # no --n


def test_conflicting_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    write_edge_list(family("path", 3), path)
    code, _ = run(["--edge-list", str(path), "--family", "cycle", "--n", "3", "report"])
    assert code == 2
    # without --n, the check of the two inputs answers
    code, _ = run(["--edge-list", str(path), "--family", "cycle", "report"])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "\nerror: give exactly one of --edge-list and --family\n"
    )


def test_batch_of_an_edge_list_writes_the_report_row(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(family("cycle", 5), path)
    code, text = run(["--edge-list", str(path), "batch"])
    assert code == 0
    assert text == run(["--edge-list", str(path), "--format", "csv", "report"])[1]
    assert text.splitlines()[0] == cli.CSV_HEADER and len(text.splitlines()) == 2


def test_missing_file_exit_2():
    assert run(["--edge-list", "/nonexistent/g.txt", "report"])[0] == 2


def test_bad_values_exit_2():
    assert run(["--family", "cycle", "--n", "2", "report"])[0] == 2
    assert run(["--family", "cycle", "--n-range", "3-6", "batch"])[0] == 2
    assert run(["--family", "cycle", "--n", "4", "--attach-path", "x", "report"])[0] == 2
    assert run(["--family", "cycle", "--n", "3", "--bridge-with", "a:b:c:d", "report"])[0] == 2


def test_non_integer_bridge_spec_exit_2(capsys):
    code, _ = run(["--family", "cycle", "--n", "3", "--bridge-with", "cycle:x", "report"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_ascii_edge_list_exit_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes("3 2\n1 2\n2 3 \u00e9\n".encode("utf-8"))
    code, _ = run(["--edge-list", str(path), "report"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_disconnected_huge_header_exit_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("1000000000 0\n")
    code, _ = run(["--edge-list", str(path), "report"])
    assert code == 2
    err = capsys.readouterr().err
    # the size bound answers first; test_graph covers the connectivity guard
    assert err.startswith("error: edge-list size n = 1000000000") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "complete", "--n", "1000000000", "report"],
        ["--family", "path", "--n", "3", "--bridge-with", "complete:1000000000", "report"],
    ],
)
def test_huge_family_exit_2(argv, capsys):
    code, _ = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: family size n = 1000000000") and err.count("\n") == 1


# no digits, so a drawn size is never an int and family() never builds a big graph
_junk = st.text(alphabet="x-+_.: ", max_size=3)
_family_specs = st.builds(
    lambda kind, n, rest: ":".join([kind, n, *rest]),
    st.sampled_from(FAMILIES + ("wheel", "")),
    st.integers(-3, 30).map(str) | _junk,
    st.lists(st.integers(-5, 2**40).map(str) | _junk, max_size=2),
)


# free text naming a family could ask for any size, so families come from above
_free_specs = st.text(max_size=20).filter(lambda spec: spec.split(":")[0] not in FAMILIES)


@settings(max_examples=100, deadline=None)
@given(_family_specs | _free_specs)
def test_parse_graph_spec_fuzz(spec):
    # a spec without a colon is read as a path, so OSError is a valid answer
    try:
        G = cli._parse_graph_spec(spec)
    except (LapsimError, OSError):
        return
    assert isinstance(G, Graph)


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "path", "--n", str(MAX_N // 2 + 1), "--whisker", "report"],
        ["--family", "path", "--n", str(MAX_N // 2 + 1), "--bridge-with", f"path:{MAX_N // 2 + 1}"]
        + ["report"],
        ["--family", "path", "--n", "3", "--attach-path", f"1:{MAX_N - 2}", "report"],
        ["--family", "path", "--n", "3", "--attach-path", "1:1000000000", "report"],
    ],
)
def test_operation_results_above_the_bound_exit_2(argv, capsys):
    code, _ = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"above the largest supported n, {MAX_N}" in err
    assert err.count("\n") == 1


def test_edge_list_above_the_bound_exit_2(tmp_path, capsys):
    # a path on MAX_N + 1 vertices: connected, refused right after its header
    n = MAX_N + 1
    path = tmp_path / "g.txt"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    code, _ = run(["--edge-list", str(path), "report"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: edge-list size n = {n}") and err.count("\n") == 1


def test_parser_is_built_once_and_reused():
    cli.build_parser.cache_clear()
    argv = ["--family", "cycle", "--n", "6", "report"]
    first = run(argv)
    with pytest.raises(SystemExit) as exc:
        run(["--family", "cycle", "--n", "6", "--no-such-flag", "report"])
    assert exc.value.code == 2
    assert run(argv) == first and first[0] == 0
    # the options are still read on every call
    assert json.loads(run(argv[:-1] + ["--fpp-cap", "1", "report"])[1])["hstar"] is None
    assert cli.build_parser.cache_info().misses == 1


def test_parser_is_not_built_at_import():
    code = "import lapsim.cli as c; print(c.build_parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cap_flag_softens_to_null_fields():
    for cap in ("1", "0"):  # a cap of 0 is valid: it walks nothing
        code, text = run(["--family", "cycle", "--n", "6", "--fpp-cap", cap, "report"])
        assert code == 0
        d = json.loads(text)
        assert d["hstar"] is None and d["symmetric"] is None and d["idp"] is None
        assert d["notes"]


def test_removed_idp_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--family", "cycle", "--n", "6", "--idp-cap", "5", "report"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.analysis, "analyze", boom)
    code, _ = run(["--family", "cycle", "--n", "5", "report"])
    assert code == cli.EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "boom" in err
