"""Command-line interface: formats, batch runs, exit codes, env overrides."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsim import cli
from lapsim.errors import LapsimError
from lapsim.graph import FAMILIES, Graph, family, write_edge_list


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


def test_report_csv_format():
    code, text = run(["--family", "cycle", "--n", "4", "--format", "csv", "report"])
    assert code == 0
    header, row = text.strip().splitlines()
    assert header == cli.CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "4" and fields[1] == "4" and fields[2] == "16"
    assert fields[3].count(";") == 3  # h* joined by semicolons


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


# -- verify-paper ------------------------------------------------------------


def test_verify_paper_passes():
    code, text = run(["verify-paper"])
    assert code == 0
    lines = text.strip().splitlines()
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1] == "20/20 checks passed"


def test_verify_paper_only():
    code, text = run(["verify-paper", "--only", "trees"])
    assert code == 0
    assert "trees/hstar-all-ones" in text
    assert "complete/reflexive" not in text


# -- errors and environment --------------------------------------------------


def test_missing_input_is_exit_2():
    assert run(["report"])[0] == 2
    assert run(["--family", "cycle", "report"])[0] == 2  # no --n


def test_conflicting_inputs_exit_2(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(family("path", 3), path)
    code, _ = run(["--edge-list", str(path), "--family", "cycle", "--n", "3", "report"])
    assert code == 2


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
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_cap_flag_softens_to_null_fields():
    code, text = run(["--family", "cycle", "--n", "6", "--fpp-cap", "1", "report"])
    assert code == 0
    d = json.loads(text)
    assert d["hstar"] is None and d["symmetric"] is None
    assert d["notes"]


def test_env_var_caps(monkeypatch):
    monkeypatch.setenv("LAPSIM_FPP_CAP", "1")
    code, text = run(["--family", "cycle", "--n", "6", "report"])
    assert code == 0
    d = json.loads(text)
    assert d["hstar"] is None and d["idp"] is None


def test_removed_idp_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["--family", "cycle", "--n", "6", "--idp-cap", "5", "report"])
    assert exc.value.code == 2


def test_env_var_invalid(monkeypatch):
    monkeypatch.setenv("LAPSIM_FPP_CAP", "lots")
    code, _ = run(["--family", "cycle", "--n", "5", "report"])
    assert code == 2


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.analysis, "analyze", boom)
    code, _ = run(["--family", "cycle", "--n", "5", "report"])
    assert code == cli.EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "boom" in err
