import json
import os
import subprocess
import sys
import tomllib
from importlib import import_module
from pathlib import Path

import pytest

from zerofiber import cli
from zerofiber.cli import main
from zerofiber.groebner import GroebnerBasis
from zerofiber.groups import GroupSpec
from zerofiber.mckay import dot_export

REPO = Path(__file__).resolve().parents[1]


def test_report_prints_the_numerology_as_json(capsys):
    assert main(["report", "bt", "comm", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["gamma"], out["delta"], out["n"]) == ("bt", "comm", 2)
    assert (out["N"], out["Nstar"], out["count_a"], out["count_b"]) == (38, 26, 24, 14)
    assert (out["g"], out["h"], out["k"]) == ("38", "32", "26")
    assert out["integral"] == {"g": True, "h": True, "k": True}
    assert out["irreducible"] is True
    seconds = out["stage_seconds"]
    assert list(seconds) == ["reflections", "hyperplanes", "irreducibility"]
    assert all(s >= 0 for s in seconds.values())


def test_report_of_a_reducible_module(capsys):
    main(["report", "cyclic:1", "whole", "2"])
    out = json.loads(capsys.readouterr().out)
    assert out["irreducible"] is False and out["k"] == "1"


@pytest.mark.parametrize("argv", [["report", "bt", "nosuch", "2"],
                                  ["report", "cyclic:0", "whole", "2"],
                                  ["report", "bt", "whole", "0"],
                                  ["report", "bt", "gens:1,x", "2"],
                                  ["report", "bi", "comm", "-1"]])
def test_bad_input_is_rejected_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zerofiber: error:" in err and "invalid literal" not in err
    assert f"zerofiber: error: report {' '.join(argv[1:])}: " in err
    if int(argv[3]) < 1:
        assert f"n must be at least 1, got {argv[3]}" in err


def test_an_out_of_range_generator_index_is_rejected_naming_the_group(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "bt", "gens:-1", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "subgroup spec 'gens:-1' of bt" in err and "[0, 24)" in err


def test_oversized_conductor_is_rejected_before_the_group_is_built(capsys, monkeypatch):
    def no_build(spec):
        raise AssertionError(f"build_group ran on {spec}")

    monkeypatch.setattr(cli, "build_group", no_build)
    with pytest.raises(SystemExit) as exc:
        main(["report", "cyclic:10001", "whole", "1"])
    assert exc.value.code == 2
    assert "cyclic:10001" in capsys.readouterr().err


def test_appendix_prints_the_verdicts_as_json(capsys):
    assert main(["appendix", "bi", "whole", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["gamma"], out["delta"], out["n"]) == ("bi", "whole", 3)
    assert (out["N"], out["Nstar"], out["k"], out["irreducible"]) == (717, 363, "242", True)
    assert out["verdicts"] == {"trace_identity": "pass", "f_operator": "pass",
                               "pairing_sum": "pass", "k_identity": "pass"}
    seconds = out["stage_seconds"]
    assert list(seconds) == ["reflections", "hyperplanes", "irreducibility", "identities"]
    assert all(s >= 0 for s in seconds.values())


def test_appendix_of_a_reducible_module(capsys):
    assert main(["appendix", "cyclic:1", "comm", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["irreducible"] is False
    assert out["verdicts"] == {"trace_identity": "pass", "f_operator": "fail(reducible)",
                               "pairing_sum": "fail(reducible)",
                               "k_identity": "fail(reducible)"}


@pytest.mark.parametrize("argv", [["appendix", "bt", "nosuch", "2"],
                                  ["appendix", "cyclic:0", "whole", "2"],
                                  ["appendix", "bt", "whole", "0"],
                                  ["appendix", "bt", "gens:1,x", "2"]])
def test_appendix_rejects_bad_input_with_the_report_prefix(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"zerofiber: error: appendix {' '.join(argv[1:])}: " in err
    assert "invalid literal" not in err


def test_ledger_prints_the_zero_fibre_and_its_certificates(capsys):
    assert main(["ledger", "bi"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["gamma"], out["order"], out["zero_fiber_degree"]) == ("bi", 120, 239)
    assert out["ledger"] == {"bi:g1": "verified", "bi:g2": "verified", "bi:g3": "corrected",
                             "bi:g4": "corrected", "bi:h1": "verified", "bi:h2": "corrected",
                             "bi:g5": "verified", "bi:S-leads": "verified"}
    assert out["certificate"] == {"hsop_degrees": [12, 20], "d_c": 30, "s": 2}
    assert out["verify"] == "pass"
    seconds = out["stage_seconds"]
    assert list(seconds) == ["closure", "invariants", "certificate", "basis", "zero_fiber",
                             "ledger", "verify"]
    assert all(s >= 0 for s in seconds.values())


def test_ledger_of_a_cyclic_group(capsys):
    assert main(["ledger", "cyclic:5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zero_fiber_degree"] == 9 and out["ledger"] == {"cyclic:span": "verified"}
    assert out["certificate"] == {"hsop_degrees": [5, 5], "d_c": 2, "s": 5}


def test_ledger_reports_a_failed_verification(capsys, monkeypatch):
    def broken(self):
        raise AssertionError("cofactor certificate mismatch")

    monkeypatch.setattr(GroebnerBasis, "verify", broken)
    assert main(["ledger", "bt"]) == 1
    assert json.loads(capsys.readouterr().out)["verify"] == "fail: cofactor certificate mismatch"


@pytest.mark.parametrize("spec", ["nosuch", "cyclic:0", "bd:x", "cyclic:"])
def test_ledger_rejects_a_bad_spec_naming_it(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ledger", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "zerofiber: error:" in err and f"ledger {spec}" in err
    assert "invalid literal" not in err


def test_tables_prints_the_character_table_and_mckay_graph(capsys):
    assert main(["tables", "bt"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["gamma"], out["order"], out["conductor"]) == ("bt", 24, 24)
    assert sum(out["class_sizes"]) == 24 and len(out["class_sizes"]) == 7
    assert len(out["characters"]) == 7 and all(len(row) == 7 for row in out["characters"])
    assert out["characters"][0] == ["1"] * 7
    assert sorted(row[0] for row in out["characters"]) == ["1", "1", "1", "2", "2", "2", "3"]
    graph = out["mckay"]
    assert graph["affine_type"] == "E6(1)" and sorted(graph["dims"]) == [1, 1, 1, 2, 2, 2, 3]
    assert [sum(row) for row in graph["adjacency"]].count(3) == 1  # the branch vertex
    assert graph["linear_vertices"] == [i for i, d in enumerate(graph["dims"]) if d == 1]
    seconds = out["stage_seconds"]
    assert list(seconds) == ["closure", "table", "mckay_graph"]
    assert all(s >= 0 for s in seconds.values())


def test_tables_of_the_trivial_group(capsys):
    assert main(["tables", "cyclic:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["characters"] == [["1"]]
    assert out["mckay"] == {"affine_type": "A0(1)", "dims": [1], "adjacency": [[2]],
                            "linear_vertices": [0]}


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:5", "bd:3", "bi"])
def test_tables_dot_prints_the_dot_export(spec, capsys):
    assert main(["tables", spec, "--dot"]) == 0
    assert capsys.readouterr().out == dot_export(GroupSpec.parse(spec))


@pytest.mark.parametrize("argv", [["tables", "nosuch"], ["tables", "cyclic:0", "--dot"],
                                  ["tables", "bd:x"], ["tables", "cyclic:10001"]])
def test_tables_rejects_a_bad_spec_naming_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"zerofiber: error: tables {argv[1]}: " in err
    assert "invalid literal" not in err


def test_console_script_entry_point(capsys):
    with (REPO / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zerofiber"]
    module, _, attr = target.partition(":")
    entry = getattr(import_module(module), attr)
    assert entry(["report", "bt", "comm", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 38


def test_module_runs_as_a_command():
    proc = subprocess.run(
        [sys.executable, "-m", "zerofiber.cli", "report", "bt", "comm", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["gamma"], out["delta"], out["n"]) == ("bt", "comm", 2)
    assert (out["N"], out["Nstar"], out["g"], out["irreducible"]) == (38, 26, "38", True)
