import json

import pytest

from zerofiber.cli import main


def test_report_prints_the_numerology_as_json(capsys):
    assert main(["report", "bt", "comm", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["gamma"], out["delta"], out["n"]) == ("bt", "comm", 2)
    assert (out["N"], out["Nstar"], out["count_a"], out["count_b"]) == (38, 26, 24, 14)
    assert (out["g"], out["h"], out["k"]) == ("38", "32", "26")
    assert out["integral"] == {"g": True, "h": True, "k": True}
    assert out["irreducible"] is True
    seconds = out["stage_seconds"]
    assert list(seconds) == ["reflections", "confirmation", "hyperplanes", "irreducibility"]
    assert all(s >= 0 for s in seconds.values())


def test_report_of_a_reducible_module(capsys):
    main(["report", "cyclic:1", "whole", "2"])
    out = json.loads(capsys.readouterr().out)
    assert out["irreducible"] is False and out["k"] == "1"


@pytest.mark.parametrize("argv", [["report", "bt", "nosuch", "2"],
                                  ["report", "cyclic:0", "whole", "2"],
                                  ["report", "bt", "whole", "0"]])
def test_bad_input_is_rejected_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "zerofiber: error:" in capsys.readouterr().err
