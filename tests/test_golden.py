"""Golden text output of the commands that print the closed-form, defect,
cluster, summability and estimate records, pinned byte for byte (less the
`elapsed=` line) on one generated girth-5 instance, so that reshaping those
records cannot change what the CLI prints.  To re-record after an intended
output change, run each command on the instance and drop the `elapsed=`
line.  On the same instance, `compare --t 2` must report the size-2 closed
form that `closed-form --t 2` prints."""

from pathlib import Path

import pytest

from hypercount.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# expected-output file name -> the command and its arguments past the input
COMMANDS = {
    "closed-form-t1": ("closed-form", "--t", "1"),
    "closed-form-t2": ("closed-form", "--t", "2"),
    "defect-count": ("defect-count", "--class", "0", "--b", "1"),
    "clusters": ("clusters", "--class", "0", "--t", "2"),
    "kp-check": ("kp-check", "--class", "0", "--b", "2"),
    "estimate": ("estimate", "--t", "2"),
}


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "g.hg"
    assert main(["generate", "--k", "3", "--n", "6", "--r", "2", "--seed",
                 "7", "--min-girth", "5", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_text_output_is_pinned(capsys, instance, name):
    capsys.readouterr()  # drop the generate report
    assert main([*COMMANDS[name], "-i", instance]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("elapsed=")
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert "".join(lines[:-1]) == expected


def test_compare_t2_closed_form_matches_closed_form(capsys, instance):
    # the instance is linear, 2-regular and has no loose cycle shorter than
    # 5, so compare --t 2 reports the size-2 closed form
    def fields(*argv):
        capsys.readouterr()
        assert main([*argv, "-i", instance]) == 0
        return dict(line.split("=", 1)
                    for line in capsys.readouterr().out.splitlines())

    closed = fields("closed-form", "--t", "2")
    compared = fields("compare", "--t", "2")
    assert compared["closed_form_t2_printed_log"] == closed["printed_log_value"]
    assert (compared["closed_form_t2_corrected_log"]
            == closed["corrected_log_value"])
    assert compared["closed_form_t2_delta"] == closed["delta"]
