"""The robustness-family command (`tests/family.py`) on its cheapest member."""
import pytest

from family import FIELDS, main


def test_the_family_command_prints_each_field_of_the_desk_member(capsys):
    assert main(["desk"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["member", *FIELDS]
    name, *values = row.split()
    fields = dict(zip(FIELDS, values, strict=True))
    assert name == "desk"
    assert int(fields["steps"]) == 30
    # the initial evaluation and at least one trial per step
    assert int(fields["evaluations"]) >= 31
    assert 0.0 < float(fields["J_ratio"]) < 1.0
    assert int(fields["EPE"]) == int(fields["EPE_1600"])
    # the chain's curve image and the 1600-gon's exact image of one mask agree in J to 1e-4
    assert float(fields["J_ratio_1600"]) == pytest.approx(float(fields["J_ratio"]), rel=1e-4)


def test_the_family_command_names_its_members_on_an_unknown_one(capsys):
    assert main(["nowhere"]) == 2
    assert "desk_7_-3" in capsys.readouterr().err
