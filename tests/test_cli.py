import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypstab.cli as cli
from hypstab.config import (
    build_control,
    build_grid,
    build_system,
    parse_config,
    serialize_config,
)
from hypstab.errors import ConfigError

SUPERSONIC = """
system.kind = euler
system.euler.v_bar = [3.0, 0.0]
grid.N1 = 16
grid.N2 = 16
time.t_end = 0.1
control.mode = scalar
control.C = 0.0
output.csv_path = {csv}
"""


def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.system.kind == "euler"
    assert cfg.grid.n1 == 64 and cfg.grid.l1 == 1.0
    assert cfg.time.cfl == 0.45
    assert cfg.control.mode == "zero"
    assert cfg.lmi.mode == "plain" and cfg.lmi.c_a_override is None


def test_parse_comments_and_numbers():
    cfg = parse_config("# leading comment\n grid.N1 = 32  # trailing\n\n time.t_end = 2\n")
    assert cfg.grid.n1 == 32
    assert cfg.time.t_end == 2.0


@pytest.mark.parametrize(
    "text",
    [
        "nonsense\n",
        "grid.N1 = 16\ngrid.N1 = 32\n",
        "made.up.key = 1\n",
        "grid.N1 = [1, [2]\n",
        "time.t_end = -1\n",
        "time.cfl = 1.5\n",
        "control.mode = wild\n",
        "control.mode = scalar\ncontrol.C = 2.0\n",
        "lmi.mode = sometimes\n",
        "lmi.C_A_override = 0.0\n",
        "system.kind = explicit\n",
        "system.euler.v_bar = [1.0]\n",
        "time.t_end = inf\n",
        "output.snapshot_times = [0.1, now]\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_roundtrip_euler_identity():
    text = SUPERSONIC.format(csv="a.csv") + "output.snapshot_times = [0.05]\n"
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_roundtrip_explicit_identity():
    cfg = parse_config(
        "system.kind = explicit\n"
        "system.explicit.d = 1\n"
        "system.explicit.n = 2\n"
        "system.explicit.jacobians = [[[1.0, 0.5], [0.5, -1.0]]]\n"
        "system.explicit.source = [[0.0, 0.1], [0.0, 0.0]]\n"
        "lmi.C_A_override = 0.5\n"
    )
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(4, 200),
    l1=st.floats(0.01, 100.0, allow_nan=False),
    t_end=st.floats(0.001, 50.0, allow_nan=False),
    cfl=st.floats(0.01, 1.0, allow_nan=False, exclude_min=False),
    mode=st.sampled_from(["zero", "scalar", "componentwise", "prescribed"]),
    c=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_roundtrip_random_configs(n1, l1, t_end, cfl, mode, c):
    cfg = parse_config(
        f"grid.N1 = {n1}\ngrid.L1 = {l1!r}\ntime.t_end = {t_end!r}\n"
        f"time.cfl = {cfl!r}\ncontrol.mode = {mode}\ncontrol.C = {c!r}\n"
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_build_system_euler_and_explicit():
    sys_ = build_system(parse_config("system.euler.v_bar = [3.0, 0.0]\n"))
    assert (sys_.d, sys_.n) == (2, 3)
    sys_ = build_system(
        parse_config(
            "system.kind = explicit\nsystem.explicit.d = 1\nsystem.explicit.n = 1\n"
            "system.explicit.jacobians = [[[2.0]]]\n"
        )
    )
    assert sys_.jacobians[0].a[0, 0] == 2.0
    with pytest.raises(ConfigError):
        build_system(
            parse_config(
                "system.kind = explicit\nsystem.explicit.d = 2\nsystem.explicit.n = 1\n"
                "system.explicit.jacobians = [[[2.0]]]\n"
            )
        )
    with pytest.raises(ConfigError):
        build_system(parse_config("system.euler.a_bar = 1.0\nsystem.euler.rho_bar = -1.0\n"))


def test_build_grid_and_control():
    cfg = parse_config("grid.N1 = 8\ngrid.N2 = 16\ngrid.L2 = 2.0\n")
    assert build_grid(cfg, 2).cells_per_axis == (8, 16)
    assert build_grid(cfg, 1).cells_per_axis == (8,)
    assert build_control(parse_config("control.mode = scalar\ncontrol.C = -0.5\n")).gain == -0.5
    law = build_control(parse_config("control.mode = prescribed\ncontrol.C = 7.0\n"))
    assert law.mode == "prescribed" and law.datum == 7.0


def write_cfg(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def test_check_feasible(tmp_path, capsys):
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=tmp_path / "t.csv"))
    assert cli.main(["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("feasible")
    assert "C_L = 1" in out
    # every characteristic's face count line is present
    for i in (1, 2, 3):
        assert f"component {i}:" in out


def test_check_infeasible_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, "system.euler.v_bar = [0.5, 0.0]\n")
    assert cli.main(["check", "--config", path]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_check_quiet_suppresses_output(tmp_path, capsys):
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=tmp_path / "t.csv"))
    assert cli.main(["check", "--quiet", "--config", path]) == 0
    assert capsys.readouterr().out == ""


def test_run_writes_csv_and_summary(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=csv))
    assert cli.main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("C_L=1 c_fit=")
    assert " steps=" in out
    header = csv.read_text().splitlines()[0]
    assert header == "t,L,boundary_integral,control_1,control_2,control_3"


def test_run_csv_override_and_snapshots(tmp_path):
    cfg_text = SUPERSONIC.format(csv=tmp_path / "ignored.csv")
    cfg_text += "output.snapshot_times = [0.05]\n"
    path = write_cfg(tmp_path, cfg_text)
    target = tmp_path / "other.csv"
    assert cli.main(["run", "--quiet", "--config", path, "--csv", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "ignored.csv").exists()
    snaps = list(tmp_path.glob("other_snap0_t*.txt"))
    assert len(snaps) == 1


def test_run_infeasible_exit_code(tmp_path):
    path = write_cfg(tmp_path, "system.euler.v_bar = [0.2, 0.0]\n")
    assert cli.main(["run", "--config", path]) == 2


def test_run_csv_column_count_matches_system(tmp_path):
    csv = tmp_path / "adv.csv"
    path = write_cfg(
        tmp_path,
        "system.kind = explicit\nsystem.explicit.d = 1\nsystem.explicit.n = 1\n"
        "system.explicit.jacobians = [[[1.0]]]\n"
        f"time.t_end = 0.2\noutput.csv_path = {csv}\n",
    )
    assert cli.main(["run", "--quiet", "--config", path]) == 0
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape[1] == 4  # t, L, boundary_integral, one control column
    assert np.all(np.diff(data[:, 1]) <= 0.0)


def test_oracle_agreement(tmp_path, capsys):
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=tmp_path / "t.csv"))
    assert cli.main(["oracle", "--config", path]) == 0
    assert "agree: feasible" in capsys.readouterr().out
    path = write_cfg(tmp_path, "system.euler.v_bar = [0.5, 0.0]\n")
    assert cli.main(["oracle", "--config", path]) == 0
    assert "agree: infeasible" in capsys.readouterr().out


def test_oracle_disagreement_exit_code(tmp_path, monkeypatch, capsys):
    # force the grid route to lie so the disagreement branch is observable
    monkeypatch.setattr(cli, "brute_force_feasible", lambda system, c: (False, None))
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=tmp_path / "t.csv"))
    assert cli.main(["oracle", "--config", path]) == 4
    assert "DISAGREE" in capsys.readouterr().out


def test_oracle_rejects_1d(tmp_path):
    path = write_cfg(
        tmp_path,
        "system.kind = explicit\nsystem.explicit.d = 1\nsystem.explicit.n = 1\n"
        "system.explicit.jacobians = [[[1.0]]]\n",
    )
    assert cli.main(["oracle", "--config", path]) == 1


def test_missing_or_broken_config_exits_1(tmp_path, capsys):
    assert cli.main(["check"]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["check", "--config", str(tmp_path / "absent.cfg")]) == 1
    path = write_cfg(tmp_path, "fantasy.key = 1\n")
    assert cli.main(["check", "--config", path]) == 1


def test_example_configs_parse_and_check():
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name, code in [
        ("supersonic_euler.cfg", 0),
        ("subsonic_euler.cfg", 2),
        ("advection_1d.cfg", 0),
    ]:
        assert cli.main(["check", "--quiet", "--config", str(root / name)]) == code
