import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypstab.cli as cli
from hypstab.config import (
    ControlConfig,
    GridConfig,
    LmiConfig,
    OutputConfig,
    ScenarioConfig,
    SystemConfig,
    TimeConfig,
    build_control,
    build_grid,
    build_system,
    parse_config,
)
from hypstab.errors import ConfigError
from hypstab.potential import LyapunovPotential

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
        "system.kind = explicit\nsystem.explicit.d = 3\nsystem.explicit.n = 1\n"
        "system.explicit.jacobians = [[[1.0]], [[0.0]], [[0.0]]]\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_roundtrip_euler_identity():
    text = SUPERSONIC.format(csv="a.csv") + "output.snapshot_times = [0.05]\n"
    assert parse_config(text) == ScenarioConfig(
        grid=GridConfig(n1=16, n2=16),
        time=TimeConfig(t_end=0.1),
        control=ControlConfig(mode="scalar", c=0.0),
        output=OutputConfig(csv_path="a.csv", snapshot_times=(0.05,)),
    )


def test_roundtrip_explicit_identity():
    cfg = parse_config(
        "system.kind = explicit\n"
        "system.explicit.d = 1\n"
        "system.explicit.n = 2\n"
        "system.explicit.jacobians = [[[1.0, 0.5], [0.5, -1.0]]]\n"
        "system.explicit.source = [[0.0, 0.1], [0.0, 0.0]]\n"
        "lmi.C_A_override = 0.5\n"
    )
    assert cfg == ScenarioConfig(
        system=SystemConfig(
            kind="explicit",
            d=1,
            n=2,
            jacobians=(((1.0, 0.5), (0.5, -1.0)),),
            source=((0.0, 0.1), (0.0, 0.0)),
        ),
        lmi=LmiConfig(c_a_override=0.5),
    )


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
    assert cfg == ScenarioConfig(
        grid=GridConfig(n1=n1, l1=l1),
        time=TimeConfig(t_end=t_end, cfl=cfl),
        control=ControlConfig(mode=mode, c=c),
    )


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


NON_SQUARE = """
system.kind = euler
system.euler.v_bar = [0.0, 3.0]
grid.N1 = 8
grid.N2 = 4
grid.L1 = 2.0
grid.L2 = 1.0
time.t_end = 0.2
control.mode = scalar
control.C = 1.0
output.csv_path = {csv}
"""


def test_check_non_square_grid_face_counts(tmp_path, capsys):
    # flow along x2: x2- (8 faces) is upstream, x1- and x1+ have 4 faces each
    path = write_cfg(tmp_path, NON_SQUARE.format(csv=tmp_path / "t.csv"))
    assert cli.main(["check", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "component 1: inflow faces 16, outflow faces 8",
        "component 2: inflow faces 8, outflow faces 16",
        "component 3: inflow faces 8, outflow faces 16",
    ]


def test_run_non_square_grid_final_energy(tmp_path, capsys):
    path = write_cfg(tmp_path, NON_SQUARE.format(csv=tmp_path / "t.csv"))
    assert cli.main(["run", "--config", path]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert fields["steps"] == "8"
    assert float(fields["LT"]) == pytest.approx(0.00263246976721, rel=1e-11)


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
    # feed the check a tampered certificate: the solver's weight, negated
    solve = cli._solve_plain

    def tampered(cfg, system):
        pot = solve(cfg, system)
        return LyapunovPotential(m=-pot.m, c_a=pot.c_a, c_b=pot.c_b)

    monkeypatch.setattr(cli, "_solve_plain", tampered)
    path = write_cfg(tmp_path, SUPERSONIC.format(csv=tmp_path / "t.csv"))
    assert cli.main(["oracle", "--config", path]) == 4
    assert "DISAGREE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, jacobian, report",
    [
        (1, "[[[1.0]]]", "agree: feasible\ngrid witness m = [-1.001]\n"),
        (2, "[[[1.0, 0.0], [0.0, -1.0]]]", "agree: infeasible\n"),
    ],
    ids=["feasible", "infeasible"],
)
def test_oracle_1d_agreement(tmp_path, capsys, n, jacobian, report):
    path = write_cfg(
        tmp_path,
        f"system.kind = explicit\nsystem.explicit.d = 1\nsystem.explicit.n = {n}\n"
        f"system.explicit.jacobians = {jacobian}\n",
    )
    assert cli.main(["oracle", "--config", path]) == 0
    assert capsys.readouterr().out == report


def test_c_a_override_at_the_source_bound_is_a_config_error(tmp_path, capsys):
    # source -0.5 I gives C_B = 1, so the override 0.5 cannot certify decay
    path = write_cfg(
        tmp_path,
        "system.kind = explicit\nsystem.explicit.d = 2\nsystem.explicit.n = 2\n"
        "system.explicit.jacobians = [[[2.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.25]]]\n"
        "system.explicit.source = [[-0.5, 0.0], [0.0, -0.5]]\n"
        f"lmi.C_A_override = 0.5\noutput.csv_path = {tmp_path / 't.csv'}\n",
    )
    for command in ("check", "run", "oracle"):
        assert cli.main([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lmi.C_A_override = 0.5 does not exceed the source bound C_B = 1" in captured.err


def test_missing_or_broken_config_exits_1(tmp_path, capsys):
    assert cli.main(["check"]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.main(["check", "--config", str(tmp_path / "absent.cfg")]) == 1
    path = write_cfg(tmp_path, "fantasy.key = 1\n")
    assert cli.main(["check", "--config", path]) == 1


# Full `check` and `oracle` reports and `run` summaries of the shipped configs.  The
# digits beyond the solver's tolerance are pinned on purpose: a change that
# leaves the numerics alone must reproduce them bit for bit.
SHIPPED_CHECK = {
    "supersonic_euler.cfg": (0, """\
feasible
m   = [-0.5005, -5.27358448265e-09]
C_A = 1
C_B = 0
C_L = 1
component 1: inflow faces 192, outflow faces 64
component 2: inflow faces 64, outflow faces 192
component 3: inflow faces 64, outflow faces 192
"""),
    "subsonic_euler.cfg": (2, """\
infeasible
least achievable pencil max eigenvalue: 0.5
at direction [-1, -2.78771471348e-08]
"""),
    "advection_1d.cfg": (0, """\
feasible
m   = [-1.001]
C_A = 1
C_B = 0
C_L = 1
component 1: inflow faces 1, outflow faces 1
"""),
}
SHIPPED_ORACLE = {
    "supersonic_euler.cfg": (0, "agree: feasible\ngrid witness m = [-0.5005, -5.27358448265e-09]\n"),
    "subsonic_euler.cfg": (0, "agree: infeasible\n"),
}
SHIPPED_RUN = {
    "supersonic_euler.cfg": (569, 3.57841407452e-36),
    "advection_1d.cfg": (143, 0.000756284303978),
}


def test_example_configs_parse_and_check(tmp_path, capsys):
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name, (code, report) in SHIPPED_CHECK.items():
        assert cli.main(["check", "--config", str(root / name)]) == code
        assert capsys.readouterr().out == report
        assert cli.main(["check", "--quiet", "--config", str(root / name)]) == code
    for name, (code, report) in SHIPPED_ORACLE.items():
        assert cli.main(["oracle", "--config", str(root / name)]) == code
        assert capsys.readouterr().out == report
    for name, (steps, lt) in SHIPPED_RUN.items():
        csv = tmp_path / f"{name}.csv"
        assert cli.main(["run", "--config", str(root / name), "--csv", str(csv)]) == 0
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        assert fields["steps"] == str(steps)
        assert float(fields["LT"]) == pytest.approx(lt, rel=1e-12)
