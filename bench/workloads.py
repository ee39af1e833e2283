"""Workload generators: scenario configs and the facts the checker needs.

Every workload is a fixed list of CLI operations (one *batch*).  The seed
picks the random matrices of ``certify`` and the mean-flow direction of the
Euler cases; the amount of work in a batch does not depend on it, so batch
times compare across seeds.

Nothing here calls into ``hypstab``: the checker's facts (Jacobians, sources,
reference values) are built independently of the package under test.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Mean-flow directions of the supersonic Euler cases; the seed picks one.
FLOW_DIRECTIONS = ((3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0))

# Final weighted energy L_T of the gain-1.0 supersonic run, recorded with the
# seed code (ROADMAP "Seed state"), keyed by (cells per axis, flow direction).
RECORDED_L_T = {
    (64, (3.0, 0.0)): 0.0005690629927792092,
    (64, (-3.0, 0.0)): 0.0011197540318278274,
    (64, (0.0, 3.0)): 0.0005705047987493648,
    (64, (0.0, -3.0)): 0.0011210981742636938,
    (256, (3.0, 0.0)): 0.0006581717029328765,
    (256, (-3.0, 0.0)): 0.0012493631314335074,
    (256, (0.0, 3.0)): 0.0006585500743335305,
    (256, (0.0, -3.0)): 0.0012496868248993082,
}

# ROADMAP narrow-cone counterexample: speed vectors (A_1[i, i], A_2[i, i]).
NARROW_CONE_SPEEDS = ((0.3498, 0.426), (-1.4986, -1.8225), (-0.9026, -1.0948))

# Defects open at the commit that defined this benchmark (ROADMAP
# "Correctness and robustness").  Operations tagged with one of these still
# count as failed when they fail; they only do not mark the run incorrect.
NARROW_CONE = "narrow-cone verdict"
ADVECTION_OVERFLOW = "advection overflow"


@dataclass
class System:
    """What the checker needs to know about a configured system."""

    jacobians: tuple[np.ndarray, ...]
    source: np.ndarray
    lmi_mode: str = "plain"
    cells: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.jacobians[0].shape[0]


@dataclass
class Op:
    """One CLI invocation and its expectations."""

    argv: list[str]
    system: System
    known_defect: str | None = None
    csv: Path | None = None
    snapshots: int = 0
    ref_l_t: float | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return f"{self.argv[0]} {Path(self.argv[2]).name}"

    def clear_outputs(self) -> None:
        """Delete the files a previous run wrote.  Rewriting a file in place
        makes ext4 flush it on close (auto_da_alloc), which a first run in a
        fresh directory does not pay."""
        if self.csv is not None:
            for path in [self.csv, *self.csv.parent.glob(f"{self.csv.stem}_snap*_t*.txt")]:
                path.unlink(missing_ok=True)


def _literal(text: str):
    return ast.literal_eval(text.split("#", 1)[0].strip())


def write_config(path: Path, base: str, overrides: dict[str, str]) -> dict[str, str]:
    """Write ``base`` with the values of ``overrides`` replaced or appended.

    Returns the resulting key -> value-text mapping.
    """
    lines = []
    values: dict[str, str] = {}
    pending = dict(overrides)
    for raw in base.splitlines():
        body = raw.split("#", 1)[0]
        if "=" in body:
            key = body.split("=", 1)[0].strip()
            if key in pending:
                raw = f"{key} = {pending.pop(key)}"
            values[key] = raw.split("=", 1)[1].split("#", 1)[0].strip()
        lines.append(raw)
    for key, value in pending.items():
        lines.append(f"{key} = {value}")
        values[key] = value
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return values


def _fmt(value) -> str:
    if np.ndim(value):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return repr(float(value))


def euler_jacobians(v_bar, a_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized barotropic Euler Jacobians in the state (r, v1, v2)."""
    v1, v2 = v_bar
    a = a_bar
    a1 = np.array([[v1, a, 0.0], [a, v1, 0.0], [0.0, 0.0, v1]])
    a2 = np.array([[v2, 0.0, a], [0.0, v2, 0.0], [a, 0.0, v2]])
    return a1, a2


def _euler_system(values: dict[str, str], cells: tuple[int, ...]) -> System:
    jac = euler_jacobians(_literal(values["system.euler.v_bar"]), float(_literal(values["system.euler.a_bar"])))
    return System(jacobians=jac, source=np.zeros((3, 3)), cells=cells)


# --- random explicit systems for ``certify`` --------------------------------


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def feasible_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A_1 with spectrum in [1, 2] and |A_2| <= 0.5: m = (-M, 0) works for
    large M, and the oracle grid finds a witness in its first row block."""
    q = _orthogonal(rng, n)
    a1 = q @ np.diag(rng.uniform(1.0, 2.0, n)) @ q.T
    a2 = _symmetric(rng, n)
    a2 *= rng.uniform(0.2, 0.5) / np.abs(np.linalg.eigvalsh(a2)).max()
    return (a1 + a1.T) / 2.0, a2


def infeasible_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A 2x2 block s*(diag(1, -1), [[0, 1], [1, 0]]) has eigenvalues +-s in
    every direction, so max_eig(cos t A_1 + sin t A_2) >= s > 0 for all t."""
    q = _orthogonal(rng, n)
    s = rng.uniform(0.5, 2.0)
    b1 = np.zeros((n, n))
    b2 = np.zeros((n, n))
    b1[:2, :2] = s * np.diag([1.0, -1.0])
    b2[:2, :2] = s * np.array([[0.0, 1.0], [1.0, 0.0]])
    b1[2:, 2:] = _symmetric(rng, n - 2)
    b2[2:, 2:] = _symmetric(rng, n - 2)
    a1 = q @ b1 @ q.T
    a2 = q @ b2 @ q.T
    return (a1 + a1.T) / 2.0, (a2 + a2.T) / 2.0


def nonnormal_source(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly upper triangular B with max_eig(-2 B_sym) in [0.5, 1.5]."""
    b = np.triu(rng.uniform(0.3, 1.0, (n, n)), 1)
    top = np.linalg.eigvalsh(-(b + b.T)).max()
    return b * (rng.uniform(0.5, 1.5) / top)


def write_explicit(path: Path, jac, source=None, mode: str = "plain") -> System:
    text = [
        "system.kind = explicit",
        "system.explicit.d = 2",
        f"system.explicit.n = {jac[0].shape[0]}",
        f"system.explicit.jacobians = {_fmt(np.stack(jac))}",
        "grid.N1 = 64",
        "grid.N2 = 64",
        f"lmi.mode = {mode}",
        f"output.csv_path = {path.with_suffix('.csv').name}",
    ]
    if source is not None:
        text.append(f"system.explicit.source = {_fmt(source)}")
    path.write_text("\n".join(text) + "\n", encoding="ascii")
    n = jac[0].shape[0]
    return System(
        jacobians=tuple(jac),
        source=np.zeros((n, n)) if source is None else source,
        lmi_mode=mode,
        cells=(64, 64),
    )


# --- workloads ---------------------------------------------------------------


def _certify(root: Path, work: Path, rng: np.random.Generator) -> list[Op]:
    systems: list[tuple[str, System, str | None]] = []
    for name in ("supersonic_euler", "subsonic_euler"):
        cfg = work / f"{name}.cfg"
        values = write_config(cfg, (root / "configs" / f"{name}.cfg").read_text(), {})
        systems.append((str(cfg), _euler_system(values, (int(values["grid.N1"]), int(values["grid.N2"]))), None))

    cone = work / "narrow_cone.cfg"
    speeds = np.array(NARROW_CONE_SPEEDS)
    systems.append((str(cone), write_explicit(cone, (np.diag(speeds[:, 0]), np.diag(speeds[:, 1]))), NARROW_CONE))

    slots = (
        ("feasible_n3", 3, feasible_pair, False),
        ("infeasible_n3", 3, infeasible_pair, False),
        ("remainder_n6", 6, feasible_pair, True),
        ("infeasible_n6", 6, infeasible_pair, False),
        ("feasible_n10", 10, feasible_pair, False),
    )
    for name, n, make, with_source in slots:
        cfg = work / f"{name}.cfg"
        jac = make(rng, n)
        if with_source:
            system = write_explicit(cfg, jac, nonnormal_source(rng, n), "with_remainder")
        else:
            system = write_explicit(cfg, jac)
        systems.append((str(cfg), system, None))

    return [
        Op(argv=[command, "--config", cfg], system=system, known_defect=defect)
        for cfg, system, defect in systems
        for command in ("check", "oracle")
    ]


def _supersonic(root: Path, work: Path, name: str, cells: int, direction, extra: dict[str, str]) -> tuple[Path, System]:
    cfg = work / f"{name}.cfg"
    overrides = {
        "grid.N1": str(cells),
        "grid.N2": str(cells),
        "system.euler.v_bar": _fmt(direction),
        "control.C": "1.0",
        "output.csv_path": f"{name}.csv",
        **extra,
    }
    values = write_config(cfg, (root / "configs" / "supersonic_euler.cfg").read_text(), overrides)
    return cfg, _euler_system(values, (cells, cells))


def _run_op(cfg: Path, system: System, **kw) -> Op:
    csv = cfg.with_suffix(".csv")
    return Op(argv=["run", "--config", str(cfg), "--csv", str(csv)], system=system, csv=csv, **kw)


def _loop_fine(root: Path, work: Path, rng: np.random.Generator) -> list[Op]:
    direction = FLOW_DIRECTIONS[rng.integers(len(FLOW_DIRECTIONS))]
    cfg, system = _supersonic(root, work, "supersonic_256", 256, direction, {})
    return [_run_op(cfg, system, ref_l_t=RECORDED_L_T[(256, direction)])]


def _loop_coarse(root: Path, work: Path, rng: np.random.Generator) -> list[Op]:
    direction = FLOW_DIRECTIONS[rng.integers(len(FLOW_DIRECTIONS))]
    times = np.sort(rng.uniform(0.05, 1.0, 8))
    cfg, system = _supersonic(
        root, work, "supersonic_64", 64, direction, {"output.snapshot_times": _fmt(times)}
    )
    ops = [_run_op(cfg, system, snapshots=len(times), ref_l_t=RECORDED_L_T[(64, direction)])]

    adv = work / "advection_slow.cfg"
    values = write_config(
        adv,
        (root / "configs" / "advection_1d.cfg").read_text(),
        {"system.explicit.jacobians": "[[[-0.001]]]", "output.csv_path": "advection_slow.csv"},
    )
    speed = np.array(_literal(values["system.explicit.jacobians"]), dtype=float)
    adv_system = System(jacobians=tuple(speed), source=np.zeros((1, 1)), cells=(int(values["grid.N1"]),))
    ops.append(_run_op(adv, adv_system, known_defect=ADVECTION_OVERFLOW))
    return ops


def _partition_large(root: Path, work: Path, rng: np.random.Generator) -> list[Op]:
    direction = FLOW_DIRECTIONS[rng.integers(len(FLOW_DIRECTIONS))]
    cfg, system = _supersonic(root, work, "supersonic_2048", 2048, direction, {})
    return [Op(argv=["check", "--config", str(cfg)], system=system)]


_BUILDERS = {
    "certify": _certify,
    "loop_fine": _loop_fine,
    "loop_coarse": _loop_coarse,
    "partition_large": _partition_large,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, root: Path, work: Path) -> list[Op]:
    """Write the workload's configs under ``work`` and return one batch."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](root, work, np.random.default_rng(seed))
