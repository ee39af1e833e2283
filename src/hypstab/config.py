"""Scenario configuration: flat dotted-key text files.

Each non-comment line is ``section.key = value``; values are numbers,
bare strings, or bracketed (possibly nested) numeric lists, e.g.

    system.kind = euler
    system.euler.v_bar = [3.0, 0.0]
    grid.N1 = 64
    control.mode = scalar
    control.C = 0.0
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sim import ControlLaw, Grid
from .sysdef import EulerScenario, HyperbolicSystem, euler_symmetrized
from .symlin import SymMatrix


@dataclass(frozen=True)
class SystemConfig:
    kind: str = "euler"
    rho_bar: float = 1.0
    v_bar: tuple[float, float] = (3.0, 0.0)
    a_bar: float = 1.0
    d: int = 2
    n: int = 3
    jacobians: tuple = ()
    source: tuple = ()


@dataclass(frozen=True)
class GridConfig:
    n1: int = 64
    n2: int = 64
    l1: float = 1.0
    l2: float = 1.0


@dataclass(frozen=True)
class TimeConfig:
    t_end: float = 1.0
    cfl: float = 0.45


@dataclass(frozen=True)
class ControlConfig:
    mode: str = "zero"
    c: float = 0.0


@dataclass(frozen=True)
class LmiConfig:
    mode: str = "plain"
    c_a_override: float | None = None


@dataclass(frozen=True)
class OutputConfig:
    csv_path: str = "run.csv"
    snapshot_times: tuple = ()


@dataclass(frozen=True)
class ScenarioConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    lmi: LmiConfig = field(default_factory=LmiConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("["):
        try:
            value = ast.literal_eval(text)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"malformed list value {text!r}") from exc
        return _freeze(value)
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text  # bare string (identifier or path)
    if isinstance(value, (int, float, str)):
        return value
    raise ConfigError(f"unsupported value {text!r}")


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (int, float)):
        return value
    raise ConfigError(f"lists may only contain numbers, got {value!r}")


def _parse_pairs(text: str) -> dict:
    pairs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = _parse_value(value)
    return pairs


def _take(pairs: dict, key: str, kind, default):
    if key not in pairs:
        return default
    value = pairs.pop(key)
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key {key!r}: expected {kind}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite")
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario description, rejecting unknown or malformed keys."""
    pairs = _parse_pairs(text)

    kind = _take(pairs, "system.kind", str, "euler")
    if kind not in ("euler", "explicit"):
        raise ConfigError(f"system.kind must be 'euler' or 'explicit', got {kind!r}")
    v_bar = _take(pairs, "system.euler.v_bar", tuple, (3.0, 0.0))
    if len(v_bar) != 2 or not all(isinstance(c, (int, float)) for c in v_bar):
        raise ConfigError(f"system.euler.v_bar must have two numeric entries, got {v_bar!r}")
    jac = _take(pairs, "system.explicit.jacobians", tuple, ())
    src = _take(pairs, "system.explicit.source", tuple, ())
    system = SystemConfig(
        kind=kind,
        rho_bar=_take(pairs, "system.euler.rho_bar", float, 1.0),
        v_bar=tuple(float(c) for c in v_bar),
        a_bar=_take(pairs, "system.euler.a_bar", float, 1.0),
        d=_take(pairs, "system.explicit.d", int, 2),
        n=_take(pairs, "system.explicit.n", int, 3),
        jacobians=jac,
        source=src,
    )
    if system.d not in (1, 2):
        raise ConfigError(f"system.explicit.d = {system.d} must be 1 or 2")
    if kind == "explicit" and not system.jacobians:
        raise ConfigError("system.kind = explicit requires system.explicit.jacobians")

    grid = GridConfig(
        n1=_take(pairs, "grid.N1", int, 64),
        n2=_take(pairs, "grid.N2", int, 64),
        l1=_take(pairs, "grid.L1", float, 1.0),
        l2=_take(pairs, "grid.L2", float, 1.0),
    )
    time = TimeConfig(
        t_end=_take(pairs, "time.t_end", float, 1.0),
        cfl=_take(pairs, "time.cfl", float, 0.45),
    )
    if not time.t_end > 0.0:
        raise ConfigError(f"time.t_end = {time.t_end} must be positive")
    if not 0.0 < time.cfl <= 1.0:
        raise ConfigError(f"time.cfl = {time.cfl} must lie in (0, 1]")

    mode = _take(pairs, "control.mode", str, "zero")
    if mode not in ("zero", "scalar", "componentwise", "prescribed"):
        raise ConfigError(f"unknown control.mode {mode!r}")
    c = _take(pairs, "control.C", float, 0.0)
    if mode == "scalar" and not -1.0 <= c <= 1.0:
        raise ConfigError(f"control.C = {c} must lie in [-1, 1] for scalar feedback")
    control = ControlConfig(mode=mode, c=c)

    lmi_mode = _take(pairs, "lmi.mode", str, "plain")
    if lmi_mode not in ("plain", "with_remainder"):
        raise ConfigError(f"unknown lmi.mode {lmi_mode!r}")
    lmi = LmiConfig(
        mode=lmi_mode,
        c_a_override=_take(pairs, "lmi.C_A_override", float, None),
    )
    if lmi.c_a_override is not None and not lmi.c_a_override > 0.0:
        raise ConfigError(f"lmi.C_A_override = {lmi.c_a_override} must be positive")

    snap = _take(pairs, "output.snapshot_times", tuple, ())
    if not all(isinstance(s, (int, float)) for s in snap):
        raise ConfigError(f"output.snapshot_times must be numeric, got {snap!r}")
    output = OutputConfig(
        csv_path=_take(pairs, "output.csv_path", str, "run.csv"),
        snapshot_times=tuple(float(s) for s in snap),
    )

    if pairs:
        raise ConfigError(f"unknown keys: {', '.join(sorted(pairs))}")
    return ScenarioConfig(system=system, grid=grid, time=time, control=control, lmi=lmi, output=output)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def build_system(cfg: ScenarioConfig) -> HyperbolicSystem:
    """Instantiate the configured system."""
    sc = cfg.system
    if sc.kind == "euler":
        try:
            return euler_symmetrized(EulerScenario(sc.rho_bar, sc.v_bar, sc.a_bar))
        except Exception as exc:
            raise ConfigError(f"invalid Euler scenario: {exc}") from exc
    if len(sc.jacobians) != sc.d:
        raise ConfigError(
            f"system.explicit.jacobians holds {len(sc.jacobians)} matrices, expected d = {sc.d}"
        )
    try:
        jac = tuple(SymMatrix(np.array(j, dtype=float)) for j in sc.jacobians)
        source = np.array(sc.source, dtype=float) if sc.source else np.zeros((sc.n, sc.n))
        return HyperbolicSystem(jac, source, label="explicit")
    except Exception as exc:
        raise ConfigError(f"invalid explicit system: {exc}") from exc


def build_grid(cfg: ScenarioConfig, d: int) -> Grid:
    g = cfg.grid
    if d == 1:
        return Grid((g.n1,), (g.l1,))
    return Grid((g.n1, g.n2), (g.l1, g.l2))


def build_control(cfg: ScenarioConfig) -> ControlLaw:
    mode = cfg.control.mode
    if mode == "zero":
        return ControlLaw.zero()
    if mode == "scalar":
        return ControlLaw.scalar(cfg.control.c)
    if mode == "componentwise":
        # Splitting the budget in proportion to the inflow weights gives
        # every inflow characteristic the same level as scalar feedback at C = 1.
        return ControlLaw.scalar(1.0)
    return ControlLaw.prescribed(cfg.control.c)
