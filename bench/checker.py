"""Independent correctness checker for the output of one CLI operation.

Every check uses numpy's LAPACK routines and the facts recorded by
``workloads``; nothing here calls into ``hypstab``.  A check returns ``None``
when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from workloads import Op, System

# Directions in the reference scan of max_eig(cos t A_1 + sin t A_2).
SCAN_DIRECTIONS = 1 << 16
SCAN_CHUNK = 4096
# Reference minima within this share of max|A_k| of zero are undecided: either
# verdict is accepted there.
UNDECIDED_BAND = 1e-6
# Slack of the certificate check, relative to the size of the pencil.
CERT_RTOL = 1e-9
# Tolerance of log L_n - log L_0 + C_L t_n <= 0 (the discrete decay certificate).
DECAY_ATOL = 1e-9
# Relative tolerance on the final energy against the recorded value.
L_T_RTOL = 1e-6
# Exit codes of the CLI.
FEASIBLE, INFEASIBLE, DISAGREE = 0, 2, 4

_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"


def _top(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[-1])


def _scale(system: System) -> float:
    return max(np.abs(np.linalg.eigvalsh(a)).max() for a in system.jacobians)


def _pencil(system: System, m) -> np.ndarray:
    return sum(mk * a for mk, a in zip(m, system.jacobians))


def min_direction_value(system: System) -> float:
    """min over unit directions t of max_eig(t_1 A_1 + t_2 A_2): a dense
    angular scan followed by golden-section refinement around the best
    scanned direction.  Negative means a feasible weight exists."""
    a1, a2 = system.jacobians
    theta = np.linspace(0.0, 2.0 * np.pi, SCAN_DIRECTIONS, endpoint=False)
    tops = np.empty(SCAN_DIRECTIONS)
    for lo in range(0, SCAN_DIRECTIONS, SCAN_CHUNK):
        t = theta[lo : lo + SCAN_CHUNK]
        block = np.cos(t)[:, None, None] * a1 + np.sin(t)[:, None, None] * a2
        tops[lo : lo + SCAN_CHUNK] = np.linalg.eigvalsh(block)[:, -1]
    best = int(np.argmin(tops))

    def phi(t: float) -> float:
        return _top(math.cos(t) * a1 + math.sin(t) * a2)

    step = 2.0 * np.pi / SCAN_DIRECTIONS
    lo, hi = theta[best] - step, theta[best] + step
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if phi(c) < phi(d):
            hi = d
        else:
            lo = c
    return min(float(tops[best]), phi((lo + hi) / 2.0))


def reference_verdict(system: System) -> str:
    """'feasible', 'infeasible' or 'undecided' from the LAPACK scan."""
    value = min_direction_value(system)
    band = UNDECIDED_BAND * _scale(system)
    if value < -band:
        return "feasible"
    if value > band:
        return "infeasible"
    return "undecided"


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in re.findall(_FLOAT, text)])


def _field(out: str, pattern: str) -> str | None:
    hit = re.search(pattern, out, re.MULTILINE)
    return None if hit is None else hit.group(1)


def _verdict_mismatch(claimed: str, reference: str) -> str | None:
    if reference != "undecided" and claimed != reference:
        return f"verdict {claimed}, reference scan says {reference}"
    return None


def _check_partition(system: System, out: str) -> str | None:
    """Inflow + outflow = face count per component, and the inflow count
    matches the signs of the eigenvalues of +-A_k (zero within the band may
    go either way)."""
    counts = re.findall(r"component (\d+): inflow faces (\d+), outflow faces (\d+)", out)
    if len(counts) != system.n:
        return f"{len(counts)} partition lines for n = {system.n}"
    n1, n2 = system.cells
    tol = CERT_RTOL * _scale(system)
    sides = []
    for k, faces in ((0, n2), (1, n1)):
        for sign in (-1.0, 1.0):
            sides.append((np.linalg.eigvalsh(sign * system.jacobians[k]), faces))
    for i, inflow, outflow in counts:
        i, inflow, outflow = int(i) - 1, int(inflow), int(outflow)
        if inflow + outflow != 2 * (n1 + n2):
            return f"component {i + 1}: {inflow} + {outflow} faces, expected {2 * (n1 + n2)}"
        lo = sum(faces for lam, faces in sides if lam[i] < -tol)
        hi = sum(faces for lam, faces in sides if lam[i] < tol)
        if not lo <= inflow <= hi:
            return f"component {i + 1}: {inflow} inflow faces, eigenvalue signs give {lo}..{hi}"
    return None


def _check_certificate(system: System, out: str) -> str | None:
    """The printed weight must satisfy the printed inequality."""
    try:
        m = _vector(_field(out, r"^m\s*=\s*(\[.*\])$"))
        c_a, c_b, c_l = (float(_field(out, rf"^{k}\s*=\s*({_FLOAT})$")) for k in ("C_A", "C_B", "C_L"))
    except (TypeError, ValueError):
        return "feasible output lacks m, C_A, C_B or C_L"
    if m.size != len(system.jacobians) or not np.isfinite(m).all():
        return f"weight m = {m} is not a finite {len(system.jacobians)}-vector"
    n = system.n
    b_sym = (system.source + system.source.T) / 2.0
    matrix = c_a * np.eye(n) + _pencil(system, m)
    if system.lmi_mode == "with_remainder":
        matrix = matrix - 2.0 * b_sym
    else:
        source_bound = max(0.0, _top(-2.0 * b_sym))
        if c_b < source_bound * (1.0 - CERT_RTOL):
            return f"C_B = {c_b:.6g} below the source bound {source_bound:.6g}"
    slack = CERT_RTOL * (1.0 + c_a + np.abs(m).sum() * _scale(system))
    top = _top(matrix)
    if top > slack:
        return f"max_eig(C_A I + sum m_k A_k) = {top:.3e} > 0"
    if not (c_l > 0.0 and abs(c_l - (c_a - c_b)) <= CERT_RTOL * (1.0 + abs(c_a))):
        return f"C_L = {c_l} is not C_A - C_B = {c_a - c_b} > 0"
    return None


def check_check(op: Op, reference: str, rc: int, out: str) -> str | None:
    if rc == FEASIBLE:
        return _verdict_mismatch("feasible", reference) or _check_certificate(op.system, out) or _check_partition(op.system, out)
    if rc == INFEASIBLE:
        value = _field(out, rf"least achievable pencil max eigenvalue: ({_FLOAT})")
        direction = _field(out, r"at direction (\[.*\])")
        if value is None or direction is None:
            return "infeasible output lacks the best direction and value"
        top = _top(_pencil(op.system, _vector(direction)))
        if not float(value) >= 0.0 or abs(top - float(value)) > 1e-6 * (1.0 + abs(top)):
            return f"reported best value {value} but max_eig at that direction is {top:.6g}"
        return _verdict_mismatch("infeasible", reference)
    return f"exit code {rc}"


def check_oracle(op: Op, reference: str, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}" + (" (solver and grid disagree)" if rc == DISAGREE else "")
    claimed = _field(out, r"^agree: (feasible|infeasible)$")
    if claimed is None:
        return "oracle output lacks the agreed verdict"
    if claimed == "feasible":
        witness = _field(out, r"^grid witness m = (\[.*\])$")
        if witness is None:
            return "feasible oracle verdict without a grid witness"
        top = _top(_pencil(op.system, _vector(witness)))
        if not top < 0.0:
            return f"grid witness has max_eig(sum m_k A_k) = {top:.3e} >= 0"
    return _verdict_mismatch(claimed, reference)


def _finite_table(path: Path, skip: str) -> np.ndarray | str:
    try:
        rows = [line for line in path.read_text(encoding="ascii").splitlines() if line and not line.startswith(skip)]
        table = np.array([[float(x) for x in row.replace(",", " ").split()] for row in rows])
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if not np.isfinite(table).all():
        return f"{path.name}: non-finite value"
    return table


def check_run(op: Op, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    summary = dict(re.findall(r"(\w+)=(\S+)", out))
    try:
        c_l, steps = float(summary["C_L"]), int(summary["steps"])
    except (KeyError, ValueError):
        return "run summary lacks C_L or steps"
    table = _finite_table(op.csv, "t,")
    if isinstance(table, str):
        return table
    if table.shape != (steps + 1, 3 + op.system.n):
        return f"CSV shape {table.shape}, expected {(steps + 1, 3 + op.system.n)}"
    t, energy = table[:, 0], table[:, 1]
    if not (energy > 0.0).all():
        return "weighted energy is not positive"
    violation = float(np.max(np.log(energy) - math.log(energy[0]) + c_l * t))
    if violation > DECAY_ATOL:
        return f"decay certificate violated by {violation:.3e}"
    if op.ref_l_t is not None and abs(energy[-1] - op.ref_l_t) > L_T_RTOL * op.ref_l_t:
        return f"L_T = {energy[-1]!r}, recorded {op.ref_l_t!r}"
    snaps = sorted(op.csv.parent.glob(f"{op.csv.stem}_snap*_t*.txt"))
    if len(snaps) != op.snapshots:
        return f"{len(snaps)} snapshot files, expected {op.snapshots}"
    for snap in snaps:
        block = _finite_table(snap, "#")
        if isinstance(block, str):
            return block
        if block.size != op.system.n * int(np.prod(op.system.cells)):
            return f"{snap.name}: {block.size} values"
    return None


def check(op: Op, reference: str | None, rc: int, out: str) -> str | None:
    """None when the operation's output is correct, else the reason."""
    if op.command == "check":
        return check_check(op, reference, rc, out)
    if op.command == "oracle":
        return check_oracle(op, reference, rc, out)
    return check_run(op, rc, out)
