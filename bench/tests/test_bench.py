"""Tests of the benchmark itself: span accounting, wrapper restore, checker.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None):
    span = spans.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_of_nested_spans_is_duration_minus_children():
    root = _span("cli.main", 0.0, 10.0)
    a = _span("potential.find_potential", 1.0, 4.0, root)
    leaf = _span("symlin.eigendecompose", 2.0, 3.0, a)
    b = _span("sim.run", 5.0, 9.0, root)
    own, other = spans.self_times([root, a, leaf, b], 10.0)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert other == pytest.approx(0.0)


def test_concurrent_children_split_the_overlap_and_keep_the_total():
    parent = _span("potential.find_potential", 0.0, 10.0)
    left = _span("symlin.eigendecompose", 1.0, 5.0, parent)
    right = _span("symlin.eigendecompose", 3.0, 8.0, parent)
    own, other = spans.self_times([parent, left, right], 10.0)
    # [1, 3] left alone, [3, 5] shared, [5, 8] right alone
    assert own == pytest.approx([3.0, 3.0, 4.0])
    assert sum(own) + other == pytest.approx(10.0)


def test_time_outside_every_span_is_other():
    first = _span("cli.main", 0.0, 2.0)
    second = _span("cli.main", 3.0, 5.0)
    own, other = spans.self_times([first, second], 6.0)
    assert own == pytest.approx([2.0, 2.0])
    assert other == pytest.approx(2.0)


def _layer_bindings():
    bindings = {}
    for layer in spans.LAYERS:
        module = importlib.import_module(f"hypstab.{layer}")
        for attr, obj in vars(module).items():
            if callable(obj):
                bindings[(layer, attr)] = obj
    return bindings


def test_traced_run_restores_every_wrapped_name(tmp_path):
    import hypstab.cli

    before = _layer_bindings()
    ops = workloads.build("certify", 0, ROOT, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        assert hypstab.cli.main is not before[("cli", "main")]
        assert hypstab.potential.max_eigenvalue is not before[("potential", "max_eigenvalue")]
        rc, seconds, out, _ = run.run_op(hypstab.cli, ops[0])
    assert rc == 0
    assert _layer_bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "potential.find_potential", "symlin.eigendecompose", "boundary.rectangle_faces"} <= names
    metrics = spans.layer_metrics(tracer.spans, seconds)
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) + metrics["cli.other_s"]
    assert total == pytest.approx(seconds, rel=1e-9)
    assert metrics["boundary.faces"] == 256


def _op(system, command, **kw):
    return workloads.Op(argv=[command, "--config", "planted.cfg"], system=system, **kw)


def test_checker_flags_a_planted_wrong_verdict(tmp_path):
    jac = workloads.feasible_pair(np.random.default_rng(3), 3)
    system = workloads.write_explicit(tmp_path / "planted.cfg", jac)
    reference = checker.reference_verdict(system)
    assert reference == "feasible"
    value = checker._top(jac[0])
    planted = f"infeasible\nleast achievable pencil max eigenvalue: {value!r}\nat direction [1, 0]\n"
    assert "verdict infeasible" in checker.check(_op(system, "check"), reference, 2, planted)
    assert "verdict infeasible" in checker.check(_op(system, "oracle"), reference, 0, "agree: infeasible\n")

    import hypstab.cli

    for command in ("check", "oracle"):
        op = workloads.Op(argv=[command, "--config", str(tmp_path / "planted.cfg")], system=system)
        rc, _, out, _ = run.run_op(hypstab.cli, op)
        assert checker.check(op, reference, rc, out) is None


def test_checker_flags_a_planted_wrong_certificate(tmp_path):
    system = workloads.write_explicit(tmp_path / "planted.cfg", workloads.feasible_pair(np.random.default_rng(4), 3))
    planted = "feasible\nm   = [0.001, 0]\nC_A = 1\nC_B = 0\nC_L = 1\n"
    assert "max_eig" in checker.check(_op(system, "check"), "feasible", 0, planted)


def _csv(path, rows):
    path.write_text("t,L,boundary_integral,control_1\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def test_checker_flags_a_planted_inf_csv_row(tmp_path):
    system = workloads.System(jacobians=(np.array([[1.0]]),), source=np.zeros((1, 1)), cells=(8,))
    csv = tmp_path / "planted.csv"
    op = _op(system, "run", csv=csv)
    summary = "C_L=1 c_fit=2 L0=1 LT=0.135335283237 steps=2\n"
    good = [(0.0, 1.0, 0.0, 0.0), (0.5, float(np.exp(-1.0)), 0.1, 0.2), (1.0, float(np.exp(-2.0)), 0.1, 0.2)]
    _csv(csv, good)
    assert checker.check(op, None, 0, summary) is None
    _csv(csv, good[:2] + [(1.0, float("inf"), float("nan"), 0.0)])
    assert "non-finite" in checker.check(op, None, 0, summary)
    _csv(csv, good[:2] + [(1.0, 0.5, 0.1, 0.2)])
    assert "decay certificate" in checker.check(op, None, 0, summary)


@pytest.mark.parametrize("trace", [0, 1])
def test_reported_metrics_are_the_declared_ones(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    layers = spans.layer_metrics([_span("cli.main", 0.0, 1.0)], 1.0)
    ops = [{"failure": None}]
    batches = [
        {"traced": False, "wall": 1.0, "ops": ops, "cell_steps": 10, "run_seconds": 1.0, "minor_faults": 5},
        {"traced": True, "wall": 1.0, "ops": ops, "cell_steps": 10, "run_seconds": 1.0, "minor_faults": 5, "layers": layers},
    ]
    metrics, errors = run.summarize(SimpleNamespace(trace=trace), batches, 0.1, 0)
    assert set(metrics) == declared
    assert errors == []
