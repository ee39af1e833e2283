"""The package's side of the benchmark's traced contract.

The harness in ``bench/`` wraps every public layer function and reads
size facts from some of them positionally (``bench/spans.py`` TAGS): a
``sim.run`` that raises leaves its span untagged and breaks the per-layer
summary.  One traced ``loop_coarse`` batch checks that the closed loop
keeps that contract, and one traced ``certify`` batch that the solver and
the certificate checks do.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checker  # noqa: E402  (modules of bench/)
import run  # noqa: E402
import workloads  # noqa: E402


def test_traced_loop_coarse_batch_keeps_the_span_contract(tmp_path):
    import hypstab.cli

    ops = workloads.build("loop_coarse", 1, ROOT, tmp_path)
    references = {id(op.system): checker.reference_verdict(op.system) for op in ops if op.command != "run"}
    batch = run.run_batch(hypstab.cli, ops, references, traced=True)
    layers = batch["layers"]
    assert layers["sim.steps"] > 0
    assert layers["sim.energy_s"] > 0.0
    assert [o["rc"] for o in batch["ops"]] == [0] * len(ops)
    failed = [o for o in batch["ops"] if o["failure"] is not None]
    assert all(o["known_defect"] for o in failed), failed


# Exit code of ``check`` per certify config: 2 on the infeasible systems;
# ``oracle`` accepts every certificate.
CERTIFY_CHECK_RC = {
    "supersonic_euler.cfg": 0,
    "subsonic_euler.cfg": 2,
    "narrow_cone.cfg": 0,
    "feasible_n3.cfg": 0,
    "infeasible_n3.cfg": 2,
    "remainder_n6.cfg": 0,
    "infeasible_n6.cfg": 2,
    "feasible_n10.cfg": 0,
}


def test_traced_certify_batch_keeps_the_span_contract(tmp_path):
    import hypstab.cli

    ops = workloads.build("certify", 1, ROOT, tmp_path)
    references = {id(op.system): checker.reference_verdict(op.system) for op in ops}
    batch = run.run_batch(hypstab.cli, ops, references, traced=True)
    assert batch["layers"]["oracle.self_s"] > 0.0
    expected = [CERTIFY_CHECK_RC[Path(op.argv[2]).name] if op.command == "check" else 0 for op in ops]
    assert [o["rc"] for o in batch["ops"]] == expected
    assert [o for o in batch["ops"] if o["failure"] is not None] == []
