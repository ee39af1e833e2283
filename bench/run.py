"""hypstab benchmark: drives ``hypstab.cli.main`` in-process over one workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Operations run back to back (a
closed loop with one client) in batches until ``--seconds`` have passed; each
output is checked by ``checker``.  The last stdout line is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of traced batches, which alternate with
untraced ones to measure the tracing overhead.  A result file with the
environment and every operation's outcome goes to ``.bench_work/results/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402  (sibling modules of this script)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# Tolerance of the traced-run identity sum(self times) + cli.other_s = wall_s.
ACCOUNTING_RTOL = 1e-9


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _require_sources() -> None:
    missing = [p for p in ("src/hypstab/cli.py", "configs/supersonic_euler.cfg") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: not a hypstab source checkout ({', '.join(missing)} missing under {ROOT})")


def _setup(workload: str, seed: int, work: Path):
    """What setup_s times: import the CLI and write the workload's configs."""
    import hypstab.cli

    if Path(hypstab.cli.__file__).resolve().parent != ROOT / "src" / "hypstab":
        sys.exit(f"bench: imported hypstab from {hypstab.cli.__file__}, not from {ROOT / 'src'}")
    return hypstab.cli, workloads.build(workload, seed, ROOT, work)


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median wall time of fresh interpreters running ``_setup``."""
    times = []
    for rep in range(SETUP_REPS):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only", str(work / f"setup{rep}")]
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantizes the measured time.
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op) -> tuple[int | None, float, str, str]:
    """(exit code or None if it raised, seconds, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # an operation that raises is a failed operation
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def run_batch(cli, ops, references, traced: bool) -> dict:
    """One pass over the workload's operations, each checked."""
    tracer = spans.Tracer()
    outcomes = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with tracer.installed() if traced else contextlib.nullcontext():
        for op in ops:
            op.clear_outputs()
            rc, seconds, out, err = run_op(cli, op)
            outcomes.append((op, rc, seconds, out, err))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    batch = {"traced": traced, "wall": sum(o[2] for o in outcomes), "minor_faults": faults, "ops": []}
    cell_steps, run_seconds = 0, 0.0
    for op, rc, seconds, out, err in outcomes:
        reason = checker.check(op, references.get(id(op.system)), rc, out) if rc is not None else err.strip()
        batch["ops"].append({"op": op.label, "rc": rc, "seconds": seconds, "failure": reason, "known_defect": op.known_defect})
        steps = re.search(r"steps=(\d+)", out)
        if op.command == "run" and steps:
            cell_steps += math.prod(op.system.cells) * int(steps.group(1))
            run_seconds += seconds
    batch["cell_steps"], batch["run_seconds"] = cell_steps, run_seconds
    if traced:
        batch["layers"] = spans.layer_metrics(tracer.spans, batch["wall"])
    return batch


def environment(seed: int, threads: str | None) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        hit = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE)
        cpu = hit.group(1) if hit else cpu
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypstab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "HYPSTAB_THREADS": threads if threads is not None else "unset",
    }


def _median_batch(batches: list[dict]) -> dict:
    return sorted(batches, key=lambda b: b["wall"])[(len(batches) - 1) // 2]


def summarize(args, batches: list[dict], setup_s: float | None, failed: int) -> tuple[dict, list[str]]:
    """Metrics of the run and the list of internal errors (empty if none)."""
    attempted = sum(len(b["ops"]) for b in batches)
    plain = [b for b in batches if not b["traced"]]
    errors = []
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(b["wall"] for b in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        return metrics, errors
    traced = [b for b in batches if b["traced"]]
    for b in traced:
        layers = b["layers"]
        total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS) + layers["cli.other_s"]
        if abs(total - b["wall"]) > ACCOUNTING_RTOL * b["wall"] or layers["cli.other_s"] < 0.0:
            errors.append(f"span accounting: self times + other = {total!r}, wall = {b['wall']!r}")
    median = _median_batch(traced)
    metrics = dict(median["layers"], **{"cli.minor_faults": median["minor_faults"]})
    metrics["trace.overhead_s"] = statistics.median(b["wall"] for b in traced) - statistics.median(b["wall"] for b in plain)
    run_seconds = sum(b["run_seconds"] for b in plain)
    metrics["cell_steps_per_s"] = sum(b["cell_steps"] for b in plain) / run_seconds if run_seconds else 0.0
    metrics["fail_ratio"] = failed / attempted
    return metrics, errors


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()
    threads = os.environ.pop("HYPSTAB_THREADS", None)  # the workloads use the solver's default
    if args.setup_only:
        _setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, work)
        cli, ops = _setup(args.workload, args.seed, work / "ops")
        references = {id(op.system): checker.reference_verdict(op.system) for op in ops if op.command != "run"}
        batches = []
        start = time.perf_counter()
        while not batches or time.perf_counter() - start < args.seconds:
            for traced in (False, True) if args.trace else (False,):
                batches.append(run_batch(cli, ops, references, traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = [o for b in batches for o in b["ops"]]
    failures = Counter((o["op"], o["failure"], o["known_defect"]) for o in all_ops if o["failure"] is not None)
    metrics, errors = summarize(args, batches, setup_s, sum(failures.values()))
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": all(defect is not None for _, _, defect in failures) and not errors,
        "attempted": len(all_ops),
        "failed": sum(failures.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, threads),
        "references": {Path(op.argv[2]).name: references[id(op.system)] for op in ops if id(op.system) in references},
        "batches": [{"traced": b["traced"], "wall": b["wall"]} for b in batches],
        "operations": batches[0]["ops"],
        "failures": [{"op": k[0], "failure": k[1], "known_defect": k[2], "count": v} for k, v in failures.items()],
        "errors": errors,
        "result": result,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for (label, reason, defect), count in failures.items():
        print(f"FAILED x{count} {label}: {reason}" + (f" [known defect: {defect}]" if defect else ""))
    for error in errors:
        print(f"ERROR {error}")
    print(f"{len(batches)} batches, {len(all_ops)} operations; details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
