"""potkit benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload potentials --seed 1 --seconds 40 --trace 0

With ``--trace 0`` a run starts set-up-only worker processes to sample
set-up time, then one worker process that makes a pass over the workload's
ops (in a fresh process, so module-level caches start empty, as for a CLI
user) and times the ops marked ``repeat`` again until ``--seconds`` after
the run began; the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced one-pass workers alternate, and the line
carries the per-layer metrics.  Workers run with one BLAS/OpenMP thread.
The line before the result records the environment.  Exits non-zero,
without a result, when potkit's sources are missing or a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench")

import speed
from workloads import WORKLOADS

THREADS = "1"
HARD_CAP_S = 170.0
SETUP_SAMPLES = 3

END_TO_END = {"wall_s": "s", "op_s_p50": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "fail_frac": "ratio", "gate_use": "ratio"}

_LAYER_COUNTS = {
    "penergy.energy_and_grad": ("calls", "s"),
    "penergy.minimize_p_energy": ("calls", "s", "self_s", "iters"),
    "penergy.newton_polish": ("calls", "s", "self_s"),
    "penergy.spsolve": ("calls", "s"),
    "plaplace.solve_p_dirichlet": ("calls", "s"),
    "capacity.p_capacity": ("calls", "s", "levels"),
    "capacity.annulus_term": ("calls", "s"),
    "capacity.riesz_capacity": ("calls", "s", "iters", "sites"),
    "sets.sample_points": ("calls", "s", "points"),
    "sets.meets_cells": ("calls", "s"),
    **{f"wolff.wolff_potential.{k}": ("calls", "s")
       for k in ("atomic", "radial", "grid")},
    "measures.radial_mass_profile": ("calls", "s"),
    **{f"riesz.riesz_potential.{k}": ("calls", "s")
       for k in ("atomic", "radial", "grid")},
    "plaplace.envelope_check": ("calls", "s"),
    "verify.run_check": ("calls", "s"),
}
PER_LAYER = {f"{layer}.{field}": "s" if field in ("s", "self_s") else "count"
             for layer, fields in _LAYER_COUNTS.items() for field in fields}
PER_LAYER.update({"wolff.nonfinite": "count", "run.cpu_s": "s",
                  "run.trace_overhead_s": "s"})


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, *, trace=0, setup_only=False, spans=None,
          until=None, timeout=HARD_CAP_S):
    """Run one worker process to completion; returns its JSON record."""
    env = dict(os.environ, OMP_NUM_THREADS=THREADS,
               OPENBLAS_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS,
               PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    if until is not None:
        cmd += ["--until", repr(until)]
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_rounds(workload, seed, *, budget, deadline):
    """Pairs of fresh one-pass workers, untraced then traced, until the next
    pair would end after ``budget`` seconds; always at least one pair.
    Returns the untraced and the traced records."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(spawn(workload, seed,
                           timeout=deadline - time.monotonic()))
        spans = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}"
                                        f"-{len(traced)}.json")
        traced.append(spawn(workload, seed, trace=1, spans=spans,
                            timeout=deadline - time.monotonic()))
        now = time.monotonic()
        if now - start + (now - t) > budget:
            return plain, traced


def summarize_ops(records):
    """Attempted and failed op counts; correct when every failed op is a
    declared known defect."""
    ops = [op for rec in records for op in rec["ops"]]
    failed = [op for op in ops if op["failed"]]
    correct = all(op["known_defect"] for op in failed)
    return len(ops), len(failed), correct, failed


def end_to_end(record, setups) -> dict:
    """An op's time is the median of its calls; ``wall_s`` and ``cpu_s``
    add these up over all ops, ``op_s_p50`` is their median over the ops
    that did not fail."""
    ops = record["ops"]
    ok = [op for op in ops if not op["failed"]]
    gates = [r for op in ok for _, r in op["gates"] if r is not None]
    values = {
        "wall_s": sum(statistics.median(op["s"]) for op in ops),
        "op_s_p50": statistics.median(statistics.median(op["s"])
                                      for op in ok),
        "cpu_s": sum(statistics.median(op["cpu_s"]) for op in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
        "fail_frac": (len(ops) - len(ok)) / len(ops),
        "gate_use": max(gates) if gates else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def as_measured(record, setups) -> dict:
    """The timings before the speed correction, and the machine's median
    speed factor over the run."""
    ops = record["ops"]
    return {"raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups),
            "raw_wall_s": sum(statistics.median(op["raw_s"]) for op in ops),
            "raw_op_s_p50": statistics.median(
                statistics.median(op["raw_s"]) for op in ops
                if not op["failed"]),
            "speed_factor": statistics.median(record["speed"])
            / speed.REFERENCE_S,
            "speed_samples": len(record["speed"])}


def per_layer(plain, traced) -> dict:
    values = {}
    for name in PER_LAYER:
        if name.startswith("run."):
            continue
        values[name] = statistics.median(r["layers"].get(name, 0)
                                         for r in traced)
    values["run.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    values["run.trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "potkit", "__init__.py")):
        print(f"potkit sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_CAP_S
    try:
        if args.trace:
            plain, traced = run_rounds(args.workload, args.seed,
                                       budget=args.seconds, deadline=deadline)
            records = plain + traced
            metrics = per_layer(plain, traced)
        else:
            until = time.time() + args.seconds
            setups = [spawn(args.workload, args.seed, setup_only=True,
                            timeout=deadline - time.monotonic())
                      for _ in range(SETUP_SAMPLES - 1)]
            record = spawn(args.workload, args.seed, until=until,
                           timeout=deadline - time.monotonic())
            records = [record]
            setups.append(record)
            metrics = end_to_end(record, [r["setup_s"] for r in setups])
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, failures = summarize_ops(records)
    for name, error in sorted({(op["op"], op["error"] or "missed a gate")
                               for op in failures}):
        print(f"failed op {name}: {error}", file=sys.stderr)
    info = {"env": records[0]["env"], "workload": args.workload,
            "seed": args.seed, "workers": len(records),
            "calls": sum(len(op["s"]) for rec in records for op in rec["ops"])}
    if not args.trace:
        info.update(as_measured(record, setups))
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
