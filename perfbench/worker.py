"""One fresh process of a benchmark run: import potkit, build the workload,
run its ops once (the pass), time the ops marked ``repeat`` again until
``--until``, check every call's output, and print a JSON record as the
last line.

Started by run.py, which sets the thread environment and passes the wall
clock time at which it started this process (``--t0``), so that set-up time
covers interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_potkit():
    """Import potkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import potkit
    if not os.path.abspath(potkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"potkit was imported from {potkit.__file__}, "
                          f"not from {SRC}")
    import potkit.verify  # noqa: F401  (run_check is traced in its module)
    return potkit


def _sample(op, probe):
    """Time one call of the op, less the time the speed probe took during
    it, then check its output outside the timing.  Returns (start, end,
    wall s, cpu s, gates, error)."""
    spent, spent_cpu = probe.spent, probe.spent_cpu
    cpu = time.process_time()
    t = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crash
        out = exc
    end = time.perf_counter()
    cpu = time.process_time() - cpu - (probe.spent_cpu - spent_cpu)
    wall = end - t - (probe.spent - spent)
    if isinstance(out, Exception):
        return t, end, wall, cpu, [], f"{type(out).__name__}: {out}"
    try:
        return t, end, wall, cpu, op.check(out), None
    except Exception as exc:  # an output the check cannot read
        return t, end, wall, cpu, [], f"check {type(exc).__name__}: {exc}"


def run_ops(ops, until=None, probe=None):
    """Time and check every op once, in order (the pass); then, until the
    wall-clock time ``until``, time and check the ops marked ``repeat``
    again, round after round.  With a running ``speed.SpeedProbe``, each
    call's time is also divided by the machine's speed factor while it ran
    (lists ``s`` and ``cpu_s``; ``raw_s`` and ``raw_cpu_s`` keep the
    seconds as measured).  Returns one record per op: its seconds per call,
    whether any call failed, the first error, and the worst ratio of each
    gate (None when non-finite)."""
    probe = probe or speed.SpeedProbe()
    records = [{"op": op.name, "known_defect": op.known_defect,
                "raw_s": [], "raw_cpu_s": [], "window": [], "failed": False,
                "error": None, "gates": {}}
               for op in ops]

    def sample(i):
        start, end, wall, cpu, gates, error = _sample(ops[i], probe)
        rec = records[i]
        rec["raw_s"].append(wall)
        rec["raw_cpu_s"].append(cpu)
        rec["window"].append((start, end))
        rec["error"] = rec["error"] or error
        rec["failed"] |= error is not None or any(
            not (math.isfinite(r) and r <= 1.0) for _, r in gates)
        for gate, r in gates:
            worst = rec["gates"].get(gate, 0.0)
            rec["gates"][gate] = None if (worst is None or not
                                          math.isfinite(r)) else max(worst, r)

    for i in range(len(ops)):
        sample(i)
    again = [i for i, op in enumerate(ops) if op.repeat]
    while again and until is not None and time.time() < until:
        for i in again:
            if time.time() >= until:
                break
            sample(i)
    for rec in records:
        rec["gates"] = sorted(rec["gates"].items())
        factors = [probe.factor(*w) if probe.samples else 1.0
                   for w in rec.pop("window")]
        rec["s"] = [t / f for t, f in zip(rec["raw_s"], factors)]
        rec["cpu_s"] = [t / f for t, f in zip(rec["raw_cpu_s"], factors)]
    return records


def environment(pk):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "potkit": pk.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--until", type=float, default=None,
                    help="wall-clock time (epoch s) up to which the ops "
                         "marked repeat are timed again; default: one pass")
    ap.add_argument("--spans", default=None,
                    help="file for the traced pass's spans (JSON)")
    args = ap.parse_args(argv)

    pk = import_potkit()
    import workloads
    wl = workloads.build(pk, args.workload, args.seed)
    raw_setup_s = time.time() - args.t0
    # the machine's speed lasts for seconds, so the reference timed right
    # after set-up stands for the speed during it
    record = {"setup_s": raw_setup_s / speed.factor_now(),
              "raw_setup_s": raw_setup_s, "env": environment(pk)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    # the traced pass reports seconds as measured; the speed probe would
    # add its own time to the spans it interrupts
    tracer = probe = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe = speed.SpeedProbe()
        probe.start()
    try:
        ops = run_ops(wl.ops, args.until, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the pass: the first call of every op
    record.update(wall_s=sum(op["raw_s"][0] for op in ops),
                  cpu_s=sum(op["raw_cpu_s"][0] for op in ops),
                  peak_rss_mb=peak_mb, ops=ops,
                  speed=[d for _, d in probe.samples] if probe else [])
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "parent", "start", "end"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
