"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tenant-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off, timing
them with ``hostclock.clock`` (wall time scaled to the host's reference
speed).
``--trace 1`` runs the workload's operations once untraced and once with
every layer's entry points wrapped (see ``tracing.py``), and reports the
per-layer metrics. ``--workload all`` runs every workload, each in its
own process, and prints their metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every correctness check passed. Each run is also appended,
with its run metadata, to ``perfbench/out/results.jsonl``; a traced run
writes its spans to ``perfbench/out/spans-*.csv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from hostclock import clock

# One process, one thread: keep numpy's native libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("tenant-mix", "migrate-storm", "cold-boot", "rewire")


def _median(values):
    return statistics.median(values) if values else 0.0


def run_metadata(args) -> dict:
    """Provenance stamped on every result."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "unix_time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(setup_s, outcome, audit_s, rss_mb) -> dict:
    """The driver-facing end-to-end metrics: ``{name: (value, unit)}``."""
    done = max(outcome.completed, 1)
    return {
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (outcome.completed / outcome.busy_s, "1/s"),
        "op_p50_ms": (_median(outcome.latencies_s) * 1e3, "ms"),
        "completed_share": (outcome.completed / outcome.attempted, "share"),
        "smps_per_op": (outcome.smps / done, "count"),
        "sim_ms_per_op": (outcome.sim_s / done * 1e3, "sim_ms"),
        "verify_s": (_median(audit_s), "s"),
    }


def audit(wl, state):
    """One timed ``verify_subnet``; returns (seconds, problems).

    The heap is collected first, so the audit is not charged for a full
    collection of the spans and garbage the operations left behind.
    """
    from repro.analysis import verification

    gc.collect()
    t0 = clock()
    report = verification.verify_subnet(
        wl.audited_sm(state), sample_every=wl.audit_sample_every
    )
    elapsed = clock() - t0
    return elapsed, [f"verify_subnet: {p}" for p in report.problems()[:5]]


def run_chunks(wl, state, n_ops, between=None):
    """Run the workload's operations in ``wl.chunks`` chunks; returns the
    merged :class:`Outcome`. ``between(k)`` runs after chunk *k*."""
    from workloads import Outcome

    outcome = Outcome()
    for k in range(wl.chunks):
        outcome.merge(wl.run(state, n_ops * (k + 1) // wl.chunks - n_ops * k // wl.chunks))
        if between is not None:
            between(k)
    return outcome


def fresh_setup(wl, seed):
    """Set up from a clean heap and a fresh observability hub (the CLI
    resets the hub per command too); returns (state, boot_s, seconds)."""
    from repro.obs import reset_hub

    gc.collect()
    reset_hub()
    t0 = clock()
    state, boot = wl.setup(seed)
    return state, boot, clock() - t0


def measure(wl, args):
    """Untraced run: the end-to-end metrics, timed on the host clock."""
    clock.start()
    try:
        return _measure(wl, args)
    finally:
        clock.stop()


def _measure(wl, args):
    from workloads import percentile_with_tail

    setup_s, boot_s, audit_s, problems = [], [], [], []
    for _ in range(wl.setup_reps):
        state = None
        state, boot, elapsed = fresh_setup(wl, args.seed)
        setup_s.append(elapsed)
        if boot is not None:
            boot_s.append(boot)

    def between(k):
        elapsed, found = audit(wl, state)
        audit_s.append(elapsed)
        problems.extend(found)

    outcome = run_chunks(wl, state, wl.num_ops(args.seconds), between)
    if not boot_s:  # cold-boot: the boot is the operation
        boot_s = outcome.latencies_s
    problems = outcome.problems + problems + wl.check(state, outcome)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(setup_s, outcome, audit_s, rss_mb)
    p99 = percentile_with_tail(outcome.latencies_s, 99)
    extras = {
        "boot_s": _median(boot_s),
        "fail_share": 1 - outcome.completed / outcome.attempted,
        "failures": dict(outcome.failures),
        "op_p99_ms": p99 * 1e3 if p99 is not None else None,
        "op_samples": len(outcome.latencies_s),
        "setup_samples_s": setup_s,
        "verify_samples_s": audit_s,
        "host_reference_ms": clock.reference_ms(),
        "host_samples": len(clock.samples),
        **outcome.extras,
    }
    return outcome, metrics, extras, problems


def traced(wl, args, run_id):
    """Traced run: the per-layer metrics."""
    from tracing import Tracer, per_layer_metrics

    n_ops = wl.num_ops(args.seconds)
    state = fresh_setup(wl, args.seed)[0]
    reference = run_chunks(wl, state, n_ops)
    state = wl.second_pass(state, args.seed)
    if state is None:
        state = fresh_setup(wl, args.seed)[0]
    gc.collect()
    tracer = Tracer(run_id)
    tracer.install()
    try:
        outcome = run_chunks(wl, state, n_ops)
        audit_s, found = audit(wl, state)
    finally:
        tracer.uninstall()
    problems = outcome.problems + found + wl.check(state, outcome)
    tracer.write(OUT / f"spans-{wl.name}-s{args.seed}-{run_id}.csv.gz")
    metrics = per_layer_metrics(
        tracer,
        routing=outcome.routing,
        num_switches=wl.audited_sm(state).num_switches,
        n_prime=outcome.n_prime,
        service=wl.layer_metrics(state, outcome),
        sim_serial_s=outcome.sim_s,
        traced_s=outcome.busy_s,
        untraced_s=reference.busy_s,
        covered_s=outcome.busy_s + audit_s,
    )
    extras = {"traced_s": outcome.busy_s, "untraced_s": reference.busy_s,
              "audit_s": audit_s, "spans": tracer.num_spans}
    return outcome, metrics, extras, problems


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex[:12]
    if args.trace:
        outcome, metrics, extras, problems = traced(wl, args, run_id)
    else:
        outcome, metrics, extras, problems = measure(wl, args)
    correct = not problems
    record = {
        "run_id": run_id,
        "meta": run_metadata(args),
        "workload_spec": {
            "fabric": wl.fabric, "lid_scheme": wl.scheme, "engine": wl.engine,
            "ops": wl.num_ops(args.seconds),
        },
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.completed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": extras,
        "problems": problems[:20],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in problems[:20]:
        print(f"{wl.name}: CHECK FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{wl.name:14s} {key:36s} {value:14.6g} {unit}")
    for key in ("boot_s", "fail_share", "op_p99_ms", "failures"):
        if key in extras:
            print(f"{wl.name:14s} {key:36s} {extras[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(done.stdout.rstrip("\n").split("\n")[:-1]) + "\n")
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
