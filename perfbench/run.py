"""fkpoisson benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fk_q2 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``src/fkpoisson``.
The program runs in a child process (``harness.py``) with one thread;
this process generates the inputs from ``--seed``, checks the program's
outputs with the benchmark's own code (``checks.py``) and prints the
result.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads, metrics and the noise they were tuned
against.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import REF_SECONDS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lattice.box_build_ms": "ms",
    "fk.sweep_us_per_site": "us",
    "fk.serialize_us_per_config": "us",
    "fk.sweeps": "count",
    "census.label_ms_per_config": "ms",
    "census.rows_ms_per_sample": "ms",
    "census.jsonl_us_per_row": "us",
    "census.tiled_us_per_sample": "us",
    "census.rows": "count",
    "chenstein.pxy_ms_per_sample": "ms",
    "chenstein.b1_b2_ms": "ms",
    "chenstein.b3_ms_per_site": "ms",
    "chenstein.poisson_ms": "ms",
    "chenstein.bound_instance_ms": "ms",
    "oracle.enumerate_us_per_config": "us",
    "oracle.px_us_per_config": "us",
    "oracle.pxy_us_per_config": "us",
    "oracle.law_us_per_config": "us",
    "oracle.conjecture7_us_per_config": "us",
    "oracle.configs": "count",
    "experiment.other_ms": "ms",
    "host.reference_ms": "ms",
}
# repetitions a measuring run makes even when its time is up: the FK
# identity check needs several independent chains
MIN_REPS = 3
# cold set-ups timed per run, each in a fresh interpreter: the measuring
# process and SETUP_PROCESSES - 1 processes that only set up
SETUP_PROCESSES = 5
# the size of the benchmark's own Monte Carlo for chenstein_q1
CHENSTEIN_REFERENCE_SAMPLES = 40000


def _child(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out = os.path.join(OUT, workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    plan = {"workload": workload, "src": os.path.join(ROOT, "src"),
            "out": out, "seconds": seconds, "trace": trace,
            "min_reps": MIN_REPS, "reps": workloads.plan(workload, seed),
            "trace_path": os.path.join(OUT, "trace",
                                       f"{workload}-seed{seed}.jsonl")}
    if trace:
        os.makedirs(os.path.dirname(plan["trace_path"]), exist_ok=True)
    plan_path = os.path.join(out, "plan.json")
    result_path = os.path.join(out, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    result = _harness(plan_path, result_path, seconds + 120)
    result["plan"] = plan
    extra = 0 if trace else SETUP_PROCESSES - 1
    setups = [result] + [
        _harness(plan_path, os.path.join(out, "setup.json"), 60, "setup")
        for _ in range(extra)]
    result["setups_s"] = [s["setup_s"] for s in setups]
    result["setup_refs_s"] = [s["setup_ref_s"] for s in setups]
    return result


def _harness(plan_path, result_path, timeout, *mode) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "harness.py"), plan_path,
         result_path, repr(spawned_at), *mode],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"harness exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def _check(workload: str, seed: int, result: dict) -> tuple[list, dict]:
    """Per-repetition failures (None when the repetition passed) and the
    run's pooled statistical checks."""
    plan = result["plan"]
    reps = plan["reps"][:len(result["errors"])]
    grid = checks.Grid([0, 0], workloads.box_of(workload))
    h = workloads.HALF_WIDTH_N2
    failures = list(result["errors"])
    pooled = {}
    if workload == "chenstein_q1":
        ref = checks.ChenSteinReference(
            grid, workloads.CHENSTEIN_Q1["p"], workloads.CHENSTEIN_Q1["n"], h,
            CHENSTEIN_REFERENCE_SAMPLES, seed)
    elif workload == "oracle_exact":
        enum = checks.Enumeration(grid)
    residuals = []
    for i, calls in enumerate(reps):
        if failures[i] is not None:
            continue
        rep_dir = os.path.join(plan["out"], f"rep{i:04d}")
        try:
            if workload == "fk_q2":
                residuals.append(checks.check_fk_rep(rep_dir, calls, grid))
            elif workload == "chenstein_q1":
                checks.check_chenstein_rep(rep_dir, calls[0][1], grid, ref, h)
            else:
                checks.check_oracle_rep(rep_dir, calls[0][1], enum, h)
        except checks.CheckFailure as exc:
            failures[i] = f"check: {exc}"
    if workload == "fk_q2" and len(residuals) >= 2:
        try:
            pooled["fk_identity"] = checks.check_fk_identity(residuals)
        except checks.CheckFailure as exc:
            pooled["fk_identity"] = {"failed": str(exc)}
    return failures, pooled


def _end_to_end(result: dict) -> dict:
    """run_s: the median over repetitions of each repetition's wall time
    at the reference host speed, i.e. scaled by REF_SECONDS over the mean
    of the reference loops on either side of it.  setup_s: the median over
    the run's cold set-ups, each scaled by REF_SECONDS over the reference
    loop timed right after it in the same process."""
    refs = result["ref_s"]
    norm = [t * REF_SECONDS / ((refs[i] + refs[i + 1]) / 2)
            for i, t in enumerate(result["rep_s"])]
    setups = [s * REF_SECONDS / r
              for s, r in zip(result["setups_s"], result["setup_refs_s"])]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(norm),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fkpoisson",
                                       "__init__.py")):
        print(f"no fkpoisson sources under {ROOT}/src", file=sys.stderr)
        return 2

    result = _child(args.workload, args.seed, args.seconds, bool(args.trace))
    failures, pooled = _check(args.workload, args.seed, result)
    failed = sum(f is not None for f in failures)
    correct = all("failed" not in v for v in pooled.values())

    if args.trace:
        metrics = {k: {"value": result["layer_metrics"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        values = _end_to_end(result)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    rep_s = result["rep_s"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  repetitions {len(failures)}")
    print(f"  raw repetition s: median {statistics.median(rep_s):.4f}  "
          f"min {min(rep_s):.4f}  max {max(rep_s):.4f}")
    refs = result["ref_s"]
    print(f"  reference loop s: median {statistics.median(refs):.4f}  "
          f"min {min(refs):.4f}  max {max(refs):.4f}  "
          f"(nominal {REF_SECONDS})")
    print("  cold set-ups s: "
          + " ".join(f"{v:.4f}" for v in result["setups_s"]))
    print("  reference after set-up s: "
          + " ".join(f"{v:.4f}" for v in result["setup_refs_s"]))
    for name, v in pooled.items():
        print(f"  pooled check {name}: {v}")
    for i, f in enumerate(failures):
        if f is not None:
            print(f"  repetition {i} FAILED: {f}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"  spans: {result['plan']['trace_path']}")
    print(json.dumps({"correct": correct, "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
