"""The measured process: imports fkpoisson, runs the planned repetitions
through ``experiment.run`` and writes its timings.  It makes only the
program's calls and the reference loop; all checking happens in the
parent, so the peak resident memory reported here is the program's.

    python3 harness.py PLAN_JSON RESULT_JSON SPAWNED_AT [setup]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time includes interpreter start-up.
With ``setup`` the process only times its cold set-up and exits.  When
the plan asks for a trace, the repetitions run with ``tracer.py``'s
timing wrappers installed.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

# the Box tables that set-up builds
TABLES = ("bonds", "bond_sites", "site_bonds", "boundary_indices",
          "bond_index")


def _setup(plan: dict):
    """Import the program, validate the first repetition's configs and build
    the workload's box with its cached tables."""
    sys.path.insert(0, plan["src"])
    import fkpoisson
    from fkpoisson import experiment, lattice

    if not os.path.abspath(fkpoisson.__file__).startswith(plan["src"]):
        raise RuntimeError(f"imported fkpoisson from {fkpoisson.__file__}")
    for sub, cfg in plan["reps"][0]:
        experiment.validate_config(sub, cfg)
    sides = plan["reps"][0][0][1]["sides"]
    box = lattice.Box((0,) * len(sides), tuple(sides))
    for table in TABLES:
        getattr(box, table)
    return experiment


def _measure(plan: dict, experiment, reference, tracer=None) -> dict:
    refs = [reference.run()]
    rep_s, errors = [], []
    start = time.perf_counter()
    for i, calls in enumerate(plan["reps"]):
        if i >= plan["min_reps"] and \
                time.perf_counter() - start >= plan["seconds"]:
            break
        if tracer is not None:
            tracer.rep = i
        seconds, err = repetition(experiment, calls,
                                  os.path.join(plan["out"], f"rep{i:04d}"))
        rep_s.append(seconds)
        errors.append(err)
        refs.append(reference.run())
    return {"rep_s": rep_s, "errors": errors, "ref_s": refs}


def repetition(experiment, calls, rep_dir) -> tuple[float, str | None]:
    """Time one repetition's ``experiment.run`` calls; a call that raises
    fails the repetition and is reported, not raised."""
    t0 = time.perf_counter()
    try:
        for sub, cfg in calls:
            experiment.run(sub, cfg, os.path.join(rep_dir, sub),
                           replicas=1, threads=1)
        err = None
    except Exception as exc:  # a failed repetition is counted, not fatal
        err = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, err


def main(argv) -> int:
    plan_path, result_path, spawned_at = argv[1], argv[2], float(argv[3])
    with open(plan_path) as fh:
        plan = json.load(fh)
    experiment = _setup(plan)
    setup_s = time.monotonic() - spawned_at
    import reference
    # the host speed right after set-up, to express set-up at REF_SECONDS
    setup_ref_s = sorted(reference.run() for _ in range(3))[1]
    if argv[4:] == ["setup"]:
        result = {}
    elif plan["trace"]:
        import tracer
        tr = tracer.install(plan["workload"])
        result = _measure(plan, experiment, reference, tr)
        tr.write(plan["trace_path"])
        result["layer_metrics"] = tr.metrics(len(result["rep_s"]),
                                             result["ref_s"])
    else:
        result = _measure(plan, experiment, reference)
    result.update(setup_s=setup_s, setup_ref_s=setup_ref_s,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
