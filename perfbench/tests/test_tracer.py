"""The traced run times the program's own calls: spans nest through the
call stack, calls imported by name are caught, and no time counts twice.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# install() rewires fkpoisson for the rest of its process, so the traced
# calls run in a child of their own
_CHILD = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracer
from fkpoisson import experiment
tr = tracer.install("test")
experiment.run("oracle", {{"sides": [2, 2], "p": 0.6, "q": 2.0, "n": 2,
                           "surrogate": "all", "seed": 1}},
               {out!r} + "/oracle")
tr.rep = 1
experiment.run("chenstein", {{"sides": [6, 6], "p": 0.6, "q": 1.0, "n": 2,
                              "samples": 300, "seed": 2}},
               {out!r} + "/chenstein")
tr.write({out!r} + "/spans.jsonl")
print(json.dumps(tr.metrics(2, [0.01])))
"""


def _traced(tmp_path):
    code = _CHILD.format(bench=BENCH, src=os.path.join(ROOT, "src"),
                         out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(tmp_path / "spans.jsonl") as fh:
        spans = [json.loads(line) for line in fh]
    return metrics, spans


def test_traced_calls_nest_and_add_up(tmp_path):
    metrics, spans = _traced(tmp_path)
    by_id = {s["id"]: s for s in spans}
    names = {f"{s['layer']}.{s['call']}" for s in spans}

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield f"{s['layer']}.{s['call']}"

    # exact laws asked for inside the bound instance are its children
    px = [s for s in spans if s["call"] == "exact_px_field"]
    assert px and all("chenstein.exact_bound_instance" in ancestors(s)
                      for s in px)
    # experiment imports label_clusters by name; its calls are caught
    labels = [s for s in spans if s["call"] == "label_clusters"]
    assert len(labels) == 300
    assert all(s["rep"] == 1 and s["parent"] is not None
               and by_id[s["parent"]]["call"] == "run" for s in labels)
    assert {"lattice.Box.__init__", "lattice.Box.bonds",
            "oracle.conjecture7_check", "census.census_q1_d2"} <= names

    for name in ("oracle.conjecture7_us_per_config",
                 "chenstein.bound_instance_ms", "oracle.px_us_per_config",
                 "census.label_ms_per_config", "chenstein.b3_ms_per_site",
                 "lattice.box_build_ms"):
        assert metrics[name] > 0, name
    assert metrics["oracle.configs"] == 2 ** 4 * 2 / 2  # two enumerations
    assert metrics["fk.sweeps"] == 0
    assert metrics["experiment.other_ms"] >= 0

    # rated times, each net of the rated calls it makes, add up to no
    # more than the two experiment.run calls
    run_ms = 1e3 * sum(s["end"] - s["start"] for s in spans
                       if s["call"] == "run" and s["parent"] is None)
    per_call = {
        "oracle.conjecture7_us_per_config": 1e-3 * 6 * 16,
        "oracle.enumerate_us_per_config": 1e-3 * 2 * 16,
        "oracle.px_us_per_config": 1e-3 * 16,
        "oracle.pxy_us_per_config": 1e-3 * 16,
        "oracle.law_us_per_config": 1e-3 * 2 * 16,
        "chenstein.bound_instance_ms": 1.0,
        "census.label_ms_per_config": 300.0,
        "census.tiled_us_per_sample": 1e-3 * 300,
        "chenstein.pxy_ms_per_sample": 300.0,
        "chenstein.b1_b2_ms": 1.0,
        "chenstein.b3_ms_per_site": 36.0,
        "chenstein.poisson_ms": 1.0,
    }
    rated_ms = sum(metrics[k] * v for k, v in per_call.items())
    assert 0.5 * run_ms < rated_ms <= run_ms
