"""Workload definitions: what each repetition asks the program to do.

A repetition is a list of ``(subcommand, config)`` calls to
``fkpoisson.experiment.run``.  Configs are generated from the benchmark's
``--seed``; the program receives only these configs.  Every repetition of
a workload does the same calls on the same box; only the program seed
(and, for ``oracle_exact``, p) changes between repetitions.
"""
from __future__ import annotations

import numpy as np

# Repetitions planned per run; a run stops earlier when its time is up.
MAX_REPS = 400

# the reasons for each are in BENCHMARK.json and README.md
NAMES = ("fk_q2", "chenstein_q1", "oracle_exact")

# box and the fixed part of each call's config
FK_Q2 = {"sides": [48, 48], "p": 0.65, "q": 2.0, "samples": 10,
         "burn_in": 30, "thinning": 2}
FK_Q2_N = 4
CHENSTEIN_Q1 = {"sides": [8, 8], "p": 0.6, "q": 1.0, "samples": 10000,
                "n": 2}
ORACLE_EXACT = {"sides": [2, 4], "q": 2.0, "n": 2, "surrogate": "all"}
ORACLE_P = (0.55, 0.70)

# dependence-box half-width for n = 2: the odd side 2*floor(n^2/2)+1 = 5
HALF_WIDTH_N2 = 2


def box_of(workload: str) -> list[int]:
    return {"fk_q2": FK_Q2, "chenstein_q1": CHENSTEIN_Q1,
            "oracle_exact": ORACLE_EXACT}[workload]["sides"]


def plan(workload: str, seed: int, reps: int = MAX_REPS) -> list[list]:
    """Per-repetition calls, a deterministic function of (workload, seed)."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    tag = NAMES.index(workload)
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    seeds = rng.integers(0, 2 ** 31, size=reps).tolist()
    out = []
    if workload == "fk_q2":
        for s in seeds:
            cfg = dict(FK_Q2, seed=s)
            out.append([["sample", cfg], ["census", dict(cfg, n=FK_Q2_N)]])
    elif workload == "chenstein_q1":
        for s in seeds:
            out.append([["chenstein", dict(CHENSTEIN_Q1, seed=s)]])
    else:
        ps = rng.uniform(*ORACLE_P, size=reps).tolist()
        for s, p in zip(seeds, ps):
            out.append([["oracle", dict(ORACLE_EXACT, p=p, seed=s)]])
    return out
