"""Each checker of the benchmark passes on the program's real output and
fails on output that is wrong in one place.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from fkpoisson import census, experiment, fk, lattice  # noqa: E402


def _chains(box, q, chains=30, seed=0):
    """Independent FK chains at p = 0.65 on ``box``; q = 1 draws directly."""
    out = []
    for c in range(chains):
        ss = np.random.SeedSequence([seed, c])
        if q == 1.0:
            rng = np.random.default_rng(ss)
            out.append((rng.random((10, box.n_bonds)) < 0.65).astype(np.uint8))
        else:
            out.append(fk.sample_states(fk.FKParams(0.65, q), box, 10,
                                        thinning=2, burn_in=30, seed=ss))
    return out


def test_fk_identity_accepts_q2_and_rejects_q1_q3():
    box = lattice.Box((0, 0), (24, 24))
    grid = checks.Grid((0, 0), (24, 24))

    def residuals(q):
        return [checks.fk_identity_residuals(grid, s, 0.65, 2.0)
                for s in _chains(box, q)]

    checks.check_fk_identity(residuals(2.0))
    for wrong_q in (1.0, 3.0):
        with pytest.raises(checks.CheckFailure, match="FK identity"):
            checks.check_fk_identity(residuals(wrong_q))


def test_parser_reads_records_and_rejects_bad_lengths():
    box = lattice.Box((0, 0), (3, 3))
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    state[[0, 5, 11]] = 1
    blob = fk.config_to_bytes(fk.BondConfig(box, state),
                              fk.FKParams(0.6, 2.0), seed=7, sweep_index=3)
    rec = checks.parse_fkc_record(blob)
    assert rec["sides"] == (3, 3) and rec["seed"] == 7 and rec["sweep"] == 3
    assert np.array_equal(rec["state"], state)
    stream = len(blob).to_bytes(4, "little") + blob
    assert len(checks.parse_fkc_stream(stream * 2)) == 2
    with pytest.raises(checks.CheckFailure, match="truncated"):
        checks.parse_fkc_record(blob[:-1])
    with pytest.raises(checks.CheckFailure, match="trailing"):
        checks.parse_fkc_record(blob + b"\0")
    with pytest.raises(checks.CheckFailure, match="past the end"):
        checks.parse_fkc_stream(stream[:-1])


def test_labeler_matches_program_labels():
    box = lattice.Box((-2, -3), (7, 6))
    grid = checks.Grid((-2, -3), (7, 6))
    assert [tuple(b) for b in grid.bonds] == \
        [tuple(r) for r in box.bond_sites.tolist()]
    rng = np.random.default_rng(5)
    states = (rng.random((20, box.n_bonds)) < 0.55).astype(np.uint8)
    table = checks.ClusterTable(grid, states)
    for i, s in enumerate(states):
        ours = sorted(
            (int(sz), tuple(int(v) for v in c), bool(t)) for sz, c, t in
            zip(table.size[table.owner == i], table.center[table.owner == i],
                table.touches[table.owner == i]))
        theirs = sorted((c.size, c.mass_center, c.touches_boundary)
                        for c in census.label_clusters(
                            fk.BondConfig(box, s)).clusters)
        assert ours == theirs


def test_poisson_pmf_and_distance():
    lam = 1.7
    pmf = [checks.poisson_pmf(k, lam) for k in range(60)]
    assert math.isclose(sum(pmf), 1.0, rel_tol=1e-12)
    assert math.isclose(sum(k * p for k, p in enumerate(pmf)), lam,
                        rel_tol=1e-12)
    assert checks.poisson_tv(dict(enumerate(pmf)), lam) < 1e-12
    assert math.isclose(checks.poisson_tv({0: 1.0}, lam),
                        2.0 * (1.0 - math.exp(-lam)), rel_tol=1e-12)


@pytest.fixture
def oracle_rep(tmp_path):
    cfg = {"sides": [2, 3], "p": 0.6, "q": 2.0, "n": 2, "surrogate": "all",
           "seed": 1}
    experiment.run("oracle", cfg, str(tmp_path / "oracle"))
    return str(tmp_path), cfg, str(tmp_path / "oracle" / "rep000"
                                   / "oracle.json")


def test_oracle_check_rejects_moved_probability(oracle_rep):
    rep_dir, cfg, path = oracle_rep
    enum = checks.Enumeration(checks.Grid((0, 0), (2, 3)))
    checks.check_oracle_rep(rep_dir, cfg, enum, 2)
    with open(path) as fh:
        doc = json.load(fh)
    doc["distribution"][5]["probability"] += 1e-6
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(checks.CheckFailure, match="probability table"):
        checks.check_oracle_rep(rep_dir, cfg, enum, 2)


@pytest.fixture(scope="module")
def chenstein_rep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chenstein")
    cfg = {"sides": [8, 8], "p": 0.6, "q": 1.0, "samples": 4000, "n": 2,
           "seed": 3}
    experiment.run("chenstein", cfg, str(tmp / "chenstein"))
    grid = checks.Grid((0, 0), (8, 8))
    ref = checks.ChenSteinReference(grid, 0.6, 2, 2, 20000, seed=9)
    return str(tmp), cfg, grid, ref


def _edit_report(rep_dir, edit):
    path = os.path.join(rep_dir, "chenstein", "rep000", "report.json")
    with open(path) as fh:
        doc = json.load(fh)
    original = json.dumps(doc)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path, original


def test_chenstein_check_rejects_one_px_site_changed(chenstein_rep):
    rep_dir, cfg, grid, ref = chenstein_rep
    checks.check_chenstein_rep(rep_dir, cfg, grid, ref, 2)
    site = grid.site_index((2, 5))

    def bump(doc):
        doc["px_field"][site] += 0.02
    path, original = _edit_report(rep_dir, bump)
    try:
        with pytest.raises(checks.CheckFailure, match="b1"):
            checks.check_chenstein_rep(rep_dir, cfg, grid, ref, 2)
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def test_chenstein_check_rejects_moved_px_mass(chenstein_rep):
    """Mass moved between two sites with every derived sum kept consistent:
    only the comparison with the benchmark's own Monte Carlo catches it."""
    rep_dir, cfg, grid, ref = chenstein_rep
    a, b = grid.site_index((2, 5)), grid.site_index((3, 3))

    def move(doc):
        px = doc["px_field"]
        delta = min(0.02, px[b])
        px[a] += delta
        px[b] -= delta
        arr = np.array(px)
        near = (np.abs(grid.coords[:, None] - grid.coords[None]) <= 2).all(2)
        rep = doc["report"]
        rep["b1"] = float((np.outer(arr, arr) * near).sum())
        rep["sum_px2"] = float((arr ** 2).sum())
        for end in ("lo", "hi"):
            rep["tv_bound"][end] = 2.0 * (2.0 * rep["b1"] + 2.0 * rep["b2"]
                                          + rep["b3"][end]) \
                + 4.0 * rep["sum_px2"]
    path, original = _edit_report(rep_dir, move)
    try:
        with pytest.raises(checks.CheckFailure, match="px"):
            checks.check_chenstein_rep(rep_dir, cfg, grid, ref, 2)
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == \
        bench_run.workloads.NAMES
