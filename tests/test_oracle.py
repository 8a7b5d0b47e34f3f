import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fkpoisson import oracle
from fkpoisson.census import mass_center
from fkpoisson.fk import (FREE, WIRED, BoundaryCondition, FKParams,
                          ResourceCapError, label_sites)
from fkpoisson.lattice import Box
from reference_labelers import (DisjointSet, conjecture7_pair,
                                label_clusters_bfs, pattern_key, tv_sup_form)

CHAIN4 = Box((0,), (4,))
CHAIN6 = Box((0,), (6,))


def chain_runs(bits):
    """Independent 1-d cluster oracle: clusters of a chain are the maximal
    runs of sites joined by open bonds."""
    k = len(bits) + 1
    runs = []
    start = 0
    for j, b in enumerate(bits):
        if not b:
            runs.append(list(range(start, j + 1)))
            start = j + 1
    runs.append(list(range(start, k)))
    return runs


def test_enumerate_normalization_and_z():
    for p, q in [(0.5, 2.0), (0.3, 1.0), (0.8, 1.5)]:
        dist = oracle.enumerate_measure(Box.cube(2, 2), FKParams(p, q))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(dist.log_z)


def test_enumerate_single_bond():
    dist = oracle.enumerate_measure(Box((0,), (2,)), FKParams(0.5, 2.0))
    assert dist.probs[0] == pytest.approx(2.0 / 3.0)
    assert dist.probs[1] == pytest.approx(1.0 / 3.0)


def test_enumerate_q1_is_product():
    box = Box.cube(2, 2)
    p = 0.35
    dist = oracle.enumerate_measure(box, FKParams(p, 1.0))
    for i in range(dist.n_configs):
        k = int(i).bit_count()
        expect = p ** k * (1 - p) ** (box.n_bonds - k)
        assert abs(dist.probs[i] - expect) < 1e-12


def test_free_vs_wired_differ_but_normalize():
    box = Box.cube(2, 2)
    d_free = oracle.enumerate_measure(box, FKParams(0.5, 2.0, FREE))
    d_wired = oracle.enumerate_measure(box, FKParams(0.5, 2.0, WIRED))
    assert d_free.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert d_wired.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(d_free.probs - d_wired.probs).max() > 1e-6


def test_enumerate_cap():
    big = Box.cube(2, 6)  # 60 bonds
    with pytest.raises(ResourceCapError):
        oracle.enumerate_measure(big, FKParams(0.5, 1.0))


def test_point_law_n_too_large_is_zero_field():
    dist = oracle.enumerate_measure(CHAIN4, FKParams(0.5, 1.0))
    law = oracle.exact_point_process_law(dist, n=9)
    assert set(law.table) == {pattern_key(np.zeros(4, dtype=bool))}


def test_point_law_all_finite_surrogate_deterministic():
    box = Box((0,), (3,))
    dist = oracle.enumerate_measure(box, FKParams(1.0, 1.0))
    law = oracle.exact_point_process_law(dist, n=1, surrogate="all")
    assert len(law.table) == 1
    (key, prob), = law.table.items()
    assert prob == pytest.approx(1.0)
    assert list(law.unpack(key).astype(int)) == [0, 1, 0]  # center of 0,1,2


def test_point_law_chain4_vs_independent_runs():
    p, n = 0.5, 2
    dist = oracle.enumerate_measure(CHAIN4, FKParams(p, 1.0))
    law = oracle.exact_point_process_law(dist, n)
    table = {}
    for bits in itertools.product((0, 1), repeat=3):
        prob = np.prod([p if b else 1 - p for b in bits])
        field = np.zeros(4, dtype=bool)
        for run in chain_runs(bits):
            touches = 0 in run or 3 in run
            if not touches and len(run) >= n:
                field[int(np.floor(np.mean(run)))] = True
        key = pattern_key(field)
        table[key] = table.get(key, 0.0) + float(prob)
    assert set(table) == set(law.table)
    for k in table:
        assert law.table[k] == pytest.approx(table[k], abs=1e-12)


def test_exact_tv_trivial_and_forms_agree():
    dist = oracle.enumerate_measure(CHAIN6, FKParams(0.5, 1.0))
    law = oracle.exact_point_process_law(dist, 2)
    assert oracle.exact_tv(law, law) == 0.0
    px = oracle.exact_px_field(dist, 2)
    prod = oracle.product_law(px, CHAIN6)
    tv = oracle.exact_tv(law, prod)
    assert 0.0 < tv < 2.0
    assert tv_sup_form(law, prod) == pytest.approx(tv, abs=1e-12)
    # point masses on distinct patterns are at distance 2
    a = oracle.PatternLaw(CHAIN4, 1, "plain",
                          {pattern_key(np.array([1, 0, 0, 0], bool)): 1.0})
    b = oracle.PatternLaw(CHAIN4, 1, "plain",
                          {pattern_key(np.array([0, 1, 0, 0], bool)): 1.0})
    assert oracle.exact_tv(a, b) == pytest.approx(2.0)
    assert tv_sup_form(a, b) == pytest.approx(2.0)


def test_exact_tv_mismatched_spaces():
    d4 = oracle.enumerate_measure(CHAIN4, FKParams(0.5, 1.0))
    d6 = oracle.enumerate_measure(CHAIN6, FKParams(0.5, 1.0))
    with pytest.raises(ValueError):
        oracle.exact_tv(oracle.exact_point_process_law(d4, 2),
                        oracle.exact_point_process_law(d6, 2))


def test_marginal_consistency():
    # exact p_x from the pattern law equals the configuration-level event
    dist = oracle.enumerate_measure(CHAIN6, FKParams(0.6, 1.5))
    law = oracle.exact_point_process_law(dist, 2)
    px = oracle.exact_px_field(dist, 2)
    for i in range(CHAIN6.n_sites):
        assert law.marginal(i) == pytest.approx(px[i], abs=1e-12)


def test_conjecture7_trivial_cases():
    params = FKParams(0.5, 1.0)
    res = oracle.conjecture7_check(CHAIN6, params, n=99, x=(1,), y=(4,))
    assert res.lhs == 0.0 and res.holds
    res = oracle.conjecture7_check(CHAIN6, params, n=2, x=(2,), y=(2,))
    assert res.lhs == 0.0  # same site: clusters cannot be disjoint


def test_conjecture7_exhaustive_value():
    # 1x6 chain: lhs by independent run enumeration
    p, n = 0.5, 2
    params = FKParams(p, 1.0)
    res = oracle.conjecture7_check(CHAIN6, params, n=n, x=(1,), y=(4,))
    lhs = 0.0
    rhs = 0.0
    for bits in itertools.product((0, 1), repeat=5):
        prob = float(np.prod([p if b else 1 - p for b in bits]))
        runs = chain_runs(bits)
        def run_of(site):
            return next(r for r in runs if site in r)
        rx, ry = run_of(1), run_of(4)
        okx = 0 not in rx and 5 not in rx and len(rx) >= n
        oky = 0 not in ry and 5 not in ry and len(ry) >= n
        if rx != ry and okx and oky:
            lhs += prob
        rz = run_of(2)  # center site of the 6-chain
        if 0 not in rz and 5 not in rz and len(rz) >= 2 * n:
            rhs += prob
    assert res.lhs == pytest.approx(lhs, abs=1e-12)
    assert res.rhs == pytest.approx(rhs, abs=1e-12)


def test_ratio_mixing_product_measure_is_zero():
    box = Box((0,), (8,))
    dist = oracle.enumerate_measure(box, FKParams(0.7, 1.0))
    r = oracle.exact_ratio_mixing(dist, [box.bonds[0]], [box.bonds[6]])
    assert r < 1e-12


def test_ratio_mixing_empty_region():
    box = Box((0,), (6,))
    dist = oracle.enumerate_measure(box, FKParams(0.7, 2.0))
    assert oracle.exact_ratio_mixing(dist, [], [box.bonds[0]]) == 0.0


def test_ratio_mixing_overlap_errors():
    box = Box((0,), (6,))
    dist = oracle.enumerate_measure(box, FKParams(0.7, 2.0))
    with pytest.raises(ValueError):
        oracle.exact_ratio_mixing(dist, [box.bonds[0]], [box.bonds[0]])


def test_ratio_mixing_decreases_on_ladder():
    # the one-dimensional chain with free boundary is a tree, where the
    # measure factorizes and every coefficient vanishes; the 2-row ladder
    # is the smallest strip with genuine dependence
    box = Box((0, 0), (2, 5))
    dist = oracle.enumerate_measure(box, FKParams(0.7, 2.0))
    rungs = [b for b in box.bonds if b[0][1] == b[1][1]]
    coefs = [oracle.exact_ratio_mixing(dist, [rungs[0]], [rungs[j]])
             for j in (1, 2, 3, 4)]
    assert all(c > 0 for c in coefs)
    assert coefs == sorted(coefs, reverse=True)


def test_ratio_mixing_brute_force_small():
    # brute-force over all event pairs on two 2-bond regions
    box = Box((0, 0), (2, 4))
    dist = oracle.enumerate_measure(box, FKParams(0.6, 2.0))
    r1 = [box.bond_index[b] for b in box.bonds[:2]]
    r2 = [box.bond_index[b] for b in box.bonds[-2:]]
    got = oracle.exact_ratio_mixing(dist, r1, r2)
    idx = np.arange(dist.n_configs)
    best = 0.0
    for e_mask in range(1, 16):
        in_e = np.zeros(dist.n_configs, dtype=bool)
        for atom in range(4):
            if (e_mask >> atom) & 1:
                sel = ((idx >> r1[0]) & 1) == (atom & 1)
                sel &= ((idx >> r1[1]) & 1) == ((atom >> 1) & 1)
                in_e |= sel
        pe = dist.probs[in_e].sum()
        if pe == 0:
            continue
        for f_mask in range(1, 16):
            in_f = np.zeros(dist.n_configs, dtype=bool)
            for atom in range(4):
                if (f_mask >> atom) & 1:
                    sel = ((idx >> r2[0]) & 1) == (atom & 1)
                    sel &= ((idx >> r2[1]) & 1) == ((atom >> 1) & 1)
                    in_f |= sel
            pf = dist.probs[in_f].sum()
            if pf == 0:
                continue
            pef = dist.probs[in_e & in_f].sum()
            best = max(best, abs(pef / (pe * pf) - 1.0))
    assert got == pytest.approx(best, abs=1e-10)


def test_sample_exact_matches_distribution():
    dist = oracle.enumerate_measure(CHAIN4, FKParams(0.5, 2.0))
    states = oracle.sample_exact(dist, 20000, seed=3)
    weights = 1 << np.arange(3)
    idx = states @ weights
    freq = np.bincount(idx, minlength=8) / len(idx)
    assert np.abs(freq - dist.probs).sum() < 0.02


# ---------------------------------------------------------------------------
# the cached cluster tables against the census labeler, and the reductions
# over them against configuration loops

BOX22 = Box((0, 0), (2, 2))
PARTITION22 = BoundaryCondition.partition([{(0, 0), (1, 1)}, {(0, 1)},
                                           {(1, 0)}])
TABLE_CASES = [
    (Box((0, 0), (2, 3)), FKParams(0.6, 1.5)),
    (Box.centered(1, 7), FKParams(0.5, 2.0)),  # negative coordinates
    (BOX22, FKParams(0.55, 2.0, WIRED)),
    (BOX22, FKParams(0.45, 3.0, PARTITION22)),
    # a ring around the center site shares its mass center with it
    (Box.cube(2, 3), FKParams(0.5, 1.0)),
]


def reference_measure(box, params):
    """Configuration weights by a disjoint set per configuration, with the
    boundary classes glued, normalized as ``enumerate_measure`` does."""
    m = box.n_bonds
    logw = np.full(1 << m, -np.inf)
    bs = box.bond_sites
    for i in range(1 << m):
        k = int(i).bit_count()
        base = k * math.log(params.p) + (m - k) * math.log(1.0 - params.p)
        ds = DisjointSet(box.n_sites)
        for j in range(m):
            if (i >> j) & 1:
                ds.union(int(bs[j, 0]), int(bs[j, 1]))
        for group in params.boundary.class_lists(box):
            for other in group[1:]:
                ds.union(group[0], other)
        cl = len({ds.find(s) for s in range(box.n_sites)})
        logw[i] = base + cl * math.log(params.q)
    mx = logw.max()
    w = np.exp(logw - mx)
    return w / w.sum()


def reference_clusters(dist, i):
    """(sizes, touches, center indices) of the open-bond clusters of
    configuration i, one entry per cluster, plus each site's cluster,
    by graph search rather than by the labeler that builds the tables."""
    box = dist.box
    cs = label_clusters_bfs(dist.config_of(i))
    sizes = [c.size for c in cs.clusters]
    touches = [c.touches_boundary for c in cs.clusters]
    centers = [box.site_index(mass_center(c.sites)) for c in cs.clusters]
    of_site = [cs.site_cluster[x] for x in box.sites]
    return sizes, touches, centers, of_site


def finite_ok(touches, surrogate):
    return (not touches) if surrogate == "boundary" else True


@pytest.mark.parametrize("box,params", TABLE_CASES)
def test_cluster_tables_match_census_labeler(box, params):
    dist = oracle.enumerate_measure(box, params)
    t = dist.cluster_tables
    assert t.label.dtype == t.size.dtype == t.center.dtype == np.uint8
    assert t.touches.dtype == bool
    assert t.label.shape == (dist.n_configs, box.n_sites)
    for i in range(dist.n_configs):
        sizes, touches, centers, of_site = reference_clusters(dist, i)
        for s, c in enumerate(of_site):
            members = [j for j, cj in enumerate(of_site) if cj == c]
            assert t.label[i, s] == min(members)
            assert t.size[i, s] == sizes[c]
            assert t.touches[i, s] == touches[c]
            assert t.center[i, s] == centers[c]


@pytest.mark.parametrize("box,params", TABLE_CASES[2:4])
def test_enumerate_matches_disjoint_set_weights(box, params):
    dist = oracle.enumerate_measure(box, params)
    assert np.array_equal(dist.probs, reference_measure(box, params))


@pytest.mark.parametrize("box,params", TABLE_CASES)
@pytest.mark.parametrize("surrogate", ["boundary", "all"])
@pytest.mark.parametrize("n", [1, 2])
def test_reductions_equal_configuration_loops(box, params, surrogate, n):
    """px, pxy, the pattern law and conjecture 7 equal, bit for bit, the
    same sums taken one configuration at a time in index order."""
    dist = oracle.enumerate_measure(box, params)
    k = box.n_sites
    px = np.zeros(k)
    pxy = np.zeros((k, k))
    law: dict[bytes, float] = {}
    x, y, z = 0, k - 1, box.site_index(box.center)
    lhs = rhs = 0.0
    for i in range(dist.n_configs):
        pr = dist.probs[i]
        sizes, touches, centers, of_site = reference_clusters(dist, i)
        qual = [centers[c] for c in range(len(sizes))
                if finite_ok(touches[c], surrogate) and sizes[c] >= n]
        field = np.zeros(k, dtype=bool)
        field[qual] = True
        px += pr * field
        for a, b in {(a, b) for ia, a in enumerate(qual)
                     for ib, b in enumerate(qual) if ia != ib}:
            pxy[a, b] += pr
        if pr != 0.0:
            key = pattern_key(field)
            law[key] = law.get(key, 0.0) + float(pr)

        def large(site, thresh):
            c = of_site[site]
            return finite_ok(touches[c], surrogate) and sizes[c] >= thresh

        if of_site[x] != of_site[y] and large(x, n) and large(y, n):
            lhs += float(pr)
        if large(z, 2 * n):
            rhs += float(pr)

    assert np.array_equal(oracle.exact_px_field(dist, n, surrogate=surrogate),
                          px)
    assert np.array_equal(oracle.exact_pxy_matrix(dist, n,
                                                  surrogate=surrogate), pxy)
    got = oracle.exact_point_process_law(dist, n, surrogate=surrogate)
    assert list(got.table.items()) == list(law.items())
    # the three laws from one pass, as the bound instance takes them
    one_px, one_pxy, one_law = oracle.exact_center_laws(dist, n, surrogate)
    assert np.array_equal(one_px, px) and np.array_equal(one_pxy, pxy)
    assert list(one_law.table.items()) == list(law.items())
    res = oracle.conjecture7_check(box, params, n, box.sites[x],
                                   box.sites[y], surrogate, dist)
    assert (res.lhs, res.rhs) == (lhs, rhs)


def test_reductions_do_not_depend_on_chunk_size(monkeypatch):
    box, params = Box((0, 0), (2, 4)), FKParams(0.6, 2.0)
    whole = oracle.enumerate_measure(box, params)
    monkeypatch.setattr(oracle, "CHUNK", 37)
    chunked = oracle.enumerate_measure(box, params)
    assert np.array_equal(chunked.probs, whole.probs)
    for name in ("label", "size", "touches", "center"):
        assert np.array_equal(getattr(chunked.cluster_tables, name),
                              getattr(whole.cluster_tables, name))
    for surrogate in ("boundary", "all"):
        assert np.array_equal(
            oracle.exact_px_field(chunked, 2, surrogate=surrogate),
            oracle.exact_px_field(whole, 2, surrogate=surrogate))
        assert np.array_equal(
            oracle.exact_pxy_matrix(chunked, 2, surrogate=surrogate),
            oracle.exact_pxy_matrix(whole, 2, surrogate=surrogate))
        assert list(oracle.exact_point_process_law(
            chunked, 2, surrogate=surrogate).table.items()) == list(
            oracle.exact_point_process_law(
                whole, 2, surrogate=surrogate).table.items())
        px, pxy, law = oracle.exact_center_laws(chunked, 2, surrogate)
        assert np.array_equal(
            px, oracle.exact_px_field(whole, 2, surrogate=surrogate))
        assert np.array_equal(
            pxy, oracle.exact_pxy_matrix(whole, 2, surrogate=surrogate))
        assert list(law.table.items()) == list(oracle.exact_point_process_law(
            whole, 2, surrogate=surrogate).table.items())


def test_pxy_diagonal_counts_shared_centers():
    # 3x3, n = 1: an open ring around the closed-off center site has the
    # center as its mass center, as does the singleton inside it
    box = Box.cube(2, 3)
    center = box.site_index(box.center)
    dist = oracle.enumerate_measure(box, FKParams(0.5, 1.0))
    mat = oracle.exact_pxy_matrix(dist, 1, surrogate="all")
    assert mat[center, center] > 0.0


_TV_CHILD = """
from fkpoisson.chenstein import exact_bound_instance
from fkpoisson.fk import FKParams
from fkpoisson.lattice import Box
print(repr(exact_bound_instance(Box((0, 0), (2, 4)), FKParams(0.6, 2.0), 2,
                                surrogate="all").tv))
"""


def test_exact_tv_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    out = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _TV_CHILD], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(proc.stdout.strip())
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# the enumeration's own labels against the one labeler of given
# configurations


def _thirds(box):
    """A three-class partition of the boundary, in site order."""
    b = sorted(box.boundary, key=box.site_index)
    return BoundaryCondition.partition([b[0::3], b[1::3], b[2::3]])


BOX33 = Box.cube(2, 3)
RECURRENCE_CASES = [
    (Box.centered(1, 7), FREE),
    (Box((0, 0), (2, 3)), FREE),
    (BOX33, FREE),
    (BOX33, WIRED),
    (BOX33, _thirds(BOX33)),
    (Box.cube(3, 2), FREE),
    (Box((4,), (1,)), FREE),  # one site, no bonds
]


@pytest.mark.parametrize("chunk", [37, 64])
@pytest.mark.parametrize("box,bc", RECURRENCE_CASES)
def test_enumeration_labels_match_label_sites(monkeypatch, box, bc, chunk):
    """Every configuration's labels are the smallest site of its
    ``label_sites`` cluster, glued counts included, whatever the chunk."""
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    chunks = list(oracle._enumeration_labels(box, bc))
    m, s = box.n_bonds, box.n_sites
    assert [r.start for r, _ in chunks] == list(range(0, 1 << m, chunk))
    assert chunks[-1][0].stop == 1 << m
    got = np.concatenate([labels for _, labels in chunks])
    assert got.dtype == np.uint8
    idx = np.arange(1 << m)
    labels, n = label_sites(box, (idx[:, None] >> np.arange(m)) & 1, bc)
    smallest = np.full(n, s)
    np.minimum.at(smallest, labels, np.broadcast_to(np.arange(s),
                                                    labels.shape))
    assert np.array_equal(got, smallest[labels])
    # a configuration's labels are one range, starting at site 0's
    counts = np.diff(labels[:, 0], append=n)
    assert np.array_equal((got == np.arange(s)).sum(axis=1), counts)


def test_oracle_calls_no_generic_labeler():
    text = Path(oracle.__file__).read_text()
    assert not hasattr(oracle, "label_sites")
    assert "label_sites(" not in text and "ndimage" not in text


@pytest.mark.parametrize("surrogate", ["boundary", "all"])
def test_conjecture7_rows_carry_across_chunks(monkeypatch, surrogate):
    """Rows summed over many chunks, each skipping the pairs it never
    finds large, equal the one-pair loop bit for bit."""
    monkeypatch.setattr(oracle, "CHUNK", 37)
    box = Box((0, 0), (3, 3))
    dist = oracle.enumerate_measure(box, FKParams(0.55, 2.0))
    k = box.n_sites
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for n in (1, 2):
        rows = oracle.conjecture7_rows(dist, n, surrogate)
        assert [(r.lhs, r.rhs) for r in rows] == \
            [conjecture7_pair(dist, n, i, j, surrogate) for i, j in pairs]
