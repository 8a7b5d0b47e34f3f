import math

import numpy as np
import pytest

from fkpoisson import chenstein, oracle
from fkpoisson.census import (census_from_states, census_sampled,
                              label_clusters, state_chunks)
from fkpoisson.chenstein import (compute_b1_b2, compute_b3,
                                 compute_b3_exact, compute_b3_stratified,
                                 estimate_pxy, exact_bound_instance,
                                 field_stack, neighborhood,
                                 poisson_count_test, tv_bound)
from fkpoisson.fk import WIRED, BondConfig, FKParams, ResourceCapError
from fkpoisson.lattice import Box
from reference_labelers import (b3_of_law_loop,
                                compute_b3_stratified_sitewise,
                                conjecture7_pair, estimate_pxy_sets,
                                exact_b1_b2_loop, exact_pxy_matrix_k2,
                                label_clusters_bfs, poisson_count_test_loop,
                                product_law_loop)

CHAIN8 = Box((0,), (8,))


def bernoulli_states(box, p, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((n, box.n_bonds)) < p).astype(np.uint8)


def pxy_of(box, states, n, **kwargs):
    return estimate_pxy(census_from_states(box, states, n), n, **kwargs)


def test_neighborhood_examples():
    big = Box.cube(2, 30)
    x = (15, 15)
    assert neighborhood(x, 1, big) == [x]
    n2 = neighborhood(x, 2, big)
    assert len(n2) == 25  # odd realization of side 4 is 5
    assert all(max(abs(a - b) for a, b in zip(s, x)) <= 2 for s in n2)
    corner = neighborhood((0, 0), 2, big)
    assert len(corner) == 9  # truncated to the box
    assert all(big.contains(s) for s in corner)


def test_estimate_pxy_too_large_n_gives_zero():
    box = Box((0,), (6,))
    stats = pxy_of(box, bernoulli_states(box, 0.5, 50, 0), 4)
    assert all(st.pxy == 0.0 for st in stats.offsets.values())


def test_estimate_pxy_close_plus_distant():
    box = Box((0,), (12,))
    stats = pxy_of(box, bernoulli_states(box, 0.6, 400, 1), 2, K=2.0)
    for st in stats.offsets.values():
        assert st.close + st.distant == pytest.approx(st.local, abs=1e-12)
        assert st.pxy >= st.local - 1e-12


def test_estimate_pxy_vs_oracle_chain():
    # translation-averaged exact values from the pair matrix
    p, n = 0.5, 2
    params = FKParams(p, 1.0)
    dist = oracle.enumerate_measure(CHAIN8, params)
    mat = oracle.exact_pxy_matrix(dist, n)
    stats = pxy_of(CHAIN8, bernoulli_states(CHAIN8, p, 60000, 4), n,
                   offsets=[(3,), (4,)])
    for z in [(3,), (4,)]:
        exact = np.mean([mat[CHAIN8.site_index((x,)),
                             CHAIN8.site_index((x + z[0],))]
                         for x in range(0, 8 - z[0])])
        st = stats.offsets[z]
        assert abs(st.pxy - exact) <= 3 * max(st.pxy_se, 1e-6)


def assert_pair_stats_equal(box, states, n, **kwargs):
    sets = [label_clusters(BondConfig(box, s)) for s in states]
    ref = estimate_pxy_sets(sets, box, n, **kwargs)
    got = pxy_of(box, states, n, **kwargs)
    assert (got.n, got.K, got.n_samples, got.box) \
        == (ref.n, ref.K, ref.n_samples, ref.box)
    assert list(got.offsets) == list(ref.offsets)
    for z, st in ref.offsets.items():
        assert got.offsets[z] == st, z  # field for field, exactly
    return got


@pytest.mark.parametrize("box, p, n", [
    (Box((0,), (12,)), 0.8, 3),
    (Box((-2, 1), (8, 7)), 0.55, 2),
    (Box((0, 0, 0), (4, 5, 4)), 0.3, 2),
])
@pytest.mark.parametrize("K", [0.5, 10.0])
def test_estimate_pxy_matches_cluster_set_reference(box, p, n, K):
    states = bernoulli_states(box, p, 600, 11)
    stats = assert_pair_stats_equal(box, states, n, K=K)
    assert any(st.local > 0 for st in stats.offsets.values())


def test_estimate_pxy_wired_matches_cluster_set_reference():
    # the census glues the boundary, and the member sites it keeps are
    # those of the glued clusters; few samples hold a pair
    box = Box((0, 0), (7, 7))
    params = FKParams(0.35, 1.0, WIRED)
    cen = census_sampled(params, box, 400, seed=6, min_size=2)
    states = np.concatenate(list(state_chunks(params, box, 400, seed=6)))
    got = estimate_pxy(cen, 2, K=1.0)
    ref = estimate_pxy_sets([label_clusters_bfs(BondConfig(box, s), WIRED)
                             for s in states], box, 2, K=1.0)
    assert got.offsets == ref.offsets
    assert 0 < max(st.pair_samples for st in got.offsets.values()) < 400
    assert any(st.local > 0 for st in got.offsets.values())


def test_estimate_pxy_close_and_distant_both_seen():
    box = Box((0, 0), (8, 8))
    stats = assert_pair_stats_equal(box, bernoulli_states(box, 0.6, 2000, 12),
                                    2, K=2.0)
    assert sum(st.close for st in stats.offsets.values()) > 0
    assert sum(st.distant for st in stats.offsets.values()) > 0


def test_estimate_pxy_collision_matches_reference():
    # a ring of 8 sites and the singleton it encloses share the center
    # (2, 2) of a 5x5 box; the other samples are random
    box = Box.cube(2, 5)
    ring = np.zeros(box.n_bonds, dtype=np.uint8)
    for i in range(1, 3):
        for a, b in (((1, i), (1, i + 1)), ((3, i), (3, i + 1)),
                     ((i, 1), (i + 1, 1)), ((i, 3), (i + 1, 3))):
            ring[box.bond_index[(a, b)]] = 1
    states = np.vstack([ring, bernoulli_states(box, 0.3, 40, 13)])
    cen = census_from_states(box, states, 1)
    first = cen.qualifying(1) & (cen.sample_id == 0)
    assert sorted(cen.size[first].tolist()) == [1, 8]
    assert cen.center[first].tolist() == [[2, 2], [2, 2]]
    offsets = [(zi, zj) for zi in range(-4, 5) for zj in range(-4, 5)]
    stats = assert_pair_stats_equal(box, states, 1, offsets=offsets)
    # the ring sample counts its center once
    assert stats.offsets[(0, 0)].pxy * 41 * 25 >= 1


def test_b1_b2_trivial():
    single = Box((0,), (1,))
    px = np.array([0.25])
    stats = pxy_of(single, np.zeros((1, 0), dtype=np.uint8), 1, offsets=[])
    b1, b2 = compute_b1_b2(px, stats, single, n=1)
    assert b1 == pytest.approx(0.25 ** 2)
    assert b2 == 0.0

    box = Box((0,), (5,))
    stats = pxy_of(box, np.zeros((1, box.n_bonds), dtype=np.uint8), 2)
    b1, b2 = compute_b1_b2(np.zeros(5), stats, box, n=2)
    assert b1 == 0.0 and b2 == 0.0


def test_b1_b2_match_oracle_sums():
    p, n = 0.5, 2
    params = FKParams(p, 1.0)
    dist = oracle.enumerate_measure(CHAIN8, params)
    b1_o, b2_o, px_o = chenstein.exact_b1_b2(dist, n)
    # estimates: plug exact px into the same sums but estimated pxy
    states = bernoulli_states(CHAIN8, p, 60000, 8)
    cen = census_from_states(CHAIN8, states, n)
    px_hat = cen.px_field(n)
    stats = estimate_pxy(cen, n)
    b1_h, b2_h = compute_b1_b2(px_hat, stats, CHAIN8, n)
    assert b1_h == pytest.approx(b1_o, rel=0.1)
    assert b2_h == pytest.approx(b2_o, rel=0.25, abs=2e-4)


def test_b1_missing_offsets_error():
    box = Box((0,), (8,))
    stats = pxy_of(box, np.zeros((1, box.n_bonds), dtype=np.uint8), 2,
                   offsets=[(1,)])
    with pytest.raises(ValueError, match="offsets"):
        compute_b1_b2(np.zeros(8), stats, box, n=2)


def test_b3_conditioning_covers_box():
    # B_x covering the whole box leaves nothing to condition on: the
    # sigma-field is trivial, E(X - p | trivial) vanishes identically and
    # so does the contribution
    box = Box((0,), (4,))
    dist = oracle.enumerate_measure(box, FKParams(0.5, 1.0))
    b3 = compute_b3_exact(dist, 2)  # side 5 covers the 4-chain
    assert b3.lo == pytest.approx(0.0, abs=1e-12)
    # fully-informative conditioning (side 1 neighborhoods, so x itself is
    # inside and everything else is observed) is instead bounded by the
    # total absolute deviation sum 2 p (1 - p)
    dist6 = oracle.enumerate_measure(Box((0,), (6,)), FKParams(0.5, 1.0))
    px = oracle.exact_px_field(dist6, 2)
    b3s = compute_b3_exact(dist6, 2, side=1)
    assert b3s.lo <= float((2 * px * (1 - px)).sum()) + 1e-12


def test_b3_independence_across_cut():
    # q = 1 chain with side-1 neighborhoods: X(0) depends only on bonds
    # near site 0; conditioning on the far field leaves its law unchanged
    # when the chain is split by construction. Check the weaker exact
    # statement: per-site contribution never negative and bounded by the
    # trivial-field value.
    box = Box((0,), (6,))
    dist = oracle.enumerate_measure(box, FKParams(0.5, 1.0))
    px = oracle.exact_px_field(dist, 2)
    b3_small = compute_b3_exact(dist, 2, side=1).lo
    b3_trivial = float((2 * px * (1 - px)).sum())
    assert 0.0 <= b3_small <= b3_trivial + 1e-12


def test_b3_stratified_brackets_exact():
    box = Box((0,), (6,))
    params = FKParams(0.5, 2.0)
    dist = oracle.enumerate_measure(box, params)
    exact = compute_b3_exact(dist, 2, side=1).lo
    states = oracle.sample_exact(dist, 100000, seed=5)
    cen = census_from_states(box, states, 2)
    stack = field_stack(cen, 2)
    est = compute_b3_stratified(stack, box, 2, side=1, min_bin=100, seed=1)
    assert est.lo - 3 * est.se <= exact <= est.hi + 3 * est.se


@pytest.fixture(scope="module")
def b3_stacks():
    """(box, stack, n) cases: census fields in d = 1 and d = 2, an
    unstructured random stack, a single sample."""
    chain = Box((0,), (12,))
    square = Box((-1, 2), (6, 6))
    rng = np.random.default_rng(17)
    out = []
    for box, p, n in ((chain, 0.7, 2), (square, 0.6, 2)):
        states = bernoulli_states(box, p, 3000, 18)
        out.append((box, field_stack(census_from_states(box, states, n), n),
                    n))
    out.append((square, rng.random((2000, square.n_sites)) < 0.05, 2))
    out.append((square, rng.random((1, square.n_sites)) < 0.3, 2))
    return out


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("side", [None, 3])
@pytest.mark.parametrize("min_bin", [1, 100, 10 ** 6])
def test_b3_stratified_matches_sitewise_reference(b3_stacks, case, side,
                                                  min_bin):
    # the endpoints are equal bit for bit; se comes from another bootstrap
    box, stack, n = b3_stacks[case]
    got = compute_b3_stratified(stack, box, n, side, min_bin, seed=4)
    ref = compute_b3_stratified_sitewise(stack, box, n, side, min_bin,
                                         seed=4)
    assert (got.lo, got.hi, got.method) == (ref.lo, ref.hi, ref.method)
    assert got.se >= 0.0
    if min_bin == 10 ** 6:
        assert (got.lo, got.se) == (0.0, 0.0)
        assert got.hi == box.n_sites


def test_b3_stratified_refuses_past_62_conditioning_sites():
    # on 9x9 with the side-5 box a corner site leaves 81 - 9 = 72 sites
    # outside, more than a 62-bit pattern key holds; on 8x8 at most 55
    box = Box.cube(2, 9)
    stack = np.zeros((10, box.n_sites), dtype=bool)
    with pytest.raises(ResourceCapError) as err:
        compute_b3_stratified(stack, box, 2)
    assert err.value.size == 2.0 ** 72
    small = Box.cube(2, 8)
    est = compute_b3_stratified(np.zeros((10, 64), dtype=bool), small, 2,
                                min_bin=1)
    assert (est.lo, est.hi) == (0.0, 0.0)


def test_b3_bootstrap_is_reproducible_and_seeded(b3_stacks):
    box, stack, n = b3_stacks[1]
    a = compute_b3_stratified(stack, box, n, seed=5)
    assert compute_b3_stratified(stack, box, n, seed=5) == a
    assert compute_b3_stratified(stack, box, n, seed=6).se != a.se
    assert compute_b3_stratified(stack, box, n, n_boot=1).se == 0.0


def test_b3_dispatch():
    box = Box((0,), (4,))
    dist = oracle.enumerate_measure(box, FKParams(0.5, 1.0))
    assert compute_b3("exact", dist=dist, n=2).method == "exact"
    with pytest.raises(ValueError):
        compute_b3("nope")


def test_tv_bound_arithmetic():
    assert tv_bound(0, 0, 0, 0) == 0.0
    assert tv_bound(0, 0, 0, 0.01) == pytest.approx(0.04)
    assert tv_bound(0.1, 0.2, 0.3, 0.0) == pytest.approx(2 * (0.2 + 0.4 + 0.3))
    lo, hi = tv_bound(0, 0, (0.1, 0.2), 0.0)
    assert (lo, hi) == (pytest.approx(0.2), pytest.approx(0.4))


def test_exact_bound_instance_holds_on_chain():
    inst = exact_bound_instance(Box((0,), (4,)), FKParams(0.5, 1.0), 2)
    assert inst.holds
    inst6 = exact_bound_instance(Box((0,), (6,)), FKParams(0.5, 2.0), 2)
    assert inst6.holds
    assert inst6.tv > 0.0  # non-degenerate instance


def test_exact_bound_instance_vacuous_flag():
    # criterion 3's 7-chain at p = 0.4, q = 2 has a bound above 2, the
    # largest total variation; its 6-chain at p = 0.5 has one below
    inst = exact_bound_instance(Box((0,), (7,)), FKParams(0.4, 2.0), 2)
    assert inst.bound > 2.0 and inst.vacuous
    inst = exact_bound_instance(Box((0,), (6,)), FKParams(0.5, 2.0), 2)
    assert inst.bound < 2.0 and not inst.vacuous


EXACT_CASES = [
    (Box((0,), (7,)), FKParams(0.4, 2.0)),
    (Box((0, 0), (2, 3)), FKParams(0.6, 1.5)),
    (Box.cube(2, 3), FKParams(0.5, 1.0, WIRED)),
    (Box((0, 0), (2, 4)), FKParams(0.6, 2.0)),
]


@pytest.mark.parametrize("box,params", EXACT_CASES)
@pytest.mark.parametrize("surrogate", ["boundary", "all"])
@pytest.mark.parametrize("n", [1, 2])
def test_exact_reductions_equal_loop_references(box, params, surrogate, n):
    """The array pair matrix, b1/b2, b3 of a law, product law and
    conjecture-7 rows equal, bit for bit, their loop versions."""
    dist = oracle.enumerate_measure(box, params)
    assert np.array_equal(
        oracle.exact_pxy_matrix(dist, n, surrogate=surrogate),
        exact_pxy_matrix_k2(dist, n, surrogate=surrogate))
    b1, b2, px = chenstein.exact_b1_b2(dist, n, surrogate=surrogate)
    ref_b1, ref_b2, ref_px = exact_b1_b2_loop(dist, n, surrogate=surrogate)
    assert (b1, b2) == (ref_b1, ref_b2) and np.array_equal(px, ref_px)
    law = oracle.exact_point_process_law(dist, n, surrogate=surrogate)
    for side in (None, 1, 3):
        assert chenstein._b3_of_law(law, n, side) == \
            b3_of_law_loop(law, n, side)
    assert list(oracle.product_law(px, box).table.items()) == \
        list(product_law_loop(px, box).table.items())
    rows = oracle.conjecture7_rows(dist, n, surrogate)
    k = box.n_sites
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    assert [(r.x, r.y) for r in rows] == \
        [(box.sites[i], box.sites[j]) for i, j in pairs]
    assert [(r.lhs, r.rhs) for r in rows] == \
        [conjecture7_pair(dist, n, i, j, surrogate) for i, j in pairs]
    one = oracle.conjecture7_check(box, params, n, box.sites[-1],
                                   box.sites[0], surrogate, dist)
    assert (one.lhs, one.rhs) == conjecture7_pair(dist, n, k - 1, 0,
                                                  surrogate)


def test_exact_bound_instance_reuses_given_distribution():
    box, params = Box((0, 0), (2, 3)), FKParams(0.6, 2.0)
    dist = oracle.enumerate_measure(box, params)
    for surrogate in ("boundary", "all"):
        fresh = exact_bound_instance(box, params, 2, None, surrogate)
        given = exact_bound_instance(box, params, 2, None, surrogate,
                                     dist=dist)
        assert np.array_equal(given.px, fresh.px)
        assert (given.b1, given.b2, given.b3, given.sum_px2, given.bound,
                given.tv) == (fresh.b1, fresh.b2, fresh.b3, fresh.sum_px2,
                              fresh.bound, fresh.tv)


def test_poisson_trivial_and_closed_form():
    # all-zero counts: degenerate comparison against the unit mass at 0
    res = poisson_count_test(np.zeros(100, dtype=int), n_boot=10)
    assert res.degenerate and res.tv == 0.0

    # counts identically 1: tv against mean-1 Poisson in closed form
    res = poisson_count_test(np.ones(4000, dtype=int), n_boot=10)
    expect = abs(1 - math.exp(-1)) + math.exp(-1) \
        + sum(math.exp(-1) / math.factorial(k) for k in range(2, 60))
    assert res.lambda_hat == pytest.approx(1.0)
    assert res.tv == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("kind", ["poisson", "zero", "constant", "wide"])
def test_poisson_interval_matches_replicate_loop(kind):
    rng = np.random.default_rng({"poisson": 1, "zero": 2, "constant": 3,
                                 "wide": 4}[kind])
    for trial in range(25):
        n = int(rng.integers(2, 400))
        if kind == "poisson":
            counts = rng.poisson(rng.uniform(0.01, 4.0), size=n)
        elif kind == "zero":
            counts = np.zeros(n, dtype=int)
        elif kind == "constant":
            counts = np.full(n, int(rng.integers(1, 6)))
        else:
            counts = rng.integers(0, 40, size=n)
        seed = int(rng.integers(2 ** 31))
        got = poisson_count_test(counts, n_boot=60, seed=seed)
        assert (got.tv, got.ci_lo, got.ci_hi) \
            == poisson_count_test_loop(counts, n_boot=60, seed=seed), trial


def test_poisson_bootstrap_interval_contains_point():
    rng = np.random.default_rng(3)
    counts = rng.poisson(0.8, size=5000)
    res = poisson_count_test(counts, n_boot=300, seed=1)
    assert res.tv < 0.05  # genuinely Poisson data
    assert res.ci_lo <= res.tv <= res.ci_hi + 0.02
