import io
import json

import numpy as np
import pytest

from fkpoisson.census import (census_from_states, census_sampled, decay_rate,
                              estimate_px_lambda_census, label_clusters,
                              mass_center, theta_estimate)
from fkpoisson.fk import (FREE, WIRED, BondConfig, BoundaryCondition,
                         FKParams, sample_states)
from fkpoisson.lattice import Box
from reference_labelers import (census_rows_bfs, estimate_px_lambda,
                                label_clusters_bfs, point_process,
                                theta_estimate_sets)


def random_config(box, p, seed):
    rng = np.random.default_rng(seed)
    return BondConfig(box, (rng.random(box.n_bonds) < p).astype(np.uint8))


def partition_of(cs):
    return sorted(frozenset(c.sites) for c in cs.clusters)


def test_label_trivial():
    box = Box.cube(2, 3)
    allc = label_clusters(BondConfig.all_closed(box))
    assert len(allc.clusters) == 9
    assert all(c.size == 1 for c in allc.clusters)
    allo = label_clusters(BondConfig.all_open(box))
    assert len(allo.clusters) == 1
    assert allo.clusters[0].touches_boundary


def test_label_dual_implementations_agree():
    box = Box.cube(2, 6)
    for s in range(50):
        cfg = random_config(box, 0.5, s)
        assert partition_of(label_clusters(cfg)) \
            == partition_of(label_clusters_bfs(cfg))


def test_partition_property():
    box = Box.cube(2, 5)
    for s in range(10):
        cs = label_clusters(random_config(box, 0.4, s))
        assert sum(c.size for c in cs.clusters) == box.n_sites


def test_mass_center_examples():
    assert mass_center([(3, 7)]) == (3, 7)
    assert mass_center([(0, 0), (1, 0)]) == (0, 0)
    assert mass_center([(0, 0), (0, 1), (0, 2)]) == (0, 1)
    # floor (not truncation) for negative means
    assert mass_center([(-1, 0), (-2, 0)]) == (-2, 0)
    with pytest.raises(ValueError):
        mass_center([])


def test_mass_center_in_bounding_box():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pts = [tuple(int(v) for v in rng.integers(-10, 10, 2))
               for _ in range(int(rng.integers(1, 8)))]
        mc = mass_center(pts)
        for k in range(2):
            assert min(p[k] for p in pts) <= mc[k] <= max(p[k] for p in pts)


def test_translation_equivariance():
    small = Box.cube(2, 4)
    rng = np.random.default_rng(3)
    for s in range(10):
        cfg = random_config(small, 0.5, s)
        t = tuple(int(v) for v in rng.integers(-5, 5, 2))
        shifted_box = Box(tuple(l + ti for l, ti in zip(small.lower, t)),
                          small.sides)
        shifted = BondConfig(shifted_box, cfg.state)
        orig = {c.mass_center for c in label_clusters(cfg).clusters}
        moved = {c.mass_center
                 for c in label_clusters(shifted).clusters}
        assert moved == {(m[0] + t[0], m[1] + t[1]) for m in orig}


def test_point_process_examples():
    box = Box.cube(2, 4)
    closed = np.zeros((1, box.n_bonds), dtype=np.uint8)
    assert census_from_states(box, closed).counts_per_sample(99)[0] == 0

    # single qualifying cluster marks exactly its center
    chain = Box((0,), (6,))
    state = np.zeros(chain.n_bonds, dtype=np.uint8)
    state[1] = state[2] = 1  # cluster {1,2,3}
    cen = census_from_states(chain, state[None])
    assert cen.counts_per_sample(2)[0] == 1
    assert cen.px_field(2).tolist() == [0, 0, 1, 0, 0, 0]


def test_truncated_below_plain():
    chain = Box((0,), (12,))
    rng = np.random.default_rng(5)
    states = (rng.random((40, chain.n_bonds)) < 0.7).astype(np.uint8)
    for state in states:
        cen = census_from_states(chain, state[None])
        assert np.all(cen.px_field(2, "truncated") <= cen.px_field(2, "plain"))
    # construct a cluster of size >= n^2/4 deterministically: size 4, n = 2
    state = np.zeros(chain.n_bonds, dtype=np.uint8)
    state[1] = state[2] = state[3] = 1  # cluster {1,2,3,4}, size 4 >= 1
    cen = census_from_states(chain, state[None])
    assert cen.counts_per_sample(2, "plain")[0] == 1
    assert cen.counts_per_sample(2, "truncated")[0] == 0


def test_point_process_collision_counted_once():
    # a ring of 8 sites and the singleton it encloses share a mass center:
    # the indicator X(x) counts it once
    box = Box.cube(2, 5)
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    ring = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1)]
    for a, b in zip(ring, ring[1:]):
        state[box.bond_index[tuple(sorted((a, b)))]] = 1
    cen = census_from_states(box, np.vstack([state, state]))
    est = estimate_px_lambda_census(cen, 1, (2, 2))
    assert est.px == 1.0
    assert point_process(label_clusters(BondConfig(box, state)), 1
                         ).collisions == 1
    # distinct centers on a chain are no collision
    chain = Box((0,), (9,))
    st = np.zeros(chain.n_bonds, dtype=np.uint8)
    st[1] = 1   # {1,2} center 1
    st[3] = 1   # {3,4} center 3
    cen2 = census_from_states(chain, st[None])
    assert cen2.counts_per_sample(2)[0] == 2
    assert cen2.px_field(2).max() == 1.0


def test_estimate_px_lambda():
    chain = Box((0,), (6,))
    states = np.array([random_config(chain, 0.5, s).state
                       for s in range(100)])
    est = estimate_px_lambda_census(census_from_states(chain, states), 2, (2,))
    fields = [point_process(label_clusters(BondConfig(chain, state)), 2)
              for state in states]
    direct = np.mean([f.indicator((2,)) for f in fields])
    assert est.px == pytest.approx(direct)
    assert est.lam_from_px == pytest.approx(6 * direct)
    assert est.lam_direct == pytest.approx(
        np.mean([f.count() for f in fields]))
    assert est == estimate_px_lambda(fields, (2,))


def test_estimate_px_all_zero():
    chain = Box((0,), (4,))
    cen = census_from_states(chain, np.zeros((5, chain.n_bonds), np.uint8))
    est = estimate_px_lambda_census(cen, 2, (1,))
    assert est.px == 0.0 and est.lam_direct == 0.0


@pytest.mark.parametrize("box, params, min_size", [
    (Box((-3,), (9,)), FKParams(0.7, 2.0), 1),
    (Box((-2, 1), (5, 6)), FKParams(0.6, 2.0), 2),
    (Box((0, 0), (6, 6)), FKParams(0.6, 3.0, WIRED), 3),
    (Box((-1, -1, 0), (3, 3, 3)), FKParams(0.35, 2.0), 1),
])
def test_census_sampled_rows_equal_cluster_rows(box, params, min_size):
    args = (params, box, 12, 2, 10, 8)
    fast = census_sampled(*args, min_size=min_size, origin=box.center)
    ref = census_rows_bfs(box, sample_states(*args), min_size, box.center,
                          params.boundary)
    assert fast.n_samples == 12
    assert_rows_equal(fast, ref)
    plain = census_sampled(*args)
    assert plain.origin_size is None and plain.n_rows >= fast.n_rows


def assert_rows_equal(census, ref):
    """Census columns equal the reference's, row order included."""
    for field, dtype in (("sample_id", np.int64), ("size", np.int64),
                         ("center", np.int64), ("touches", bool),
                         ("origin_size", np.int64),
                         ("origin_touches", bool)):
        col = getattr(census, field)
        if col is None:
            assert ref[field] == [], field
            continue
        assert col.dtype == dtype, field
        assert col.tolist() == ref[field], field


def q1_draws_2d(box, p, n_samples, seed):
    """States drawn as the q = 1 census draws them in d = 2: chunks of 256
    samples, the bonds along the second axis first."""
    rng = np.random.default_rng(seed)
    lx, ly = box.sides
    states = []
    for first in range(0, n_samples, 256):
        m = min(256, n_samples - first)
        hb = rng.random((m, lx, ly - 1)) < p
        vb = rng.random((m, lx - 1, ly)) < p
        for t in range(m):
            state = np.zeros(box.n_bonds, dtype=np.uint8)
            for bi, (a, b) in enumerate(box.bonds):
                i, j = a[0] - box.lower[0], a[1] - box.lower[1]
                state[bi] = vb[t, i, j] if a[0] != b[0] else hb[t, i, j]
            states.append(state)
    return np.array(states)


def test_census_fast_path_matches_labeler():
    box = Box.cube(2, 5)
    fast = census_sampled(FKParams(0.55, 1.0), box, 30, seed=21,
                          origin=box.center)
    states = q1_draws_2d(box, 0.55, 30, 21)
    assert_rows_equal(fast, census_rows_bfs(box, states, 1, box.center))


def test_census_q1_draw_order_across_chunks():
    # 600 samples span three draw chunks; the boundary condition does not
    # change the q = 1 draws, only how they are clustered
    box = Box((1, -2), (5, 7))
    states = q1_draws_2d(box, 0.5, 600, 33)
    for bc in (FREE, WIRED):
        ref = census_rows_bfs(box, states, 2, box.center, bc)
        assert_rows_equal(census_sampled(FKParams(0.5, 1.0, bc), box, 600,
                                         seed=33, min_size=2,
                                         origin=box.center), ref)
        assert_rows_equal(census_from_states(box, states, 2, box.center, bc),
                          ref)


@pytest.mark.parametrize("box", [Box((-4,), (9,)), Box((-2, 1), (5, 4)),
                                 Box((0, -1, -3), (3, 3, 2))])
def test_census_jsonl_is_json_dumps_of_each_row(box):
    # census.jsonl bytes are those json.dumps gives the row dicts, in every
    # dimension and for negative coordinates; no rows write nothing
    rng = np.random.default_rng(8)
    states = (rng.random((5, box.n_bonds)) < 0.5).astype(np.uint8)
    for min_size in (1, box.n_sites + 1):
        census = census_from_states(box, states, min_size)
        fh = io.StringIO()
        census.to_jsonl(fh)
        assert fh.getvalue() == "".join(
            json.dumps({"sample": int(i), "size": int(z),
                        "mass_center": [int(v) for v in c],
                        "touches_boundary": bool(t)}) + "\n"
            for i, z, c, t in zip(census.sample_id, census.size,
                                  census.center, census.touches))
    assert fh.getvalue() == ""  # the last census keeps no rows


@pytest.mark.parametrize("bc", [
    WIRED,
    BoundaryCondition.partition(
        [[(i, 0) for i in range(5)] + [(i, 4) for i in range(5)],
         [(0, j) for j in range(1, 4)] + [(4, j) for j in range(1, 4)]]),
])
def test_census_clusters_under_the_boundary_condition(bc):
    # all clusters meeting one boundary class are one census row, so a
    # wired sample has at most one touching row
    box = Box.cube(2, 5)
    cen = census_sampled(FKParams(0.3, 1.0, bc), box, 50, seed=1,
                         origin=box.center)
    touching = np.bincount(cen.sample_id[cen.touches], minlength=50)
    assert touching.max() <= len(bc.class_lists(box))
    assert_rows_equal(cen, census_rows_bfs(box, q1_draws_2d(box, 0.3, 50, 1),
                                           1, box.center, bc))
    assert cen.boundary == bc


def test_census_estimators_match_pointfields():
    box = Box.cube(2, 5)
    cen = census_sampled(FKParams(0.6, 1.0), box, 200, seed=9, min_size=2,
                         origin=box.center)
    est = estimate_px_lambda_census(cen, 2, box.center)
    fields = [point_process(label_clusters(BondConfig(box, state)), 2)
              for state in q1_draws_2d(box, 0.6, 200, 9)]
    ref = estimate_px_lambda(fields, box.center)
    assert est.px == pytest.approx(ref.px)
    assert est.lam_direct == pytest.approx(ref.lam_direct)


def test_theta_trivial():
    box = Box.cube(2, 4)
    for bit, theta in ((1, 1.0), (0, 0.0)):
        states = np.full((3, box.n_bonds), bit, dtype=np.uint8)
        cen = census_from_states(box, states, origin=box.center)
        assert theta_estimate(cen) == theta
    states = q1_draws_2d(box, 0.5, 50, 4)
    cen = census_from_states(box, states, origin=box.center)
    assert theta_estimate(cen) == theta_estimate_sets(
        [label_clusters(BondConfig(box, s)) for s in states])
    with pytest.raises(ValueError, match="origin tracking"):
        theta_estimate(census_from_states(box, states))


def test_decay_degenerate_p1():
    # p = 1: the full-box cluster always touches the boundary, so every
    # entry is unavailable
    est = decay_rate(FKParams(1.0, 1.0), [Box.centered(2, 7)] * 2, [1, 2],
                     samples_per_n=50, seed=0)
    assert not est.available().any()
    assert np.isnan(est.ratio_at_largest)


def test_decay_subcritical_rates_grow():
    # subcritical: the tail decays exponentially in n, faster than surface
    # order, so the surface-normalized rate a_n grows like sqrt(n); boxes
    # need enough padding that boundary contact stays negligible
    sched = [2, 4, 8]
    boxes = [Box.centered(2, 6 * n + 1) for n in sched]
    est = decay_rate(FKParams(0.3, 1.0), boxes, sched, 40000, seed=7)
    a = est.a_origin
    assert est.available().all()
    assert a[1] > a[0] and a[2] > a[1]
