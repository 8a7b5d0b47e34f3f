import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkpoisson.census import label_clusters
from fkpoisson.experiment import (_replica_states, default_f_width, replica_seed,
                                  run, validate_config)
from fkpoisson.fk import FREE, WIRED, BondConfig, FKParams, sample_states
from fkpoisson.lattice import Box
from fkpoisson.wulff import (ShapeMask, empirical_shape, fatten,
                             qualifying_clusters, renormalize, square_shape,
                             symdiff_volume, symmetric_difference_stat)
from reference_labelers import (empirical_shape_loop, point_process,
                                renormalize_loop, scaled_fattened_loop,
                                shape_to_bytes_loop,
                                symmetric_difference_stat_loop,
                                wulff_rows_loop)


def one_sample(box, state, n):
    """Distinct mass centers and sites of the qualifying clusters of one
    configuration."""
    sample, centers, sites, owner = qualifying_clusters(box, state[None], n)
    return np.unique(centers, axis=0), sites


def test_square_shape_volume():
    s = square_shape(2.0, 16)
    assert s.volume == pytest.approx(4.0)
    assert s.d == 2


def test_renormalize_identity():
    s = square_shape(1.0, 16)  # unit volume
    r = renormalize(s, 1.0)
    assert r.volume == pytest.approx(1.0, abs=0.05)


def test_renormalize_cube_to_unit():
    # volume 8 square scaled by 8^(-1/2) in d = 2 has volume 1 up to
    # raster error at a fine resolution
    s = square_shape(math.sqrt(8.0), 100)
    r = renormalize(s, 1.0)
    assert r.volume == pytest.approx(1.0, abs=0.05)


def test_renormalize_theta_identity():
    for theta in (0.25, 0.5, 1.0):
        s = square_shape(1.5, 64)
        r = renormalize(s, theta)
        assert r.volume * theta == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        renormalize(square_shape(1.0, 16), 0.0)


def test_fatten_examples():
    # width 0: unit cells at cluster sites
    m = fatten([(0, 0)], 0)
    assert m.volume == pytest.approx(1.0)
    m3 = fatten([(0, 0), (1, 0), (2, 0)], 0)
    assert m3.volume == pytest.approx(3.0)
    # singleton fattened by 2 in d=2: 5x5 square
    m5 = fatten([(0, 0)], 2)
    assert m5.volume == pytest.approx(25.0)
    # overlapping neighborhoods merge
    m2 = fatten([(0, 0), (1, 0)], 1)
    assert m2.volume == pytest.approx(12.0)
    assert m2.volume < 2 * 9.0


def test_symdiff_basic():
    a = square_shape(2.0, 16)
    b = square_shape(2.0, 16)
    assert symdiff_volume(a, b) == 0.0
    c = square_shape(1.0, 16)
    v = symdiff_volume(a, c)
    assert v == pytest.approx(3.0)
    assert symdiff_volume(c, a) == pytest.approx(v)


def test_symdiff_triangle_inequality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        masks = []
        for _ in range(3):
            g = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
            masks.append(ShapeMask(8, (-8, -8), g))
        ab = symdiff_volume(masks[0], masks[1])
        bc = symdiff_volume(masks[1], masks[2])
        ac = symdiff_volume(masks[0], masks[2])
        assert ac <= ab + bc + 1e-12


def test_symdiff_disjoint_supports():
    a = square_shape(1.0, 16)
    b = ShapeMask(16, (100, 100), np.ones((16, 16), dtype=bool))
    assert symdiff_volume(a, b) == pytest.approx(a.volume + b.volume)


def test_raster_refinement_bound():
    # halving the cell size changes the measured volume of a fixed region
    # by less than a surface term
    side = 1.3
    coarse = square_shape(side, 8)
    fine = square_shape(side, 16)
    assert abs(coarse.volume - fine.volume) <= 4 * side * (1 / 8.0)


def test_symmetric_difference_stat_empty():
    box = Box.cube(2, 5)
    centers, sites = one_sample(box, np.zeros(box.n_bonds, np.uint8), 3)
    assert len(centers) == 0 and len(sites) == 0
    diag = symmetric_difference_stat(centers, sites, square_shape(1.0, 16),
                                     3, 0, 0.1)
    assert diag.volume == 0.0
    assert not diag.indicator


def square_cluster(n):
    """Box.centered(2, 4n + 1) with one open cluster: the sites within
    n/4 - 1/2 of the origin in each coordinate."""
    box = Box.centered(2, 4 * n + 1)
    sites = {s for s in box.sites
             if abs(s[0]) <= 0.25 * n - 0.5 and abs(s[1]) <= 0.25 * n - 0.5}
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    for i, (a, b) in enumerate(box.bonds):
        if a in sites and b in sites:
            state[i] = 1
    return box, state


def test_symmetric_difference_stat_cancellation():
    # cluster built as the n-scaled raster of the shape, width 0: the two
    # unions nearly cancel
    n = 16
    shape = square_shape(0.5, 16)  # [-0.25, 0.25]^2
    box, state = square_cluster(n)
    centers, sites = one_sample(box, state, n)
    assert centers.tolist() == [[0, 0]]
    diag = symmetric_difference_stat(centers, sites, shape, n, 0, delta=0.2)
    perimeter = 4 * 0.5
    assert diag.volume < 2 * perimeter * max(1.0 / 16, 1.0 / n) + 0.05
    assert not diag.indicator


def test_symmetric_difference_disjoint_supports():
    n = 4
    shape = square_shape(1.0, 16)
    box = Box.centered(2, 41)
    # one cluster far from the marked center: translate the shape union
    # and the cluster union apart by hand
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    chain_sites = [(15, j) for j in range(-2, 3)]
    for a, b in zip(chain_sites, chain_sites[1:]):
        state[box.bond_index[(a, b)]] = 1
    centers, sites = one_sample(box, state, n)
    assert len(centers) == 1
    diag = symmetric_difference_stat(centers, sites, shape, n, 0, delta=0.01)
    # center at (15, 0): shape there overlaps nothing of the scaled cluster
    # around (15/n, 0) ... they actually can overlap; just check volume > 0
    assert diag.volume > 0


@pytest.mark.parametrize("d", [2, 3])
def test_symmetric_difference_invariant_under_shifts_by_n(d):
    # moving a sample by n e_k moves its scaled clusters by e_k, and the
    # shape, placed at x / n, moves with them
    rng = np.random.default_rng(d)
    n, p = 3, {2: 0.45, 3: 0.22}[d]
    box = Box((0,) * d, (7,) * d)
    seen = 0
    for trial in range(8):
        state = (rng.random(box.n_bonds) < p).astype(np.uint8)
        centers, sites = one_sample(box, state, n)
        if not len(centers):
            continue
        seen += 1
        shape = (square_shape(0.8, 8, d) if trial % 2 else
                 ShapeMask(8, (-5,) * d, rng.random((10,) * d) < 0.5))
        width = trial % 3
        base = symmetric_difference_stat(centers, sites, shape, n, width, 0.1)
        for k in range(d):
            e = n * (np.arange(d) == k)
            moved = symmetric_difference_stat(centers + e, sites + e, shape,
                                              n, width, 0.1)
            assert moved.volume == pytest.approx(base.volume, abs=1e-12)
            assert moved.center_count == base.center_count
    assert seen >= 3


def test_empirical_shape_identical_translates():
    chain = Box((0,), (40,))
    states = np.zeros((4, chain.n_bonds), dtype=np.uint8)
    for row, start in zip(states, (5, 12, 20, 28)):
        for j in range(start, start + 3):
            row[chain.bond_index[((j,), (j + 1,))]] = 1
    sample, centers, sites, owner = qualifying_clusters(chain, states, 4)
    mask = empirical_shape(sites, owner, centers, cells_per_unit=16,
                           min_count=4)
    # every cluster is a 4-site segment: the mask is that segment's cells
    # re-centered and scaled by 4^(-1); its volume is 4 * (1/4) = 1
    assert mask.volume == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        empirical_shape(sites, owner, centers, min_count=50)


def random_states(box, q, p, count, seed, boundary):
    if q == 1.0:
        rng = np.random.default_rng(seed)
        return (rng.random((count, box.n_bonds)) < p).astype(np.uint8)
    return sample_states(FKParams(p, q, boundary), box, count, 1, 10, seed)


def with_ring(box, states):
    """``states`` after one configuration whose only open cluster is a
    ring of 8 sites around the singleton it encloses: two clusters with
    one mass center."""
    ring = np.zeros(box.n_bonds, dtype=np.uint8)
    lo = np.array(box.lower) + 2
    cells = [tuple((lo + v).tolist()) for v in
             ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0))]
    for a, b in zip(cells, cells[1:]):
        ring[box.bond_index[(min(a, b), max(a, b))]] = 1
    return np.vstack([ring, states])


CASES = [
    # box, q, p, n, boundary
    (Box((-3,), (40,)), 1.0, 0.75, 3, FREE),
    (Box((-5, 3), (9, 8)), 1.0, 0.5, 2, FREE),
    (Box((2, -4), (10, 10)), 2.0, 0.55, 3, WIRED),
    (Box((-1, 0, 2), (5, 5, 5)), 1.0, 0.35, 2, WIRED),
]


@pytest.mark.parametrize("box, q, p, n, boundary", CASES)
def test_symmetric_difference_stat_matches_loop(box, q, p, n, boundary):
    states = random_states(box, q, p, 25, 11, boundary)
    if box.d == 2:
        states = with_ring(box, states)
    shared = 0
    for m in (1, n):
        sample, centers, sites, owner = qualifying_clusters(box, states, m,
                                                            boundary)
        site_sample = sample[owner]
        for i, state in enumerate(states):
            cs = label_clusters(BondConfig(box, state))
            quals = [c for c in cs.clusters
                     if not c.touches_boundary and c.size >= m]
            c = np.unique(centers[sample == i], axis=0)
            s = sites[site_sample == i]
            shared += len(quals) - len(c)
            for cpu, width in ((16, 0), (4, 2), (2, 1)):
                shape = square_shape(1.0, cpu, box.d)
                got = symmetric_difference_stat(c, s, shape, m, width, 0.1)
                want = symmetric_difference_stat_loop(
                    point_process(cs, m), quals, shape, m, width, 0.1)
                assert got == want
                if len(s):
                    fat = fatten(s.tolist(), width, cpu)
                    ref = scaled_fattened_loop(s.tolist(), 1, width, cpu)
                    assert fat.lower_cells == ref.lower_cells
                    assert np.array_equal(fat.grid, ref.grid)
    if box.d == 2:
        assert shared > 0


@pytest.mark.parametrize("box, q, p, n, boundary", CASES)
def test_empirical_shape_matches_loop(box, q, p, n, boundary):
    states = random_states(box, q, p, 40, 5, boundary)
    if box.d == 2:
        states = with_ring(box, states)
    sets = [label_clusters(BondConfig(box, s)) for s in states]
    for m in (1, n):
        sample, centers, sites, owner = qualifying_clusters(box, states, m,
                                                            boundary)
        # at 2 cells per unit the cells of size-4 clusters (d = 2) and of
        # many d = 1 clusters have edges on cell centres
        for cpu in (2, 4, 16):
            got = empirical_shape(sites, owner, centers, cpu, min_count=5)
            want = empirical_shape_loop(sets, m, cpu, min_count=5)
            assert got.lower_cells == want.lower_cells
            assert np.array_equal(got.grid, want.grid)


def test_shape_mask_rle_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = rng.random((9, 13)) < 0.4
        mask = ShapeMask(16, (-3, 7), g)
        back = ShapeMask.from_bytes(mask.to_bytes())
        assert back.cells_per_unit == 16
        assert back.lower_cells == (-3, 7)
        assert np.array_equal(back.grid, mask.grid)


@st.composite
def shape_masks(draw):
    """A mask of dimension 1-3 with a random anchor and occupancy."""
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(d))
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    lower = tuple(draw(st.integers(-2 ** 40, 2 ** 40)) for _ in range(d))
    return ShapeMask(draw(st.integers(1, 2 ** 32 - 1)), lower,
                     np.array(bits, dtype=bool).reshape(shape))


@settings(max_examples=60, deadline=None)
@given(shape_masks())
def test_shape_mask_roundtrip_property(mask):
    back = ShapeMask.from_bytes(mask.to_bytes())
    assert back.cells_per_unit == mask.cells_per_unit
    assert back.lower_cells == mask.lower_cells
    assert back.grid.shape == mask.grid.shape
    assert np.array_equal(back.grid, mask.grid)


@settings(max_examples=30, deadline=None)
@given(shape_masks(), st.binary(min_size=1, max_size=16))
def test_shape_mask_rejects_truncated_or_padded(mask, extra):
    blob = mask.to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            ShapeMask.from_bytes(blob[:cut])
    with pytest.raises(ValueError):
        ShapeMask.from_bytes(blob + extra)


def test_shape_mask_rejects_runs_that_miss_the_grid():
    head = struct.pack("<BI2q2q", 2, 4, 0, 0, 2, 3)
    for runs in ([5], [2, 5], [0, 7]):
        blob = head + struct.pack(f"<I{len(runs)}Q", len(runs), *runs)
        with pytest.raises(ValueError, match="runs cover"):
            ShapeMask.from_bytes(blob)
    ok = head + struct.pack("<I2Q", 2, 2, 4)
    assert ShapeMask.from_bytes(ok).grid.sum() == 4


def test_empirical_shape_symmetric_under_flips():
    rng = np.random.default_rng(3)
    box = Box.cube(2, 12)
    states = np.array([(rng.random(box.n_bonds) < 0.45).astype(np.uint8)
                       for _ in range(60)])
    sample, centers, sites, owner = qualifying_clusters(box, states, 3)
    mask = empirical_shape(sites, owner, centers, cells_per_unit=8,
                           min_count=10)
    g = mask.grid
    flipped = g[::-1, :]
    agree = (g == flipped).mean()
    assert agree > 0.9


@pytest.mark.parametrize("boundary", [FREE, WIRED])
def test_qualifying_clusters_match_cluster_sets(boundary):
    box = Box((-2, 5), (8, 9))
    states = random_states(box, 1.0, 0.5, 25, 2, boundary)
    sample, centers, sites, owner = qualifying_clusters(box, states, 3,
                                                        boundary)
    got = [(int(sample[k]), tuple(centers[k].tolist()),
            frozenset(map(tuple, sites[owner == k].tolist())))
           for k in range(len(centers))]
    want = [(i, c.mass_center, c.sites)
            for i, s in enumerate(states)
            for c in label_clusters(BondConfig(box, s)).clusters
            if not c.touches_boundary and c.size >= 3]
    assert got == want
    assert np.all(np.diff(sample[owner]) >= 0)


def test_shape_mask_bytes_and_renormalize_match_loops():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for density in (0.0, 0.3, 1.0):
            shape = tuple(int(v) for v in rng.integers(1, 7, d))
            lower = tuple(int(v) for v in rng.integers(-9, 9, d))
            mask = ShapeMask(8, lower, rng.random(shape) < density)
            assert mask.to_bytes() == shape_to_bytes_loop(mask)
            if mask.grid.any():
                for theta in (0.3, 1.0):
                    got = renormalize(mask, theta)
                    want = renormalize_loop(mask, theta)
                    assert got.lower_cells == want.lower_cells
                    assert np.array_equal(got.grid, want.grid)


@pytest.mark.parametrize("config", [
    {"sides": [30], "lower": [-4], "p": 0.75, "q": 1.0, "samples": 60,
     "n": 3},
    {"sides": [10, 9], "lower": [-5, 3], "p": 0.5, "q": 1.0, "samples": 80,
     "n": 2, "f_width": 0, "cells_per_unit": 6},
    {"sides": [10, 10], "lower": [3, -2], "p": 0.55, "q": 2.0,
     "samples": 40, "n": 3, "boundary": "wired", "burn_in": 10,
     "shape_side": 0.8},
    {"sides": [5, 5, 5], "p": 0.25, "q": 1.0, "samples": 60, "n": 2,
     "boundary": "wired", "cells_per_unit": 4, "f_width": 1},
])
def test_run_wulff_rows_match_loop(tmp_path, config):
    run("wulff", dict(config, seed=4), str(tmp_path))
    config = validate_config("wulff", dict(config, seed=4))
    rows = [json.loads(line)
            for line in open(tmp_path / "rep000" / "wulff.jsonl")]
    box = Box(tuple(config["lower"]), tuple(config["sides"]))
    n = config["n"]
    states = _replica_states(config, replica_seed(4, 0))
    cpu = config.get("cells_per_unit", 16)
    if "shape_side" in config:
        shape = square_shape(config["shape_side"], cpu, box.d)
    else:
        shape = empirical_shape_loop(
            [label_clusters(BondConfig(box, s)) for s in states], n, cpu, 5)
    want = wulff_rows_loop(box, states, n, shape,
                           config.get("f_width", default_f_width(n)), 0.1)
    assert rows == want
