import math

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkpoisson.census import label_clusters, point_process
from fkpoisson.fk import BondConfig
from fkpoisson.lattice import Box
from fkpoisson.wulff import (ShapeMask, empirical_shape, fatten,
                             renormalize, square_shape, symdiff_volume,
                             symmetric_difference_stat)


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
    pf = point_process(label_clusters(BondConfig.all_closed(box)), 3)
    diag = symmetric_difference_stat(pf, [], square_shape(1.0, 16), 3, 0, 0.1)
    assert diag.volume == 0.0
    assert not diag.indicator


def test_symmetric_difference_stat_cancellation():
    # cluster built as the n-scaled raster of the shape, width 0: the two
    # unions nearly cancel
    n = 16
    shape = square_shape(0.5, 16)  # [-0.25, 0.25]^2
    box = Box.centered(2, 4 * n + 1)
    sites = [s for s in box.sites
             if abs(s[0]) <= 0.25 * n - 0.5 and abs(s[1]) <= 0.25 * n - 0.5]
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    for i, (a, b) in enumerate(box.bonds):
        if a in set(sites) and b in set(sites):
            state[i] = 1
    cs = label_clusters(BondConfig(box, state))
    pf = point_process(cs, n)
    assert pf.count() == 1 and pf.indicator((0, 0))
    quals = [c for c in cs.clusters
             if not c.touches_boundary and c.size >= n]
    diag = symmetric_difference_stat(pf, quals, shape, n, 0, delta=0.2)
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
    cs = label_clusters(BondConfig(box, state))
    quals = [c for c in cs.clusters
             if not c.touches_boundary and c.size >= n]
    assert len(quals) == 1
    pf = point_process(cs, n)
    diag = symmetric_difference_stat(pf, quals, shape, n, 0, delta=0.01)
    mask_b = fatten(quals[0].sites, 0)
    scaled_vol = mask_b.volume / n ** 2
    # center at (15, 0): shape there overlaps nothing of the scaled cluster
    # around (15/n, 0) ... they actually can overlap; just check volume > 0
    assert diag.volume > 0


def test_empirical_shape_identical_translates():
    chain = Box((0,), (40,))
    sets = []
    for start in (5, 12, 20, 28):
        state = np.zeros(chain.n_bonds, dtype=np.uint8)
        for j in range(start, start + 3):
            state[chain.bond_index[((j,), (j + 1,))]] = 1
        sets.append(label_clusters(BondConfig(chain, state)))
    mask = empirical_shape(sets, n=4, cells_per_unit=16, min_count=4)
    # every cluster is a 4-site segment: the mask is that segment's cells
    # re-centered and scaled by 4^(-1); its volume is 4 * (1/4) = 1
    assert mask.volume == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        empirical_shape(sets, n=4, min_count=50)


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
    sets = []
    for s in range(60):
        state = (rng.random(box.n_bonds) < 0.45).astype(np.uint8)
        sets.append(label_clusters(BondConfig(box, state)))
    mask = empirical_shape(sets, n=3, cells_per_unit=8, min_count=10)
    g = mask.grid
    flipped = g[::-1, :]
    agree = (g == flipped).mean()
    assert agree > 0.9
