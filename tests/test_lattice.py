import itertools

import numpy as np
import pytest

from fkpoisson.lattice import (Box, l1, pair_order, pair_sort_key,
                               set_distance, star_neighbors)
from reference_labelers import tuple_tables


def brute_force_bonds(box):
    out = set()
    for x in box.sites:
        for y in box.sites:
            if x < y and l1(x, y) == 1:
                out.add((x, y))
    return out


def test_bonds_tiny_boxes():
    assert len(Box((0, 0), (1, 2)).bonds) == 1
    assert len(Box((0, 0), (2, 2)).bonds) == 4


def test_bonds_3x3_closed_form_and_brute_force():
    box = Box.cube(2, 3)
    bonds = box.bonds
    assert len(bonds) == 2 * 3 * (3 - 1) == 12
    assert {tuple(sorted(b)) for b in bonds} == brute_force_bonds(box)


def test_bonds_count_closed_form_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        sides = tuple(int(rng.integers(1, 5)) for _ in range(d))
        lower = tuple(int(rng.integers(-3, 3)) for _ in range(d))
        box = Box(lower, sides)
        expect = sum((sides[a] - 1) * int(np.prod([s for i, s in enumerate(sides) if i != a]))
                     for a in range(d))
        assert len(box.bonds) == expect
        assert len(set(box.bonds)) == len(box.bonds)


def test_array_tables_equal_tuple_tables():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4):
        for _ in range(8):
            sides = tuple(int(rng.integers(1, 5)) for _ in range(d))
            lower = tuple(int(rng.integers(-4, 4)) for _ in range(d))
            box = Box(lower, sides)
            ref = tuple_tables(box)
            assert box.bonds == ref["bonds"]  # canonical order included
            assert box.n_bonds == ref["n_bonds"]
            assert box.bond_sites.tolist() == ref["bond_sites"].tolist()
            assert box.site_bonds == ref["site_bonds"]
            assert box.boundary == ref["boundary"]
            assert box.boundary_indices.tolist() \
                == ref["boundary_indices"].tolist()
            assert box.offsets.tolist() == [
                [xi - lo for xi, lo in zip(x, lower)] for x in box.sites]


def test_doubled_grid_cells():
    box = Box((-1, 2), (2, 3))
    grid, site_cells, bond_cells = box.doubled_grid
    assert grid.shape == (3, 5)
    assert np.flatnonzero(grid).tolist() == site_cells.tolist()
    for (a, b), cell in zip(box.bonds, bond_cells):
        mid = [xa + xb - 2 * lo for xa, xb, lo in zip(a, b, box.lower)]
        assert np.ravel_multi_index(mid, grid.shape) == cell


def test_boundary_examples():
    assert Box.cube(2, 1).boundary == {(0, 0)}
    b3 = Box.cube(2, 3).boundary
    assert len(b3) == 8 and (1, 1) not in b3
    # brute force: sites with an out-neighbor
    box = Box.cube(2, 4)
    brute = {x for x in box.sites
             if any(not box.contains(y)
                    for y in ((x[0] + 1, x[1]), (x[0] - 1, x[1]),
                              (x[0], x[1] + 1), (x[0], x[1] - 1)))}
    assert box.boundary == brute
    assert len(brute) == 12


def test_star_neighbors():
    assert len(star_neighbors((0, 0))) == 8
    assert len(star_neighbors((0, 0, 0))) == 26
    shifted = star_neighbors((5, 5))
    assert shifted == {(x + 5, y + 5) for x, y in star_neighbors((0, 0))}
    assert {(1, 0), (-1, 0), (0, 1), (0, -1)} <= star_neighbors((0, 0))


def test_set_distance():
    assert set_distance({(0, 0)}, {(0, 0)}) == 0
    assert set_distance({(0, 0)}, {(2, 1)}) == 3
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = [tuple(int(v) for v in rng.integers(-5, 5, 2)) for _ in range(5)]
        b = [tuple(int(v) for v in rng.integers(-5, 5, 2)) for _ in range(5)]
        assert set_distance(a, b) == min(l1(x, y) for x in a for y in b)
        assert set_distance(a, b) == set_distance(b, a)


def test_set_distance_triangle_inequality_via_singletons():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y, z = (tuple(int(v) for v in rng.integers(-6, 6, 2))
                   for _ in range(3))
        assert l1(x, z) <= l1(x, y) + l1(y, z)


def test_set_distance_empty_errors():
    with pytest.raises(ValueError):
        set_distance(set(), {(0, 0)})


def test_pair_order_examples():
    assert pair_order(((0, 0), (1, 0)), ((0, 0), (2, 0))) == -1
    p = ((3, 1), (0, 0))
    assert pair_order(p, p) == 0
    # unordered: swapping endpoints compares equal
    assert pair_order(((1, 0), (0, 0)), ((0, 0), (1, 0))) == 0


def test_pair_order_sorts_by_distance():
    rng = np.random.default_rng(3)
    pairs = [(tuple(int(v) for v in rng.integers(-9, 9, 2)),
              tuple(int(v) for v in rng.integers(-9, 9, 2)))
             for _ in range(100)]
    ordered = sorted(pairs, key=pair_sort_key)
    dists = [l1(u, v) for u, v in ordered]
    assert dists == sorted(dists)


def test_pair_order_total_and_transitive():
    rng = np.random.default_rng(4)
    pairs = [(tuple(int(v) for v in rng.integers(-4, 4, 2)),
              tuple(int(v) for v in rng.integers(-4, 4, 2)))
             for _ in range(30)]
    for a, b in itertools.combinations(pairs, 2):
        ka, kb = pair_sort_key(a), pair_sort_key(b)
        if ka != kb:
            assert pair_order(a, b) in (-1, 1)
            assert pair_order(a, b) == -pair_order(b, a)
    for a, b, c in itertools.combinations(pairs, 3):
        if pair_order(a, b) <= 0 and pair_order(b, c) <= 0:
            assert pair_order(a, c) <= 0


def test_site_index_row_major():
    box = Box((1, -2), (3, 4))
    for i, s in enumerate(box.sites):
        assert box.site_index(s) == i
    with pytest.raises(KeyError):
        box.site_index((99, 99))
