"""The coupling's mask code and the batched antecedent count against the
graph-search and one-labeling-per-assignment references."""
import math

import numpy as np
import pytest

from fkpoisson.census import label_clusters
from fkpoisson.coupling import (Coloring, analyze_pair_coloring,
                                black_cluster, check_claims, color_sites,
                                influence_decay, interior_boundary)
from fkpoisson.fk import FREE, WIRED, BondConfig, FKParams, sample_states
from fkpoisson.lattice import Box
from fkpoisson.surgery import (count_antecedents, random_close_pairs,
                               transform)

from reference_labelers import (analyze_search, black_cluster_search,
                                check_claims_search, count_antecedents_loop,
                                interior_boundary_search)

BOXES = [Box((0,), (11,)), Box((0, 0), (9, 8)), Box((-2, 0, 1), (5, 6, 5))]


def _site_set(box, mask):
    return frozenset(s for s, m in zip(box.sites, mask) if m)


def _colorings(box, rng, count):
    """Random colorings: independent white sites, and colorings of two
    random bond configurations, over a range of densities."""
    for i in range(count):
        density = (0.3, 0.6, 0.9, 0.98)[i % 4]
        if i % 2:
            yield Coloring(box, rng.random(box.n_sites) < density)
        else:
            a, b = (BondConfig(box, (rng.random(box.n_bonds) < density)
                               .astype(np.uint8)) for _ in range(2))
            yield color_sites(a, b)


def _gammas(box, coloring, rng):
    """The center, a set touching the boundary, a random pair of sites and,
    when there is one, an inner site of the black cluster."""
    sites = box.sites
    out = [{box.center}, {sites[0], box.center},
           {sites[i] for i in rng.choice(box.n_sites, 2, replace=False)}]
    black = black_cluster_search(coloring, box.boundary) - box.boundary
    if black:
        out.append({min(black)})
    return out


@pytest.mark.parametrize("box", BOXES, ids=lambda b: f"d{b.d}")
def test_coupling_masks_match_graph_search(box):
    rng = np.random.default_rng(10 + box.d)
    ks = {True: 0, False: 0}
    inside_black = 0
    for coloring in _colorings(box, rng, 40):
        black = black_cluster_search(coloring, box.boundary)
        assert black_cluster(coloring, box.boundary) == black
        some = {box.sites[i] for i in rng.choice(box.n_sites, 3)}
        assert black_cluster(coloring, some) == \
            black_cluster_search(coloring, some)
        for gamma in _gammas(box, coloring, rng):
            ref = analyze_search(coloring, gamma)
            out = analyze_pair_coloring(coloring, gamma)
            assert out.box == box and out.coloring is coloring
            assert _site_set(box, out.gamma) == frozenset(gamma)
            assert _site_set(box, out.black) == ref["black"]
            assert _site_set(box, out.interior_bd) == ref["interior_bd"]
            assert _site_set(box, out.interior) == ref["interior"]
            assert out.k is ref["k"]
            assert interior_boundary(coloring, black, gamma) == \
                interior_boundary_search(coloring, black, gamma)
            assert check_claims(out) == check_claims_search(coloring, gamma)
            ks[out.k] += 1
            inside_black += bool(set(gamma) & (black - box.boundary))
    assert ks[True] > 5 and ks[False] > 5 and inside_black > 5


def test_outcome_dict_lists_sorted_sites():
    box = Box((-1, 2), (6, 5))
    rng = np.random.default_rng(4)
    for coloring in _colorings(box, rng, 8):
        gamma = {box.center, (0, 3)}
        got = analyze_pair_coloring(coloring, gamma).to_dict()
        ref = analyze_search(coloring, gamma)
        assert got == {
            "gamma": sorted(list(s) for s in gamma),
            "white_sites": sorted(list(s) for s, w in
                                  zip(box.sites, coloring.white) if w),
            "black_cluster": sorted(list(s) for s in ref["black"]),
            "interior_boundary": sorted(list(s) for s in ref["interior_bd"]),
            "k": ref["k"],
        }


@pytest.mark.parametrize("d", [2, 3])
def test_influence_decay_matches_pair_loop(d):
    box = Box.cube(d, 7 if d == 2 else 5)
    params = FKParams(0.9, 2.0)
    reps = 150
    sw = sample_states(FKParams(0.9, 2.0, WIRED), box, reps, 2, 60, seed=1)
    sf = sample_states(FKParams(0.9, 2.0, FREE), box, reps, 2, 60, seed=2)
    gammas = [(f"{g}", set(Box(tuple(c - (g - 1) // 2 for c in box.center),
                               (g,) * d).sites)) for g in (5, 3, 1)]
    gammas.append(("corner", {box.sites[0]}))
    table = influence_decay(params, box, gammas, WIRED, FREE,
                            lambda c: bool(c.state[0]), reps,
                            states=(sw, sf))
    colorings = [color_sites(BondConfig(box, a), BondConfig(box, b))
                 for a, b in zip(sw, sf)]
    for row, (label, gamma) in zip(table.rows, gammas):
        ks = np.array([analyze_search(c, gamma)["k"] for c in colorings],
                      dtype=float)
        assert row.gamma_label == label
        assert row.p_k == float(ks.mean())
        assert row.p_k_se == float(ks.std(ddof=1) / math.sqrt(reps))


def _surgery_targets():
    """(target, n, K): the targets of the surgery tests, and merges of
    random close pairs of 5x5 clusters in the size window."""
    box = Box.cube(2, 5)
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    for a, b in (((1, 1), (2, 1)), ((1, 3), (2, 3))):
        state[box.bond_index[(a, b)]] = 1
    cfg = BondConfig(box, state)
    cs = label_clusters(cfg)
    merged = transform(cfg, cs.cluster_of((1, 1)), cs.cluster_of((1, 3)))
    out = [(BondConfig.all_closed(box), 2, 3.0), (merged.new_config, 2, 3.0)]
    # a merge of clusters of sizes 4 and 2: at n = 2 the first is too large
    for a, b in (((2, 1), (3, 1)), ((3, 1), (3, 2))):
        state[box.bond_index[(a, b)]] = 1
    cfg = BondConfig(box, state)
    cs = label_clusters(cfg)
    merged = transform(cfg, cs.cluster_of((1, 1)), cs.cluster_of((1, 3)))
    out += [(merged.new_config, 2, 3.0), (merged.new_config, 3, 2.0)]
    for cfg, a, b in random_close_pairs(box, 0.3, 3, seed=6, min_size=2,
                                        max_distance=2):
        out.append((transform(cfg, a, b).new_config, 2, 3.0))
    small = Box.cube(2, 4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        out.append((BondConfig(small, (rng.random(small.n_bonds) < 0.5)
                               .astype(np.uint8)), 2, 1.0))
    return out


@pytest.mark.parametrize("target,n,K", _surgery_targets())
def test_count_antecedents_matches_loop(target, n, K):
    assert count_antecedents(target, n, K) == \
        count_antecedents_loop(target, n, K)
