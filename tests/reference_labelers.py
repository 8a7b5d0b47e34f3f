"""Loop reference implementations that the array code is tested against:
a graph-search cluster labeler, a disjoint-set forest, the Box tables
derived from tuples of sites, and pair statistics over cluster sets.  They
are deliberately plain and slow."""
from __future__ import annotations

import math

import numpy as np

from fkpoisson.census import Cluster, ClusterSet
from fkpoisson.chenstein import OffsetStat, PairStats, neighborhood_offsets
from fkpoisson.fk import FREE, BondConfig
from fkpoisson.lattice import Box, set_distance


class DisjointSet:
    """Array disjoint-set forest with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def label_clusters_bfs(config, bc=FREE) -> ClusterSet:
    """Components by graph search from each unseen site in row-major
    order, so clusters come in order of their smallest site.  Open bonds
    join sites, and so does each boundary class of ``bc``."""
    box = config.box
    adj = {s: [] for s in box.sites}
    for i in np.flatnonzero(config.state):
        a, b = box.bonds[i]
        adj[a].append(b)
        adj[b].append(a)
    for group in bc.class_lists(box):
        first = box.sites[group[0]]
        for j in group[1:]:
            adj[first].append(box.sites[j])
            adj[box.sites[j]].append(first)
    bset = box.boundary
    seen = set()
    clusters = []
    site_cluster = {}
    for start in box.sites:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        idx = len(clusters)
        cs = frozenset(comp)
        clusters.append(Cluster(cs, any(s in bset for s in cs)))
        for s in cs:
            site_cluster[s] = idx
    return ClusterSet(box, clusters, site_cluster)


def census_rows_bfs(box, states, min_size: int = 1, origin=None) -> dict:
    """Census columns (see ``census.Census``) built cluster by cluster from
    ``label_clusters_bfs``, as lists."""
    cols = {k: [] for k in ("sample_id", "size", "center", "touches",
                            "origin_size", "origin_touches")}
    for sid, state in enumerate(states):
        cs = label_clusters_bfs(BondConfig(box, state))
        for c in cs.clusters:
            if c.size >= min_size:
                cols["sample_id"].append(sid)
                cols["size"].append(c.size)
                cols["center"].append(list(c.mass_center))
                cols["touches"].append(c.touches_boundary)
        if origin is not None:
            oc = cs.cluster_of(origin)
            cols["origin_size"].append(oc.size)
            cols["origin_touches"].append(oc.touches_boundary)
    return cols


def tuple_tables(box) -> dict:
    """Box tables built site by site from tuples."""
    bonds = []
    for x in box.sites:
        for k in range(box.d):
            y = x[:k] + (x[k] + 1,) + x[k + 1:]
            if box.contains(y):
                bonds.append((x, y))
    bond_sites = np.array([[box.site_index(a), box.site_index(b)]
                           for a, b in bonds], dtype=np.int64).reshape(-1, 2)
    site_bonds = [[] for _ in range(box.n_sites)]
    for i, (ia, ib) in enumerate(bond_sites.tolist()):
        site_bonds[ia].append(i)
        site_bonds[ib].append(i)
    boundary = frozenset(
        x for x in box.sites
        if any(xi in (lo, hi)
               for xi, lo, hi in zip(x, box.lower, box.upper)))
    return {
        "bonds": tuple(bonds),
        "n_bonds": len(bonds),
        "bond_sites": bond_sites,
        "site_bonds": tuple(tuple(v) for v in site_bonds),
        "boundary": boundary,
        "boundary_indices": np.array(
            sorted(box.site_index(x) for x in boundary), dtype=np.int64),
    }


def estimate_pxy_sets(samples, box: Box, n: int, offsets=None,
                      K: float = 5.0) -> PairStats:
    """``chenstein.estimate_pxy`` over an iterable of ClusterSets sharing
    ``box``, pair by pair."""
    d = box.d
    if offsets is None:
        offsets = neighborhood_offsets(n, d)
    offsets = [tuple(z) for z in offsets]
    oset = set(offsets)
    cut = K * math.log(n) if n > 1 else 0.0

    sides = box.sides
    positions = {z: int(np.prod([max(0, s - abs(zk)) for s, zk in zip(sides, z)]))
                 for z in offsets}
    acc = {z: np.zeros(4) for z in offsets}       # pxy, local, close, distant
    acc_sq = {z: 0.0 for z in offsets}            # for the plain-part SE
    pair_samples = {z: 0 for z in offsets}
    n_samples = 0
    for cs in samples:
        n_samples += 1
        quals = [c for c in cs.clusters
                 if not c.touches_boundary and c.size >= n]
        if len(quals) < 2:
            continue
        hits = {z: [set(), set(), set(), set()] for z in oset}
        any_hit = set()
        for a in quals:
            ca = a.mass_center
            for b in quals:
                if a is b:
                    continue
                z = tuple(cb - cak for cb, cak in zip(b.mass_center, ca))
                if z not in oset:
                    continue
                rec = hits[z]
                rec[0].add(ca)
                if a.size < n * n and b.size < n * n:
                    rec[1].add(ca)
                    if set_distance(a.sites, b.sites) <= cut:
                        rec[2].add(ca)
                    else:
                        rec[3].add(ca)
                any_hit.add(z)
        for z in any_hit:
            rec = hits[z]
            counts = np.array([len(s) for s in rec], dtype=float)
            acc[z] += counts
            acc_sq[z] += counts[0] ** 2
            pair_samples[z] += 1
    if n_samples == 0:
        raise ValueError("no samples")

    out = {}
    for z in offsets:
        npos = positions[z]
        if npos == 0:
            continue
        tot = acc[z] / (n_samples * npos)
        mean_c = acc[z][0] / n_samples
        var_c = acc_sq[z] / n_samples - mean_c ** 2
        se = math.sqrt(max(var_c, 0.0) / n_samples) / npos
        out[z] = OffsetStat(z, npos, tot[0], se, tot[1], tot[2], tot[3],
                            pair_samples[z])
    return PairStats(n, K, n_samples, box, out)
