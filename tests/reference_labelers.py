"""Loop reference implementations that the array code is tested against:
a graph-search cluster labeler, a disjoint-set forest, and the Box tables
derived from tuples of sites.  They are deliberately plain and slow."""
from __future__ import annotations

import numpy as np

from fkpoisson.census import Cluster, ClusterSet
from fkpoisson.fk import FREE


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
