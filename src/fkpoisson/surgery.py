"""Deterministic merge of two nearby clusters through an axis-aligned path.

Given two disjoint clusters, the construction picks the order-minimal site
pair (u, v) across them, walks the staircase path that changes the last
coordinate first, opens the path bonds and closes every other bond
incident to the path's interior sites.  The merged set
C u C' u {interior path sites} is then a single cluster of the new
configuration, at most 2d |u-v|_1 bonds changed state, and the finite
energy floor bounds the weight ratio from below by delta^changed.

Antecedent counting inverts the map exhaustively: enumerate candidate
(u, v) pairs within the distance cutoff, free the states of every bond
touching the path, and keep exactly the configurations that map back to
the target.  The count is exact for the close-pair class, not a bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import (Cluster, cluster_stats, configs_per_label_call,
                     label_clusters)
from .fk import (BondConfig, FKParams, ResourceCapError, finite_energy_floor,
                 label_sites, log_weight)
from .lattice import Box, Site, l1, pair_sort_key, set_distance


def first_pair(c1: Cluster, c2: Cluster) -> tuple[Site, Site]:
    """The order-minimal pair (u, v) with u in the first cluster and v in
    the second; the order is L1 length first, lexicographic on ties."""
    if c1.sites & c2.sites:
        raise ValueError("clusters overlap")
    if not c1.sites or not c2.sites:
        raise ValueError("empty cluster")
    best = None
    best_key = None
    for u in c1.sites:
        for v in c2.sites:
            key = pair_sort_key((u, v))
            if best_key is None or key < best_key:
                best_key = key
                best = (u, v)
    return best


def axis_path(u: Site, v: Site) -> list[Site]:
    """Unit-step path from u to v along coordinate segments, changing the
    last coordinate first; length |u-v|_1, all sites distinct."""
    d = len(u)
    path = [u]
    cur = list(u)
    for axis in range(d - 1, -1, -1):
        step = 1 if v[axis] > cur[axis] else -1
        while cur[axis] != v[axis]:
            cur[axis] += step
            path.append(tuple(cur))
    return path


@dataclass
class SurgeryResult:
    config: BondConfig
    new_config: BondConfig
    pair: tuple[Site, Site]
    path: list[Site]
    opened: tuple[int, ...]   # bond indices whose state actually flipped
    closed: tuple[int, ...]
    merged_sites: frozenset[Site]

    @property
    def changed(self) -> int:
        return len(self.opened) + len(self.closed)

    def to_dict(self) -> dict:
        box = self.config.box
        return {
            "pair": [list(self.pair[0]), list(self.pair[1])],
            "path": [list(s) for s in self.path],
            "opened": [[list(box.bonds[i][0]), list(box.bonds[i][1])]
                       for i in self.opened],
            "closed": [[list(box.bonds[i][0]), list(box.bonds[i][1])]
                       for i in self.closed],
            "merged_size": len(self.merged_sites),
        }


def _check_interior(box: Box, cluster: Cluster, name: str) -> None:
    if cluster.touches_boundary or any(s in box.boundary for s in cluster.sites):
        raise ValueError(
            f"{name} touches the box boundary; its incident bonds leave the "
            f"box (pad the box)")


def transform(config: BondConfig, c1: Cluster, c2: Cluster) -> SurgeryResult:
    """Merge two disjoint interior clusters of the configuration.

    Path bonds are opened; every other bond incident to an interior path
    site is closed.  Interior path sites can never collide with the
    clusters when (u, v) is order-minimal (a collision would yield a
    strictly closer pair); it is asserted anyway.
    """
    box = config.box
    if c1.sites & c2.sites:
        raise ValueError("clusters overlap")
    _check_interior(box, c1, "first cluster")
    _check_interior(box, c2, "second cluster")
    u, v = first_pair(c1, c2)
    path = axis_path(u, v)
    interior = path[1:-1] if len(path) > 1 else []
    joint = c1.sites | c2.sites
    for s in interior:
        if s in joint:
            raise RuntimeError(
                f"interior path site {s} lies in a cluster; (u, v) was not "
                f"order-minimal")
        if not box.contains(s) or s in box.boundary:
            raise ValueError(f"path leaves the padded box at {s}")

    state = config.state.copy()
    path_bonds = set()
    for a, b in zip(path, path[1:]):
        path_bonds.add(box.bond_index[(a, b)])
    opened = []
    for i in sorted(path_bonds):
        if state[i] == 0:
            state[i] = 1
            opened.append(i)
    closed = []
    for s in interior:
        for i in box.site_bonds[box.site_index(s)]:
            if i not in path_bonds and state[i] == 1:
                state[i] = 0
                closed.append(i)
    merged = frozenset(joint | set(interior))
    return SurgeryResult(config, BondConfig(box, state), (u, v), path,
                         tuple(opened), tuple(sorted(set(closed))), merged)


def merged_window_check(result: SurgeryResult, c1: Cluster, c2: Cluster,
                        n: int, K: float) -> dict:
    """Size bookkeeping of the merged set against the construction's window.

    The bounds |C|+|C'| <= |~C| <= |C|+|C'|+k-1 always hold.  The window
    2n <= |~C| < 4n + K ln n additionally needs both sizes below 2n; it is
    only asserted in that regime and reported otherwise.
    """
    k = l1(*result.pair)
    size = len(result.merged_sites)
    lo_ok = c1.size + c2.size <= size
    hi_ok = size <= c1.size + c2.size + max(k - 1, 0)
    out = {"size": size, "k": k, "bounds_ok": lo_ok and hi_ok,
           "window_checked": False, "window_ok": None}
    if n <= min(c1.size, c2.size) and max(c1.size, c2.size) < 2 * n \
            and k <= K * math.log(n):
        out["window_checked"] = True
        out["window_ok"] = 2 * n <= size < 4 * n + K * math.log(n)
    return out


# ---------------------------------------------------------------------------
# inverting the construction


def antecedent_bound(n: int, K: float, d: int) -> float:
    """Counting bound on antecedents: (3 n^2)^d (2 K ln n)^d 2^(2 d K ln n)."""
    ln = math.log(n)
    return (3.0 * n * n) ** d * (2.0 * K * ln) ** d * 2.0 ** (2 * d * K * ln)


def count_antecedents(target: BondConfig, n: int, K: float,
                      pair_cap: int = 50_000,
                      state_cap: int = 1 << 24) -> int:
    """Exact number of configurations with two disjoint size-window
    clusters within distance K ln n that the merge maps onto ``target``.

    Candidate pairs (u, v) run over the box at L1 distance <= K ln n; for
    each, every assignment of the bonds touching the pair's path is tried
    and kept only if re-applying the merge reproduces the target.  A
    pair's assignments are labeled in ``label_sites`` batches, and
    clusters are built only where the sizes and boundary contact of u's
    and v's clusters pass.  Raises with the partial search-space size once
    the candidate budget is hit.
    """
    box = target.box
    cut = K * math.log(n) if n > 1 else 0.0
    sites = box.sites
    candidates = []
    space = 0.0
    for u in sites:
        for v in sites:
            if u == v or l1(u, v) > cut:
                continue
            # the staircase between two sites of the box stays in the box
            touched = sorted({b for s in axis_path(u, v)
                              for b in box.site_bonds[box.site_index(s)]})
            candidates.append((box.site_index(u), box.site_index(v), touched))
            space += 2.0 ** len(touched)
            if len(candidates) > pair_cap or space > state_cap:
                raise ResourceCapError(
                    f"antecedent search space at least {space:.3g} states "
                    f"over {len(candidates)} candidate pairs", size=space)

    found: set[bytes] = set()
    target_bytes = target.state.tobytes()
    per_call = configs_per_label_call(box)
    for ui, vi, touched in candidates:
        for first in range(0, 1 << len(touched), per_call):
            masks = np.arange(first, min(first + per_call, 1 << len(touched)))
            cands = np.repeat(target.state[None], len(masks), axis=0)
            cands[:, touched] = masks[:, None] >> np.arange(len(touched)) & 1
            labels, m = label_sites(box, cands)
            size, touches = cluster_stats(box, labels, m)
            lu, lv = labels[:, ui], labels[:, vi]
            ok = (lu != lv) & ~touches[lu] & ~touches[lv]
            for lab in (lu, lv):
                ok &= (n <= size[lab]) & (size[lab] < n * n)
            for r in np.flatnonzero(ok).tolist():
                key = cands[r].tobytes()
                if key in found:
                    continue
                cu, cv = (Cluster(box.sites_in(labels[r] == lab[r]), False)
                          for lab in (lu, lv))
                if set_distance(cu.sites, cv.sites) > cut:
                    continue
                res = transform(BondConfig(box, cands[r]), cu, cv)
                if res.new_config.state.tobytes() == target_bytes:
                    found.add(key)
    return len(found)


# ---------------------------------------------------------------------------
# weight bookkeeping


@dataclass
class WeightRatioCheck:
    ratio: float
    floor: float
    holds: bool
    log_ratio: float
    log_floor: float


def weight_ratio_check(params: FKParams, result: SurgeryResult) -> WeightRatioCheck:
    """weight(after)/weight(before) against the finite-energy floor
    delta^changed, evaluated in log space."""
    delta = finite_energy_floor(params)
    lr = log_weight(result.new_config, params) - log_weight(result.config, params)
    lf = result.changed * math.log(delta)
    return WeightRatioCheck(math.exp(lr), math.exp(lf), lr >= lf - 1e-9, lr, lf)


def random_close_pairs(box: Box, p_open: float, n_instances: int, seed=0,
                       min_size: int = 1, max_distance: float | None = None,
                       max_tries: int = 100_000):
    """Generate (config, cluster, cluster) test instances by drawing
    independent bond fields and picking the order-minimal disjoint pair of
    interior clusters within the distance cutoff."""
    rng = np.random.default_rng(seed)
    out = []
    tries = 0
    while len(out) < n_instances and tries < max_tries:
        tries += 1
        config = BondConfig(box, (rng.random(box.n_bonds) < p_open).astype(np.uint8))
        cs = label_clusters(config)
        cands = [c for c in cs.clusters
                 if not c.touches_boundary and c.size >= min_size]
        best = None
        best_key = None
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                dist = set_distance(cands[i].sites, cands[j].sites)
                if max_distance is not None and dist > max_distance:
                    continue
                u, v = first_pair(cands[i], cands[j])
                key = pair_sort_key((u, v))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (cands[i], cands[j])
        if best is not None:
            out.append((config, best[0], best[1]))
    return out
