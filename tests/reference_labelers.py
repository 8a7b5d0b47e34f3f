"""Loop reference implementations that the array code is tested against:
a graph-search cluster labeler, a disjoint-set forest, the single-bond
heat bath (the exact conditional law of one bond), the Box tables
derived from tuples of sites, pair statistics over cluster sets, the
site-by-site stratified b3, the replicate-by-replicate Poisson
bootstrap, and the exact pair matrix, b1/b2, b3 of a pattern law,
product law and conjecture 7 taken a pair, a site or a pattern at a
time, the coupling's graph searches over site tuples, the antecedent
count that labels one candidate assignment at a time, the per-sample
point fields of mass centers with their estimators, the shape statistics
painted cluster by cluster and site by site, and the sup form of the
total variation.  They are deliberately plain and slow."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from fkpoisson import coupling, oracle, surgery, wulff
from fkpoisson.census import (Cluster, ClusterSet, _px_lambda_from_arrays,
                              label_clusters)
from fkpoisson.chenstein import (B3Estimate, OffsetStat, PairStats,
                                 neighborhood, neighborhood_offsets)
from fkpoisson.fk import FREE, BondConfig, ResourceCapError
from fkpoisson.lattice import Box, l1, set_distance, star_neighbors


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


def heatbath_step(config, params, e, u: float):
    """Resample bond e from its exact conditional law given all other bonds.

    Open probability is p when the endpoints are connected off e (opening
    does not change the cluster count) and p / (p + q(1-p)) otherwise.
    """
    box = config.box
    i = box.bond_index[e]
    p, q = params.p, params.q
    ds = DisjointSet(box.n_sites)
    for j, (a, b) in enumerate(box.bond_sites.tolist()):
        if config.state[j] and j != i:
            ds.union(a, b)
    for group in params.boundary.class_lists(box):
        for j in group[1:]:
            ds.union(group[0], j)
    a, b = box.bond_sites[i].tolist()
    p_open = p if ds.find(a) == ds.find(b) else p / (p + q * (1.0 - p))
    out = config.copy()
    out.state[i] = 1 if u < p_open else 0
    return out


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


def census_rows_bfs(box, states, min_size: int = 1, origin=None,
                    bc=FREE) -> dict:
    """Census columns (see ``census.Census``) built cluster by cluster from
    ``label_clusters_bfs`` under ``bc``, as lists; ``sites`` holds the
    sorted sites of each finite row, row by row."""
    cols = {k: [] for k in ("sample_id", "size", "center", "touches",
                            "sites", "origin_size", "origin_touches")}
    for sid, state in enumerate(states):
        cs = label_clusters_bfs(BondConfig(box, state), bc)
        for c in cs.clusters:
            if c.size >= min_size:
                cols["sample_id"].append(sid)
                cols["size"].append(c.size)
                cols["center"].append(list(c.mass_center))
                cols["touches"].append(c.touches_boundary)
                if not c.touches_boundary:
                    cols["sites"].append(sorted(map(list, c.sites)))
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


def compute_b3_stratified_sitewise(stack: np.ndarray, box: Box, n: int,
                                   side=None, min_bin: int = 100,
                                   n_boot: int = 200, seed=0) -> B3Estimate:
    """``chenstein.compute_b3_stratified`` binning all samples site by site,
    with a bootstrap drawn per site from that site's cells."""
    n_samples, n_sites = stack.shape
    if n_sites != box.n_sites:
        raise ValueError("stack does not match the box")
    rng = np.random.default_rng(seed)
    lo = hi = 0.0
    boots = np.zeros(n_boot)
    for x in box.sites:
        xi = box.site_index(x)
        inside = {box.site_index(y) for y in neighborhood(x, n, box, side)}
        outside = [i for i in range(n_sites) if i not in inside]
        if len(outside) > 62:
            raise ResourceCapError("conditioning pattern exceeds 62 sites",
                                   size=2.0 ** len(outside))
        if outside:
            keys = stack[:, outside] @ (1 << np.arange(len(outside), dtype=np.int64))
        else:
            keys = np.zeros(n_samples, dtype=np.int64)
        _, inv, counts = np.unique(keys, return_inverse=True,
                                   return_counts=True)
        ones = np.bincount(inv, weights=stack[:, xi].astype(float),
                           minlength=len(counts))
        px = stack[:, xi].mean()
        pop = counts >= min_bin
        contrib = np.abs(ones[pop] - px * counts[pop]).sum() / n_samples
        other = counts[~pop].sum() / n_samples
        lo += contrib
        hi += contrib + other
        cells = np.concatenate([counts - ones, ones]).astype(float)
        pcells = cells / n_samples
        draws = rng.multinomial(n_samples, pcells, size=n_boot).astype(float)
        c0 = draws[:, :len(counts)]
        c1 = draws[:, len(counts):]
        cnt_b = c0 + c1
        px_b = c1.sum(axis=1) / n_samples
        pop_b = cnt_b >= min_bin
        boots += np.where(pop_b, np.abs(c1 - px_b[:, None] * cnt_b), 0.0).sum(axis=1) / n_samples
    se = float(boots.std(ddof=1)) if n_boot > 1 else 0.0
    return B3Estimate(float(lo), float(hi), se, "stratified")


def tv_to_poisson_loop(counts: np.ndarray, lam: float,
                       tail: float = 1e-12) -> float:
    """Total variation between the law of ``counts`` and Poisson(lam),
    walking the pmf one k at a time."""
    emp = np.bincount(counts)
    n = emp.sum()
    emp = emp / n
    if lam == 0.0:
        pois = np.zeros_like(emp)
        pois[0] = 1.0
        return float(np.abs(emp - pois).sum())
    kmax = len(emp) - 1
    pk = math.exp(-lam)
    cum = pk
    tv = abs(emp[0] - pk)
    k = 0
    while k < kmax or 1.0 - cum > tail:
        k += 1
        pk *= lam / k
        cum += pk
        e = emp[k] if k <= kmax else 0.0
        tv += abs(e - pk)
        if k > kmax + 10000:
            break
    tv += max(1.0 - cum, 0.0)
    return float(tv)


def poisson_count_test_loop(counts, n_boot: int = 500, seed=0):
    """(tv, ci_lo, ci_hi) of ``chenstein.poisson_count_test``, one
    bootstrap replicate at a time."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    tv = tv_to_poisson_loop(counts, float(counts.mean()))
    rng = np.random.default_rng(seed)
    emp = np.bincount(counts)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        res = rng.multinomial(n, emp / n)
        ks = np.arange(len(res))
        lam_b = float((res * ks).sum() / n)
        boots[b] = tv_to_poisson_loop(np.repeat(ks, res), lam_b)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return tv, float(lo), float(hi)


def pattern_key(field: np.ndarray) -> bytes:
    """The ``PatternLaw`` key of a 0/1 field: packbits of the row-major
    indicator vector."""
    return np.packbits(field.astype(np.uint8)).tobytes()


def exact_pxy_matrix_k2(dist, n: int, window: str = "plain",
                        surrogate: str = "boundary") -> np.ndarray:
    """``oracle.exact_pxy_matrix`` through a (configs, sites, sites) array
    of center pairs per chunk."""
    k = dist.box.n_sites
    out = np.zeros((k, k))
    variant = "plain" if window == "plain" else "local"
    diag = np.arange(k)
    for rows in oracle._chunks(dist.n_configs):
        counts = oracle._center_counts(dist, rows, n, variant, surrogate)
        present = counts > 0
        pairs = present[:, :, None] & present[:, None, :]
        pairs[:, diag, diag] = counts >= 2
        r, ab = np.nonzero(pairs.reshape(len(pairs), k * k))
        np.add.at(out.reshape(-1), ab, dist.probs[rows][r])
    return out


def exact_b1_b2_loop(dist, n: int, side=None, surrogate: str = "boundary"):
    """``chenstein.exact_b1_b2`` with a loop over every site and its
    neighborhood."""
    box = dist.box
    px = oracle.exact_px_field(dist, n, surrogate=surrogate)
    pxy = exact_pxy_matrix_k2(dist, n, window="plain", surrogate=surrogate)
    b1 = b2 = 0.0
    for x in box.sites:
        xi = box.site_index(x)
        for y in neighborhood(x, n, box, side):
            yi = box.site_index(y)
            b1 += px[xi] * px[yi]
            if yi != xi:
                b2 += pxy[xi, yi]
    return float(b1), float(b2), px


def b3_of_law_loop(law, n: int, side=None) -> float:
    """``chenstein._b3_of_law`` with a dict of outside patterns per site."""
    box = law.box
    patterns = [(law.unpack(k), p) for k, p in law.table.items()]
    total = 0.0
    for x in box.sites:
        xi = box.site_index(x)
        inside = {box.site_index(y) for y in neighborhood(x, n, box, side)}
        outside = [i for i in range(box.n_sites) if i not in inside]
        px = sum(p for f, p in patterns if f[xi])
        groups: dict[bytes, list[float]] = {}
        for f, p in patterns:
            key = f[outside].tobytes()
            g = groups.setdefault(key, [0.0, 0.0])
            g[0] += p
            g[1] += p if f[xi] else 0.0
        total += sum(abs(g1 - px * g0) for g0, g1 in groups.values())
    return total


def product_law_loop(px: np.ndarray, box: Box, n: int = 0,
                     variant: str = "product"):
    """``oracle.product_law`` keyed one pattern at a time."""
    k = box.n_sites
    patterns = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1)
    probs = np.prod(np.where(patterns == 1, px[None, :], 1.0 - px[None, :]),
                    axis=1)
    table: dict[bytes, float] = {}
    for row, pr in zip(patterns.astype(bool), probs):
        if pr > 0.0:
            table[pattern_key(row)] = table.get(pattern_key(row), 0.0) \
                + float(pr)
    return oracle.PatternLaw(box, n, variant, table)


def conjecture7_pair(dist, n: int, xi: int, yi: int,
                     surrogate: str = "boundary") -> tuple[float, float]:
    """(lhs, rhs) of ``oracle.conjecture7_check`` at site indices xi, yi,
    from whole columns of the cluster tables."""
    box, t = dist.box, dist.cluster_tables
    zi = box.site_index(box.center)

    def finite_large(site_idx: int, thresh: int) -> np.ndarray:
        large = t.size[:, site_idx] >= thresh
        if surrogate == "boundary":
            large &= ~t.touches[:, site_idx]
        return large

    lhs = oracle._ordered_sum(dist.probs[(t.label[:, xi] != t.label[:, yi])
                                         & finite_large(xi, n)
                                         & finite_large(yi, n)])
    rhs = oracle._ordered_sum(dist.probs[finite_large(zi, 2 * n)])
    return lhs, rhs


# ---------------------------------------------------------------------------
# the coupling's graph searches


def neighbors_in(box: Box, x) -> list:
    """The nearest neighbours of x inside the box."""
    out = []
    for k in range(box.d):
        for dx in (-1, 1):
            y = x[:k] + (x[k] + dx,) + x[k + 1:]
            if box.contains(y):
                out.append(y)
    return out


def black_cluster_search(coloring, v_sites) -> frozenset:
    """V together with every black site joined to V by a star-path through
    black sites."""
    box = coloring.box
    out = set(v_sites)
    stack = list(out)
    while stack:
        x = stack.pop()
        for y in star_neighbors(x):
            if y in out or not box.contains(y):
                continue
            if not coloring.white[box.site_index(y)]:
                out.add(y)
                stack.append(y)
    return frozenset(out)


def reachable_avoiding(box: Box, blocked, targets) -> frozenset:
    """Sites with an ordinary path to the target set avoiding blocked sites."""
    seeds = [t for t in targets if t not in blocked and box.contains(t)]
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for y in neighbors_in(box, x):
            if y not in seen and y not in blocked:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def interior_boundary_search(coloring, black, gamma) -> frozenset:
    """Sites outside the black cluster, star-adjacent to it, with an
    ordinary path to Gamma avoiding it."""
    reach = reachable_avoiding(coloring.box, black, gamma)
    return frozenset(x for x in reach
                     if any(y in black for y in star_neighbors(x)))


def analyze_search(coloring, gamma) -> dict:
    """The coupling outcome of one coloring as site sets."""
    box = coloring.box
    gamma = frozenset(gamma)
    black = black_cluster_search(coloring, box.boundary)
    dbd = interior_boundary_search(coloring, black, gamma)
    interior = reachable_avoiding(box, black, gamma)
    return {"black": black, "interior_bd": dbd, "interior": interior,
            "k": not ((black | dbd) & gamma)}


def connected(sites, neighbor_fn) -> bool:
    if len(sites) <= 1:
        return True
    start = next(iter(sites))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in neighbor_fn(x):
            if y in sites and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(sites)


def check_claims_search(coloring, gamma) -> coupling.ClaimsCheck:
    """``coupling.check_claims`` of the outcome of one coloring, by graph
    search over site tuples."""
    box = coloring.box
    out = analyze_search(coloring, gamma)
    d_set, interior = out["interior_bd"], out["interior"]
    conn_o = connected(d_set, lambda x: neighbors_in(box, x))
    conn_s = connected(d_set, lambda x: (y for y in star_neighbors(x)
                                         if box.contains(y)))
    all_white = all(coloring.white[box.site_index(x)] for x in d_set)
    masked = coloring.white.copy()
    for x in interior:
        masked[box.site_index(x)] = True
    again = analyze_search(coupling.Coloring(box, masked), gamma)
    determined = again["black"] == out["black"] and \
        again["interior_bd"] == d_set
    adj = True
    for x in interior:
        if all(y in interior for y in neighbors_in(box, x)):
            continue
        if x in d_set or any(y in d_set for y in neighbors_in(box, x)):
            continue
        adj = False
        break
    return coupling.ClaimsCheck(out["k"], conn_o, conn_s, all_white,
                                determined, adj)


# ---------------------------------------------------------------------------
# antecedent count, one labeling per candidate assignment


def count_antecedents_loop(target: BondConfig, n: int, K: float) -> int:
    """``surgery.count_antecedents`` (without its caps), labeling every
    candidate assignment on its own."""
    box = target.box
    cut = K * math.log(n) if n > 1 else 0.0
    candidates = []
    for u in box.sites:
        for v in box.sites:
            if u == v or l1(u, v) > cut:
                continue
            path = surgery.axis_path(u, v)
            touched = set()
            for s in path:
                if not box.contains(s):
                    break
                touched.update(box.site_bonds[box.site_index(s)])
            else:
                candidates.append((u, v, sorted(touched)))
    found: set[bytes] = set()
    target_bytes = target.state.tobytes()
    for u, v, touched in candidates:
        for mask in range(1 << len(touched)):
            cand = target.state.copy()
            for j, bi in enumerate(touched):
                cand[bi] = (mask >> j) & 1
            key = cand.tobytes()
            if key in found:
                continue
            cfg = BondConfig(box, cand)
            cs = label_clusters(cfg)
            cu = cs.cluster_of(u)
            cv = cs.cluster_of(v)
            if cu is cv:
                continue
            if not (n <= cu.size < n * n and n <= cv.size < n * n):
                continue
            if cu.touches_boundary or cv.touches_boundary:
                continue
            if set_distance(cu.sites, cv.sites) > cut:
                continue
            res = surgery.transform(cfg, cu, cv)
            if res.new_config.state.tobytes() == target_bytes:
                found.add(key)
    return len(found)


@dataclass
class PointField:
    """Indicator field over the box: 1 exactly at mass centers of
    qualifying clusters.

    variant "plain": clusters with n <= |C|, finite.
    variant "truncated": clusters with n <= |C| < n^2/4, finite.
    """

    box: Box
    n: int
    variant: str
    field: np.ndarray  # bool, len == n_sites, row-major
    collisions: int = 0

    def indicator(self, x) -> bool:
        return bool(self.field[self.box.site_index(x)])

    def count(self) -> int:
        return int(self.field.sum())


def _qualifies(size: int, n: int, variant: str) -> bool:
    if variant == "plain":
        return size >= n
    if variant == "truncated":
        return n <= size < n * n / 4.0
    raise ValueError(f"unknown variant {variant!r}")


def point_process(cs: ClusterSet, n: int, variant: str = "plain") -> PointField:
    """Mark the mass center of every finite qualifying cluster; two
    qualifying clusters sharing a mass center mark it once, and the
    collision is counted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    box = cs.box
    fld = np.zeros(box.n_sites, dtype=bool)
    collisions = 0
    for c in cs.clusters:
        if c.touches_boundary or not _qualifies(c.size, n, variant):
            continue
        i = box.site_index(c.mass_center)
        if fld[i]:
            collisions += 1
        fld[i] = True
    return PointField(box, n, variant, fld, collisions)


def estimate_px_lambda(samples: list, x):
    """``census.estimate_px_lambda_census`` over a list of PointFields."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    first = samples[0]
    for s in samples:
        if s.box != first.box or s.n != first.n or s.variant != first.variant:
            raise ValueError("samples mix boxes, thresholds or variants")
    i = first.box.site_index(x)
    ind = np.array([s.field[i] for s in samples], dtype=float)
    counts = np.array([s.count() for s in samples], dtype=float)
    return _px_lambda_from_arrays(ind, counts, first.box.n_sites)


def theta_estimate_sets(sets) -> float:
    """``census.theta_estimate`` over ClusterSets, origin = box center."""
    sets = list(sets)
    if not sets:
        raise ValueError("no samples")
    origin = sets[0].box.center
    hits = sum(1 for cs in sets if cs.cluster_of(origin).touches_boundary)
    return hits / len(sets)


def tv_sup_form(law1, law2, exhaustive_limit: int = 16) -> float:
    """2 sup_A |P1(A) - P2(A)|, by exhaustive subset search when the joint
    support is small and by the positive-part identity otherwise."""
    keys = sorted(set(law1.table) | set(law2.table))
    diff = np.array([law1.table.get(k, 0.0) - law2.table.get(k, 0.0)
                     for k in keys])
    if len(keys) <= exhaustive_limit:
        best = 0.0
        for mask in range(1 << len(keys)):
            sel = (mask >> np.arange(len(keys))) & 1
            best = max(best, abs(float(diff @ sel)))
        return 2.0 * best
    return 2.0 * float(np.maximum(diff, 0.0).sum())


def scaled_fattened_loop(sites, n: int, width: int, cpu: int):
    """Raster of (1/n) * (width-neighborhood of the cluster cells): cell
    centers c with |n c - y|_inf <= width + 1/2 for some site y."""
    sites = list(sites)
    d = len(sites[0])
    r = (width + 0.5) / n
    lo_cell = [int(math.floor((min(s[k] for s in sites) / n - r) * cpu))
               for k in range(d)]
    hi_cell = [int(math.ceil((max(s[k] for s in sites) / n + r) * cpu))
               for k in range(d)]
    grid = np.zeros(tuple(h - l for l, h in zip(lo_cell, hi_cell)), dtype=bool)
    eps = 1e-9
    for y in sites:
        sl = []
        for k in range(d):
            a = (y[k] / n - r) * cpu - 0.5
            b = (y[k] / n + r) * cpu - 0.5
            i0 = max(int(math.ceil(a - eps)) - lo_cell[k], 0)
            i1 = min(int(math.floor(b + eps)) - lo_cell[k], grid.shape[k] - 1)
            sl.append(slice(i0, i1 + 1))
        grid[tuple(sl)] = True
    return wulff.ShapeMask(cpu, tuple(lo_cell), grid)


def symmetric_difference_stat_loop(centers: PointField, clusters, shape,
                                   n: int, width: int, delta: float):
    """``wulff.symmetric_difference_stat`` from a PointField and the
    qualifying Clusters, one mask per center and per cluster; the shape
    sits at the raster cell nearest x / n (ties upward)."""
    cpu = shape.cells_per_unit
    d = shape.d
    box = centers.box
    center_sites = [box.sites[i] for i in np.flatnonzero(centers.field)]
    masks_a = [wulff.ShapeMask(
        cpu, tuple(l + (2 * xi * cpu + n) // (2 * n)
                   for l, xi in zip(shape.lower_cells, x)), shape.grid)
        for x in center_sites]
    masks_b = [scaled_fattened_loop(c.sites, n, width, cpu)
               for c in clusters]
    all_masks = masks_a + masks_b
    if not all_masks:
        return wulff.ShapeDiagnostic(n, 0.0, 0, delta, cpu)
    _, lo, shp = wulff._common_window(all_masks)
    ga = np.zeros(shp, dtype=bool)
    gb = np.zeros(shp, dtype=bool)
    for m in masks_a:
        wulff._paint(ga, lo, m)
    for m in masks_b:
        wulff._paint(gb, lo, m)
    vol = float((ga ^ gb).sum()) / cpu ** d
    return wulff.ShapeDiagnostic(n, vol, len(center_sites), delta, cpu)


def empirical_shape_loop(cluster_sets, n: int, cells_per_unit: int = 16,
                         min_count: int = 20):
    """``wulff.empirical_shape`` over ClusterSets, painting each cluster's
    indicator site by site."""
    clusters = []
    for cs in cluster_sets:
        for c in cs.clusters:
            if not c.touches_boundary and c.size >= n:
                clusters.append(c)
    if len(clusters) < min_count:
        raise ValueError(
            f"only {len(clusters)} qualifying clusters; need {min_count}")
    d = len(next(iter(clusters[0].sites)))
    cpu = cells_per_unit
    reach = 0.0
    for c in clusters:
        mc = c.mass_center
        sigma = c.size ** (-1.0 / d)
        for s in c.sites:
            for k in range(d):
                reach = max(reach, sigma * (abs(s[k] - mc[k]) + 0.5))
    half = int(math.ceil(reach * cpu)) + 1
    acc = np.zeros((2 * half,) * d)
    eps = 1e-9
    for c in clusters:
        mc = c.mass_center
        sigma = c.size ** (-1.0 / d)
        ind = np.zeros_like(acc, dtype=bool)
        for s in c.sites:
            sl = []
            for k in range(d):
                a = sigma * (s[k] - mc[k] - 0.5) * cpu - 0.5
                b = sigma * (s[k] - mc[k] + 0.5) * cpu - 0.5
                i0 = max(int(math.ceil(a - eps)) + half, 0)
                i1 = min(int(math.floor(b + eps)) + half, acc.shape[k] - 1)
                sl.append(slice(i0, i1 + 1))
            ind[tuple(sl)] = True
        acc += ind
    occ = acc / len(clusters)
    return wulff.ShapeMask(cpu, (-half,) * d, occ >= 0.5)


def wulff_rows_loop(box: Box, states, n: int, shape, width: int,
                    delta: float) -> list:
    """The rows of ``wulff.jsonl``, one ClusterSet and PointField per
    sample, clustered under the free boundary."""
    rows = []
    for state in states:
        cs = label_clusters(BondConfig(box, state))
        quals = [c for c in cs.clusters
                 if not c.touches_boundary and c.size >= n]
        diag = symmetric_difference_stat_loop(point_process(cs, n), quals,
                                              shape, n, width, delta)
        rows.append({"volume": diag.volume, "centers": diag.center_count,
                     "event": diag.indicator})
    return rows


def shape_to_bytes_loop(mask) -> bytes:
    """``ShapeMask.to_bytes``, run lengths counted cell by cell."""
    head = struct.pack("<BI", mask.d, mask.cells_per_unit)
    head += struct.pack(f"<{mask.d}q", *mask.lower_cells)
    head += struct.pack(f"<{mask.d}q", *mask.grid.shape)
    runs = []
    current, length = False, 0
    for v in mask.grid.ravel():
        if bool(v) == current:
            length += 1
        else:
            runs.append(length)
            current, length = bool(v), 1
    runs.append(length)
    return head + struct.pack(f"<I{len(runs)}Q", len(runs), *runs)


def renormalize_loop(shape, theta: float):
    """``wulff.renormalize``, one ``contains_point`` per new cell."""
    s = (theta * shape.volume) ** (-1.0 / shape.d)
    cpu = shape.cells_per_unit
    lo = [int(math.floor(l * s)) for l in shape.lower_cells]
    hi = [int(math.ceil((l + n) * s)) for l, n in zip(shape.lower_cells,
                                                     shape.grid.shape)]
    new = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=bool)
    for idx in np.ndindex(*new.shape):
        center = [(l + i + 0.5) / cpu for l, i in zip(lo, idx)]
        new[idx] = shape.contains_point([c / s for c in center])
    return wulff.ShapeMask(cpu, tuple(lo), new)
