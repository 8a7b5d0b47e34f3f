"""Exhaustive ground truth on tiny boxes.

Every operation here enumerates all 2^|bonds| configurations, so it is
deliberately brute force and refuses beyond a hard cap.  Configuration i
encodes bond j as bit j: state[j] = (i >> j) & 1, in ``box.bonds`` order.

Configurations are labeled by their own recurrence, a chunk at a time
(``_enumeration_labels``): configuration c + 2^j, for c < 2^j, is c with
bond j opened, so its labels are c's with the two endpoint clusters
merged, and every site is labeled by the smallest site index of its
cluster.  The enumeration is labeled twice: once under the boundary
condition, for the weights, and once over open bonds only, for the
per-(configuration, site) cluster tables that are cached on the
``ExactDistribution``; the exact laws below are reductions over those
tables.  Probabilities are accumulated in configuration order
(``np.add.at``, ``np.cumsum``), the order of a plain loop over
configurations, so results do not depend on how the reductions are
vectorized.

The point-process laws use the same finiteness surrogate as the census
module (a cluster is finite iff it avoids the box boundary); pass
``surrogate="all"`` to count every cluster as finite instead, which is the
only sensible reading on boxes whose every site sits on the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import cluster_centers, cluster_stats
from .fk import (FREE, BondConfig, BoundaryCondition, FKParams,
                 ResourceCapError)
from .lattice import Box, Site

ENUM_CAP = 24
# configurations labeled, or reduced, per numpy pass
CHUNK = 1 << 14


@dataclass(frozen=True)
class ClusterTables:
    """Cluster data of every configuration of a box, for open bonds only.

    Each array has shape (n_configs, n_sites), row i describing
    configuration i and column s the cluster of site s:

    - ``label``: the smallest site index in the cluster (uint8);
    - ``size``: the number of sites in the cluster (uint8);
    - ``touches``: whether the cluster touches the box boundary (bool);
    - ``center``: the site index of the cluster's floor mass center (uint8).

    That is 4 bytes per site per configuration: 32 KiB on a 2x4 box
    (10 bonds), about 1 GiB on a 4x4 box at the 24-bond cap.
    """

    label: np.ndarray
    size: np.ndarray
    touches: np.ndarray
    center: np.ndarray


@dataclass
class ExactDistribution:
    box: Box
    params: FKParams
    probs: np.ndarray  # index = configuration bits
    log_z: float

    @property
    def n_configs(self) -> int:
        return len(self.probs)

    @cached_property
    def cluster_tables(self) -> ClusterTables:
        """Open-bond cluster tables of every configuration, built on first
        use (see ``ClusterTables`` for their memory cost)."""
        return _cluster_tables(self.box)

    def state_of(self, index: int) -> np.ndarray:
        m = self.box.n_bonds
        return ((index >> np.arange(m)) & 1).astype(np.uint8)

    def config_of(self, index: int) -> BondConfig:
        return BondConfig(self.box, self.state_of(index))

    def to_table(self) -> list[dict]:
        return [{"config": i, "probability": float(p)}
                for i, p in enumerate(self.probs)]


def _chunks(n_configs: int):
    for start in range(0, n_configs, CHUNK):
        yield slice(start, min(start + CHUNK, n_configs))


def _start_labels(box: Box, bc: BoundaryCondition) -> np.ndarray:
    """The labels of the all-closed configuration: each site its own,
    except that the sites of a boundary class all take the class's
    smallest."""
    start = np.arange(box.n_sites, dtype=np.uint8)
    for group in bc.class_lists(box):
        start[group] = min(group)
    return start


def _merge(labels: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
    """``labels`` with the clusters of sites a and b merged, into ``out``:
    the larger of their two labels becomes the smaller."""
    la, lb = labels[:, a, None], labels[:, b, None]
    merged = labels == np.maximum(la, lb)
    np.copyto(out, labels)
    np.copyto(out, np.minimum(la, lb), where=merged)


def _enumeration_labels(box: Box, bc: BoundaryCondition = FREE):
    """Yield ``(rows, labels)`` chunk by chunk over all configurations:
    ``labels`` is the (configs, n_sites) uint8 array in which each site of
    configurations rows.start..stop carries the smallest site index of its
    cluster, the boundary classes of ``bc`` glued.

    A chunk is cut into blocks of 2^k configurations that start at a
    multiple of 2^k.  A block's first configuration has only bonds k and
    up open; they are merged into the all-closed labels one at a time.
    The block then doubles once per bond j < k: its configurations
    2^j..2^(j+1)-1 are its first 2^j with bond j merged."""
    start = _start_labels(box, bc)
    ends = box.bond_sites.tolist()
    for rows in _chunks(1 << box.n_bonds):
        out = np.empty((rows.stop - rows.start, box.n_sites), np.uint8)
        lo = rows.start
        while lo < rows.stop:
            k = (lo & -lo).bit_length() - 1 if lo else box.n_bonds
            while lo + (1 << k) > rows.stop:
                k -= 1
            block = out[lo - rows.start:lo - rows.start + (1 << k)]
            block[0] = start
            for j in range(k, box.n_bonds):
                if (lo >> j) & 1:
                    _merge(block[:1], *ends[j], out=block[:1])
            for j in range(k):
                _merge(block[:1 << j], *ends[j], out=block[1 << j:2 << j])
            lo += 1 << k
        yield rows, out


def _cluster_tables(box: Box) -> ClusterTables:
    n_configs, s = 1 << box.n_bonds, box.n_sites
    tables = ClusterTables(np.empty((n_configs, s), np.uint8),
                           np.empty((n_configs, s), np.uint8),
                           np.empty((n_configs, s), bool),
                           np.empty((n_configs, s), np.uint8))
    for rows, label in _enumeration_labels(box):
        # number the chunk's clusters 0..n-1 in order of their smallest
        # site, configuration by configuration, as label_sites does
        roots = np.cumsum(label == np.arange(s)).reshape(label.shape)
        labels = np.take_along_axis(roots, label.astype(np.intp), axis=1)
        labels -= 1
        size, touches = cluster_stats(box, labels, int(roots[-1, -1]))
        center = cluster_centers(box, labels, size)
        tables.label[rows] = label
        tables.size[rows] = size[labels]
        tables.touches[rows] = touches[labels]
        tables.center[rows] = np.ravel_multi_index(center.T,
                                                   box.sides)[labels]
    return tables


def enumerate_measure(box: Box, params: FKParams,
                      max_bonds: int = ENUM_CAP) -> ExactDistribution:
    """Exact probability of every configuration of the box."""
    m = box.n_bonds
    if m > max_bonds:
        raise ResourceCapError(
            f"{m} bonds exceed the enumeration cap ({max_bonds}); "
            f"2^{m} configurations", size=2.0 ** m)
    params.boundary.validate(box)
    p, q = params.p, params.q
    # open bonds by doubling: configuration c + 2^j has one more than c
    k = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        k = np.concatenate([k, k + 1])
    cl = np.empty(1 << m, dtype=np.int64)
    own = np.arange(box.n_sites)
    for rows, labels in _enumeration_labels(box, params.boundary):
        # a cluster has one site that is its own label
        cl[rows] = (labels == own).sum(axis=1)
    if p == 0.0:
        base = np.where(k == 0, 0.0, -np.inf)
    elif p == 1.0:
        base = np.where(k == m, 0.0, -np.inf)
    else:
        base = k * math.log(p) + (m - k) * math.log(1.0 - p)
    logw = base + cl * math.log(q)
    mx = logw.max()
    w = np.exp(logw - mx)
    z = w.sum()
    return ExactDistribution(box, params, w / z, float(mx + np.log(z)))


def sample_exact(dist: ExactDistribution, n_samples: int, seed=0) -> np.ndarray:
    """(n_samples, n_bonds) i.i.d. draws from the exact distribution.

    Perfect sampling; usable wherever enumeration is feasible, bypassing
    burn-in questions entirely.
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.n_configs, size=n_samples, p=dist.probs)
    m = dist.box.n_bonds
    return ((idx[:, None] >> np.arange(m)[None, :]) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# exact laws of the center point process


@dataclass
class PatternLaw:
    """Distribution of a 0/1 field over the box sites.

    Keys are packbits of the row-major indicator vector.
    """

    box: Box
    n: int
    variant: str
    table: dict[bytes, float]

    @property
    def n_sites(self) -> int:
        return self.box.n_sites

    def unpack(self, key: bytes) -> np.ndarray:
        return np.unpackbits(np.frombuffer(key, dtype=np.uint8),
                             count=self.n_sites).astype(bool)

    def marginal(self, site_index: int) -> float:
        return sum(p for k, p in self.table.items()
                   if self.unpack(k)[site_index])


def _qualifying(size: np.ndarray, n: int, variant: str) -> np.ndarray:
    """Elementwise size test of a variant: "plain" n <= |C|, "truncated"
    n <= |C| < n^2/4 (as in ``census``), "local" n <= |C| < n^2."""
    if variant == "plain":
        return size >= n
    if variant == "truncated":
        return (size >= n) & (size < n * n / 4.0)
    if variant == "local":
        return (size >= n) & (size < n * n)
    raise ValueError(f"unknown variant {variant!r}")


def _center_counts(dist: ExactDistribution, rows: slice, n: int,
                   variant: str, surrogate: str) -> np.ndarray:
    """(configs, sites) number of finite qualifying clusters centered at
    each site, for the configurations in ``rows``."""
    t = dist.cluster_tables
    n_sites = dist.box.n_sites
    # one column per cluster: the site that is its own label
    keep = (t.label[rows] == np.arange(n_sites)) \
        & _qualifying(t.size[rows], n, variant)
    if surrogate == "boundary":
        keep &= ~t.touches[rows]
    n_rows = len(keep)
    flat = (t.center[rows] + n_sites * np.arange(n_rows)[:, None])[keep]
    return np.bincount(flat, minlength=n_rows * n_sites).reshape(n_rows,
                                                                 n_sites)


def exact_point_process_law(dist: ExactDistribution, n: int,
                            variant: str = "plain",
                            surrogate: str = "boundary") -> PatternLaw:
    """Exact law of the indicator field of qualifying mass centers.

    Patterns enter the table in the order of the first configuration of
    positive probability that shows them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    keys, probs = [], []
    for rows in _chunks(dist.n_configs):
        _add_patterns(keys, probs,
                      _center_counts(dist, rows, n, variant, surrogate),
                      dist.probs[rows])
    return _pattern_law(dist.box, n, variant, keys, probs)


def _add_patterns(keys: list, probs: list, counts: np.ndarray,
                  pr: np.ndarray) -> None:
    """Append the packed center field and probability of each configuration
    of positive probability in one chunk."""
    live = pr != 0.0
    keys.append(np.packbits(counts[live] > 0, axis=1))
    probs.append(pr[live])


def _pattern_law(box: Box, n: int, variant: str, keys: list,
                 probs: list) -> PatternLaw:
    """The law whose atoms are the ``_add_patterns`` fields, each pattern's
    mass summed in configuration order."""
    keys = np.concatenate(keys)
    # one integer per pattern, for a fast unique: a box of k sites has at
    # least k - 1 bonds, so any box that can be enumerated has a key of at
    # most 8 bytes
    codes = np.zeros(len(keys), dtype=np.uint64)
    for column in keys.T:
        codes = (codes << np.uint64(8)) | column
    _, first, inverse = np.unique(codes, return_index=True,
                                  return_inverse=True)
    mass = np.zeros(len(first))
    np.add.at(mass, inverse.reshape(-1), np.concatenate(probs))
    table = {keys[first[j]].tobytes(): float(mass[j])
             for j in np.argsort(first)}
    return PatternLaw(box, n, variant, table)


def product_law(px: np.ndarray, box: Box, n: int = 0,
                variant: str = "product") -> PatternLaw:
    """Law of independent Bernoulli marks with the given per-site means."""
    k = box.n_sites
    if k > 20:
        raise ResourceCapError(f"product law over {k} sites", size=2.0 ** k)
    patterns = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1)
    probs = np.prod(np.where(patterns == 1, px[None, :], 1.0 - px[None, :]),
                    axis=1)
    live = probs > 0.0
    keys = np.packbits(patterns[live].astype(np.uint8), axis=1)
    return PatternLaw(box, n, variant,
                      dict(zip(map(bytes, keys), probs[live].tolist())))


def exact_tv(law1: PatternLaw, law2: PatternLaw) -> float:
    """Total variation between two field laws: sum of absolute probability
    differences over patterns (equal to twice the sup over pattern sets)."""
    if law1.n_sites != law2.n_sites or law1.box != law2.box:
        raise ValueError("laws live on different pattern spaces")
    keys = sorted(set(law1.table) | set(law2.table))
    return float(sum(abs(law1.table.get(k, 0.0) - law2.table.get(k, 0.0))
                     for k in keys))


def exact_px_field(dist: ExactDistribution, n: int, variant: str = "plain",
                   surrogate: str = "boundary") -> np.ndarray:
    """Exact P(X(x) = 1) for every site, directly from configurations."""
    out = np.zeros(dist.box.n_sites)
    for rows in _chunks(dist.n_configs):
        _add_px(out, _center_counts(dist, rows, n, variant, surrogate),
                dist.probs[rows])
    return out


def _add_px(out: np.ndarray, counts: np.ndarray, pr: np.ndarray) -> None:
    r, s = np.nonzero(counts)
    np.add.at(out, s, pr[r])


def exact_pxy_matrix(dist: ExactDistribution, n: int,
                     window: str = "plain",
                     surrogate: str = "boundary") -> np.ndarray:
    """M[x, y] = P(two distinct qualifying clusters centered at x and y).

    window "plain": n <= |C|, finite;  window "local": n <= |C| < n^2.
    Two qualifying clusters sharing a center x put mass on M[x, x].
    """
    k = dist.box.n_sites
    out = np.zeros((k, k))
    variant = "plain" if window == "plain" else "local"
    for rows in _chunks(dist.n_configs):
        _add_pxy(out, _center_counts(dist, rows, n, variant, surrogate),
                 dist.probs[rows])
    return out


def _add_pxy(out: np.ndarray, counts: np.ndarray, pr: np.ndarray) -> None:
    # the present centers, configuration by configuration
    r, s = np.nonzero(counts)
    a, b = _ordered_pairs(r)
    np.add.at(out, (s[a], s[b]), pr[r[a]])
    r, s = np.nonzero(counts >= 2)
    np.add.at(out, (s, s), pr[r])


def exact_center_laws(dist: ExactDistribution, n: int,
                      surrogate: str = "boundary"
                      ) -> tuple[np.ndarray, np.ndarray, PatternLaw]:
    """``exact_px_field``, ``exact_pxy_matrix`` and
    ``exact_point_process_law`` of the plain variant, equal to them bit for
    bit, from one pass that reduces each chunk's center counts once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = dist.box.n_sites
    px, pxy = np.zeros(k), np.zeros((k, k))
    keys, probs = [], []
    for rows in _chunks(dist.n_configs):
        counts = _center_counts(dist, rows, n, "plain", surrogate)
        pr = dist.probs[rows]
        _add_px(px, counts, pr)
        _add_pxy(pxy, counts, pr)
        _add_patterns(keys, probs, counts, pr)
    return px, pxy, _pattern_law(dist.box, n, "plain", keys, probs)


def _ordered_pairs(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (a, b), a != b, of the ordered pairs of entries of one
    group, given the sorted group of every entry: group by group, and
    within a group in row-major order of (a, b)."""
    size = np.bincount(group)[group]
    a = np.repeat(np.arange(len(group)), size)
    b = np.repeat(np.searchsorted(group, group), size) + np.arange(len(a)) \
        - np.repeat(np.cumsum(size) - size, size)
    return a[a != b], b[a != b]


# ---------------------------------------------------------------------------
# the unproven two-cluster comparison


@dataclass
class Conjecture7Result:
    box: Box
    params_p: float
    params_q: float
    n: int
    x: Site
    y: Site
    surrogate: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12


def conjecture7_check(box: Box, params: FKParams, n: int, x: Site, y: Site,
                      surrogate: str = "boundary",
                      dist: ExactDistribution | None = None) -> Conjecture7Result:
    """Exact comparison of P(both x- and y-clusters are n-large, finite and
    disjoint) against P(the re-centered origin cluster is 2n-large and
    finite).  Reported, never asserted: the inequality is conjectural.
    """
    if dist is None:
        dist = enumerate_measure(box, params)
    return _conjecture7(dist, n, surrogate,
                        [(box.site_index(x), box.site_index(y))])[0]


def conjecture7_rows(dist: ExactDistribution, n: int,
                     surrogate: str = "boundary") -> list[Conjecture7Result]:
    """``conjecture7_check`` at every site pair x < y, in row-major order
    of (x, y), from one pass over the cluster tables: the right side
    depends only on the box center and is computed once."""
    k = dist.box.n_sites
    return _conjecture7(dist, n, surrogate,
                        [(i, j) for i in range(k) for j in range(i + 1, k)])


def _conjecture7(dist: ExactDistribution, n: int, surrogate: str,
                 pairs: list[tuple[int, int]]) -> list[Conjecture7Result]:
    """Conjecture 7 at the site-index pairs ``pairs``, in their order.

    One pass over the configurations, a chunk at a time: a row per pair,
    plus one for the right side, holds each configuration's probability
    where the event holds and 0.0 elsewhere, after the totals so far, and
    a cumulative sum along each row adds them in configuration order.
    Adding 0.0 is exact, so each total is the sum over the event's
    configurations taken one at a time in index order; for the same
    reason a chunk skips the pairs whose x or y it never finds large."""
    box, t = dist.box, dist.cluster_tables
    x, y = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    z = box.site_index(box.center)
    total = np.zeros(len(pairs) + 1)  # the last entry is the right side
    for rows in _chunks(dist.n_configs):
        # (sites, configs): the rows of hit and acc run along configurations
        size, label = t.size[rows].T, t.label[rows].T
        finite = ~t.touches[rows].T if surrogate == "boundary" \
            else np.ones(size.shape, bool)
        large = (size >= n) & finite
        live = large.any(axis=1)
        cols = np.append(np.flatnonzero(live[x] & live[y]), len(pairs))
        xs, ys = x[cols[:-1]], y[cols[:-1]]
        hit = np.empty((len(cols), size.shape[1]), bool)
        np.logical_and(large[xs], large[ys], out=hit[:-1])
        hit[:-1] &= label[xs] != label[ys]
        hit[-1] = (size[z] >= 2 * n) & finite[z]
        acc = np.empty((len(cols), size.shape[1] + 1))
        acc[:, 0] = total[cols]
        np.multiply(hit, dist.probs[rows], out=acc[:, 1:])
        total[cols] = _row_sums(acc)
    rhs = float(total[-1])
    return [Conjecture7Result(box, dist.params.p, dist.params.q, n,
                              box.sites[xi], box.sites[yi], surrogate,
                              lhs, rhs)
            for xi, yi, lhs in zip(x.tolist(), y.tolist(),
                                   total[:-1].tolist())]


def _ordered_sum(values: np.ndarray) -> float:
    """Sum in array order, one addition at a time, as a loop would."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _row_sums(values: np.ndarray) -> np.ndarray:
    """``_ordered_sum`` of each row of a 2-d array."""
    return np.cumsum(values, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# exact ratio-mixing coefficient between two bond regions


def exact_ratio_mixing(dist: ExactDistribution, bonds1, bonds2) -> float:
    """sup over events E on region 1 and F on region 2 of
    |P(E and F) / (P(E) P(F)) - 1|, restricted to P(E) P(F) > 0.

    P(E and F) / (P(E) P(F)) is the average of the atom ratios
    P(a, b) / (P(a) P(b)) over a in E and b in F, weighted by P(a) P(b),
    and single atoms are events, so the supremum and infimum over events
    are the largest and smallest atom ratio over atom pairs with
    P(a) P(b) > 0.  Regions are bounded only by the 2^(k1 + k2) joint
    table of their atoms.
    """
    idx1 = [dist.box.bond_index[b] if not isinstance(b, int) else b
            for b in bonds1]
    idx2 = [dist.box.bond_index[b] if not isinstance(b, int) else b
            for b in bonds2]
    if set(idx1) & set(idx2):
        raise ValueError("regions share bonds")
    if not idx1 or not idx2:
        return 0.0

    k1, k2 = len(idx1), len(idx2)
    all_idx = np.arange(dist.n_configs)
    a_id = np.zeros(dist.n_configs, dtype=np.int64)
    for j, b in enumerate(idx1):
        a_id |= ((all_idx >> b) & 1) << j
    b_id = np.zeros(dist.n_configs, dtype=np.int64)
    for j, b in enumerate(idx2):
        b_id |= ((all_idx >> b) & 1) << j
    joint = np.zeros((1 << k1, 1 << k2))
    np.add.at(joint, (a_id, b_id), dist.probs)

    mu = joint.sum(axis=1)
    nu = joint.sum(axis=0)
    ratio = joint[mu > 0][:, nu > 0] / np.outer(mu[mu > 0], nu[nu > 0])
    return float(max(ratio.max() - 1.0, 1.0 - ratio.min(), 0.0))
