"""Poisson-approximation coefficients for the mass-center point process.

The three coefficients bound the total variation distance between the
center field X and an independent Bernoulli field Y with the same
marginals:

    b1 = sum_x sum_{y in B_x}        p_x p_y
    b2 = sum_x sum_{y in B_x \\ x}    p_xy
    b3 = sum_x E | E( X(x) - p_x | sigma(X(y), y outside B_x) ) |

    ||L(X) - L(Y)||_TV <= 2 (2 b1 + 2 b2 + b3) + 4 sum_x p_x^2

with B_x the dependence neighborhood of x: the box of side n^2 centered at
x (realized with the odd side 2*floor(n^2/2)+1 so centering is exact),
intersected with the sampling box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .census import Census
from .fk import FKParams, ResourceCapError, label_sites
from .lattice import Box, Site
from . import oracle


def neighborhood_halfwidth(n: int) -> int:
    """Half-width of the side-n^2 dependence box (odd-side convention)."""
    return (2 * ((n * n) // 2) + 1) // 2


def _halfwidth(n: int, side: int | None) -> int:
    """Half-width of the dependence box; ``side`` overrides the default
    odd realization of n^2 (must be odd)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if side is None:
        return neighborhood_halfwidth(n)
    if side % 2 != 1:
        raise ValueError("neighborhood side must be odd")
    return side // 2


def neighborhood(x: Site, n: int, box: Box, side: int | None = None) -> list[Site]:
    """Sites of the dependence box around x, clipped to the sampling box.

    ``side`` overrides the default odd realization of n^2 (must be odd).
    """
    h = _halfwidth(n, side)
    ranges = [range(max(xi - h, lo), min(xi + h, hi) + 1)
              for xi, lo, hi in zip(x, box.lower, box.upper)]
    return [s for s in product(*ranges)]


def _near(box: Box, n: int, side: int | None) -> np.ndarray:
    """(sites, sites) bool: entry [x, y] is whether y lies in the
    dependence box of x, sites in row-major order."""
    h = _halfwidth(n, side)
    off = box.offsets
    return (np.abs(off[:, None, :] - off[None, :, :]) <= h).all(axis=2)


def _outside_sites(box: Box, n: int, side: int | None) -> list[np.ndarray]:
    """For every site in row-major order, the indices of the sites outside
    its dependence box, ascending."""
    return [np.flatnonzero(~near) for near in _near(box, n, side)]


def neighborhood_offsets(n: int, d: int, side: int | None = None) -> list[Site]:
    """All nonzero offsets z with x+z in the dependence box of x."""
    h = neighborhood_halfwidth(n) if side is None else side // 2
    return [z for z in product(range(-h, h + 1), repeat=d) if any(z)]


# ---------------------------------------------------------------------------
# pair-probability estimation with the close/distant split


@dataclass
class OffsetStat:
    offset: Site
    positions: int            # sites x with both x and x+z in the box
    pxy: float                # two finite clusters of size >= n at offset z
    pxy_se: float
    local: float              # both sizes in [n, n^2)
    close: float              # local and d(C, C') <= K ln n
    distant: float            # local and d(C, C') >  K ln n
    pair_samples: int         # samples containing at least one such pair


@dataclass
class PairStats:
    n: int
    K: float
    n_samples: int
    box: Box
    offsets: dict[Site, OffsetStat]

    def require(self, wanted) -> None:
        missing = [z for z in wanted if z not in self.offsets]
        if missing:
            raise ValueError(f"no pair estimates for offsets {missing}")


def estimate_pxy(census: Census, states: np.ndarray, n: int, offsets=None,
                 K: float = 5.0) -> PairStats:
    """Empirical pair probabilities of qualifying mass centers.

    For each offset z, the frequency (over samples and over translated
    positions x) of finding two distinct finite clusters with centers at x
    and x+z.  The windowed variant (both sizes below n^2) is split into a
    close and a distant part at cluster distance K ln n; the two parts add
    up to the windowed estimate exactly, being an event partition.

    ``census`` holds the rows of ``states``, the (samples, n_bonds) array
    it was built from; sizes, centers and boundary contact come from its
    rows, cluster sites for the distance from one labeling of the samples
    that hold a windowed pair.
    """
    box = census.box
    if census.n_samples == 0:
        raise ValueError("no samples")
    if len(states) != census.n_samples:
        raise ValueError("states and census differ in sample count")
    d = box.d
    if offsets is None:
        offsets = neighborhood_offsets(n, d)
    offsets = list(dict.fromkeys(tuple(z) for z in offsets))
    cut = K * math.log(n) if n > 1 else 0.0
    sides = np.array(box.sides)

    # offset index of every center difference, -1 where it is not asked for
    span = 2 * sides - 1
    lookup = np.full(int(np.prod(span)), -1, dtype=np.int64)
    for j, z in enumerate(offsets):
        if len(z) == d and all(abs(zk) < s for zk, s in zip(z, box.sides)):
            lookup[np.ravel_multi_index(np.add(z, sides - 1), span)] = j

    # ordered pairs (a, b), a != b, of qualifying rows of one sample; rows
    # come sorted by sample, so each sample's rows are one run
    rows = np.flatnonzero(census.qualifying(n))
    sid = census.sample_id[rows]
    a, b = oracle._ordered_pairs(sid)
    center = census.center[rows] - np.array(box.lower)
    zi = lookup[np.ravel_multi_index((center[b] - center[a] + sides - 1).T,
                                     span)]
    hit = zi >= 0
    a, b, zi = a[hit], b[hit], zi[hit]
    size = census.size[rows]
    local = (size[a] < n * n) & (size[b] < n * n)
    close = np.zeros(len(a), dtype=bool)
    close[local] = _cluster_distance(census, states, rows[a[local]],
                                     rows[b[local]]) <= cut

    # distinct positions x per (sample, offset) in each event, with keys
    # (sample * n_off + offset) * n_sites + x
    n_off = len(offsets)
    key = (sid[a] * n_off + zi) * box.n_sites \
        + np.ravel_multi_index(center[a].T, box.sides)
    acc = np.zeros((n_off, 4))
    for col, mask in enumerate((slice(None), local, local & close,
                                local & ~close)):
        acc[:, col] = np.bincount(np.unique(key[mask]) // box.n_sites
                                  % n_off, minlength=n_off)
    per_sample, count = np.unique(np.unique(key) // box.n_sites,
                                  return_counts=True)
    acc_sq = np.bincount(per_sample % n_off,
                         weights=count.astype(float) ** 2, minlength=n_off)
    pair_samples = np.bincount(per_sample % n_off, minlength=n_off)

    n_samples = census.n_samples
    out = {}
    for j, z in enumerate(offsets):
        npos = int(np.prod([max(0, s - abs(zk)) for s, zk in zip(box.sides, z)]))
        if npos == 0:
            continue
        tot = acc[j] / (n_samples * npos)
        mean_c = acc[j][0] / n_samples
        var_c = acc_sq[j] / n_samples - mean_c ** 2
        se = math.sqrt(max(var_c, 0.0) / n_samples) / npos
        out[z] = OffsetStat(z, npos, tot[0], se, tot[1], tot[2], tot[3],
                            int(pair_samples[j]))
    return PairStats(n, K, n_samples, box, out)


def _cluster_distance(census: Census, states: np.ndarray, ra: np.ndarray,
                      rb: np.ndarray) -> np.ndarray:
    """Least L1 distance between the sites of the clusters of census rows
    ``ra`` and those of rows ``rb``, pair by pair (rows of one sample)."""
    out = np.empty(len(ra), dtype=np.int64)
    if len(ra) == 0:
        return out
    # label only the samples holding a pair; their census rows are runs
    held = np.unique(census.sample_id[ra])
    labels, n = label_sites(census.box, states[held], census.boundary)
    size = np.bincount(labels.reshape(-1), minlength=n)
    row_label = np.flatnonzero(size >= census.min_size)
    held_rows = np.flatnonzero(np.isin(census.sample_id, held))
    if len(row_label) != len(held_rows):
        raise ValueError("census rows do not match the states")
    # flat (sample, site) positions grouped by label, each group in site order
    order = np.argsort(labels.reshape(-1), kind="stable")
    first = np.cumsum(size) - size
    coords = census.box.offsets
    n_sites = census.box.n_sites
    m = int(max(census.size[ra].max(), census.size[rb].max()))

    def sites(r):
        la = row_label[np.searchsorted(held_rows, r)]
        j = np.minimum(np.arange(m), size[la][:, None] - 1)
        return coords[order[first[la][:, None] + j] % n_sites]

    # a cluster padded with copies of its last site keeps its distance
    step = max(1, (1 << 20) // (m * m))
    for i in range(0, len(ra), step):
        sa, sb = sites(ra[i:i + step]), sites(rb[i:i + step])
        dist = np.abs(sa[:, :, None, :] - sb[:, None, :, :]).sum(axis=3)
        out[i:i + step] = dist.min(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# b1 and b2


def _box_sum_field(arr: np.ndarray, h: int) -> np.ndarray:
    """For every cell, the sum of arr over the centered cube of half-width
    h clipped to the array (inclusion-exclusion on the integral image)."""
    d = arr.ndim
    pad = np.zeros(tuple(s + 1 for s in arr.shape))
    pad[(slice(1, None),) * d] = arr
    for ax in range(d):
        pad = np.cumsum(pad, axis=ax)
    out = np.zeros_like(arr, dtype=float)
    for corner in product((0, 1), repeat=d):
        sign = (-1) ** (d - sum(corner))
        idx = []
        for ax, c in enumerate(corner):
            i = np.arange(arr.shape[ax])
            if c:
                idx.append(np.minimum(i + h, arr.shape[ax] - 1) + 1)
            else:
                idx.append(np.maximum(i - h, 0))
        out += sign * pad[np.ix_(*idx)]
    return out


def compute_b1_b2(px_field: np.ndarray, pair_stats: PairStats, box: Box,
                  n: int, side: int | None = None) -> tuple[float, float]:
    """The two neighborhood sums from a per-site marginal field and
    translation-averaged pair estimates.

    b1 uses the field directly (boundary truncation exact via clipped box
    sums); b2 multiplies each offset's estimate by the exact number of
    positions where the translated pair fits in the box.  Offsets of the
    dependence box missing from ``pair_stats`` raise, listing them.
    """
    h = neighborhood_halfwidth(n) if side is None else side // 2
    arr = np.asarray(px_field, dtype=float).reshape(box.sides)
    b1 = float((arr * _box_sum_field(arr, h)).sum())

    wanted = [z for z in neighborhood_offsets(n, box.d, side)
              if all(abs(zk) < s for zk, s in zip(z, box.sides))]
    pair_stats.require(wanted)
    b2 = 0.0
    for z in wanted:
        st = pair_stats.offsets[z]
        b2 += st.pxy * st.positions
    return b1, b2


def exact_b1_b2(dist: "oracle.ExactDistribution", n: int,
                side: int | None = None,
                surrogate: str = "boundary") -> tuple[float, float, np.ndarray]:
    """b1, b2 evaluated from exact marginals and exact pair probabilities.

    Both sums run over the pairs (x, y), y in the dependence box of x, in
    row-major order of (x, y), one addition at a time."""
    px = oracle.exact_px_field(dist, n, surrogate=surrogate)
    pxy = oracle.exact_pxy_matrix(dist, n, window="plain", surrogate=surrogate)
    return _b1_b2(dist.box, n, side, px, pxy) + (px,)


def _b1_b2(box: Box, n: int, side: int | None, px: np.ndarray,
           pxy: np.ndarray) -> tuple[float, float]:
    x, y = np.nonzero(_near(box, n, side))
    b1 = oracle._ordered_sum(px[x] * px[y])
    x, y = x[x != y], y[x != y]
    b2 = oracle._ordered_sum(pxy[x, y])
    return b1, b2


# ---------------------------------------------------------------------------
# b3: exact conditional form and the stratified estimator


@dataclass
class B3Estimate:
    lo: float
    hi: float
    se: float
    method: str

    @property
    def point(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def is_interval(self) -> bool:
        return self.hi > self.lo


def compute_b3_exact(dist: "oracle.ExactDistribution", n: int,
                     side: int | None = None, variant: str = "plain",
                     surrogate: str = "boundary") -> B3Estimate:
    """sum_x E|E(X(x) - p_x | field outside B_x)| from the exact joint law."""
    law = oracle.exact_point_process_law(dist, n, variant, surrogate)
    total = _b3_of_law(law, n, side)
    return B3Estimate(total, total, 0.0, "exact")


def _b3_of_law(law: "oracle.PatternLaw", n: int, side: int | None) -> float:
    """b3 of the center field whose exact law is ``law``.

    Sums run in the order of a loop over the sites and, per site, over the
    patterns in table order: the outside patterns are grouped in order of
    first appearance, and each group adds its patterns in table order.
    Every site is reduced in one pass: a (site, pattern) entry is coded
    by the site and the pattern's bits outside the site's dependence box,
    and each site's sums are cumulative sums along its row, padded with
    0.0, whose addition is exact."""
    probs = np.fromiter(law.table.values(), float, len(law.table))
    keys = np.frombuffer(b"".join(law.table), dtype=np.uint8)
    fields = np.unpackbits(keys.reshape(len(probs), -1), axis=1,
                           count=law.n_sites).astype(bool)
    k, m = law.n_sites, len(probs)
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    outside = np.where(_near(law.box, n, side), 0, bits)
    codes = outside @ fields.T.astype(np.int64) \
        + (np.arange(k, dtype=np.int64) << k)[:, None]
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    # the groups site by site, each site's in order of first appearance
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    group = rank[inv.reshape(-1)]
    at_x = np.where(fields.T, probs, 0.0)
    g0, g1 = np.zeros(len(first)), np.zeros(len(first))
    np.add.at(g0, group, np.broadcast_to(probs, (k, m)).reshape(-1))
    np.add.at(g1, group, at_x.reshape(-1))
    px = oracle._row_sums(at_x)
    site = first[order] // m
    value = np.abs(g1 - px[site] * g0)
    start = np.searchsorted(site, np.arange(k))
    rows = np.zeros((k, int(np.bincount(site, minlength=k).max())))
    rows[site, np.arange(len(site)) - start[site]] = value
    return oracle._ordered_sum(oracle._row_sums(rows))


def field_stack(census: Census, n: int, variant: str = "plain") -> np.ndarray:
    """(n_samples, n_sites) boolean stack of center-indicator fields."""
    mask = census.qualifying(n, variant)
    out = np.zeros((census.n_samples, census.box.n_sites), dtype=bool)
    out[census.sample_id[mask], census.center_index()[mask]] = True
    return out


def _distinct_fields(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean field stack and how often each
    occurs."""
    packed = np.ascontiguousarray(np.packbits(stack, axis=1))
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, weight = np.unique(rows, return_index=True, return_counts=True)
    return stack[first], weight


def _bin_sums(mult: np.ndarray, take: np.ndarray, pos: np.ndarray,
              n_bins: int) -> np.ndarray:
    """Per column of ``mult``, the sums of the rows ``take`` by their bin
    ``pos``: a (columns, n_bins) array."""
    cols = mult.shape[1]
    idx = (pos[take][:, None] * cols + np.arange(cols)).reshape(-1)
    return np.bincount(idx, weights=mult[take].reshape(-1),
                       minlength=n_bins * cols).reshape(n_bins, cols).T


def compute_b3_stratified(stack: np.ndarray, box: Box, n: int,
                          side: int | None = None, min_bin: int = 100,
                          n_boot: int = 200, seed=0) -> B3Estimate:
    """Stratified estimate of b3 from sampled indicator fields.

    Samples are binned by the observed field outside B_x; bins below the
    occupancy threshold are pooled, and the pooled mass enters only the
    upper bound (its conditional deviation is at most 1), so the result is
    an interval, never a silently extrapolated point.  The quoted se is a
    bootstrap of the lower endpoint: each replicate resamples the samples
    once, and every site is binned on that one resample.

    The stack is reduced to its distinct fields with their multiplicities
    once; every site bins those.
    """
    n_samples, n_sites = stack.shape
    if n_sites != box.n_sites:
        raise ValueError("stack does not match the box")
    outsides = _outside_sites(box, n, side)
    for outside in outsides:
        if len(outside) > 62:
            raise ResourceCapError("conditioning pattern exceeds 62 sites",
                                   size=2.0 ** len(outside))
    fields, weight = _distinct_fields(stack)
    # multiplicity of every distinct field: column 0 in the sample,
    # columns 1.. in the bootstrap replicates
    draws = np.random.default_rng(seed).multinomial(
        n_samples, weight / n_samples, size=n_boot)
    mult = np.vstack([weight, draws]).T.astype(float, order="C")
    top = mult.max(axis=1)
    lo = hi = 0.0
    boots = np.zeros(n_boot)
    for xi, outside in enumerate(outsides):
        # bins in ascending order of the outside pattern read as an integer
        keys = fields[:, outside] @ (1 << np.arange(len(outside),
                                                    dtype=np.int64))
        _, inv = np.unique(keys, return_inverse=True)
        # only a bin whose fields' largest multiplicities add up to min_bin
        # can be populated, in the sample or in any replicate
        cand = np.bincount(inv, weights=top) >= min_bin
        take, pos, n_cand = cand[inv], (np.cumsum(cand) - 1)[inv], cand.sum()
        at_x = fields[:, xi]
        counts = _bin_sums(mult, take, pos, n_cand)
        ones = _bin_sums(mult, take & at_x, pos, n_cand)
        px = at_x @ mult / n_samples
        dev = np.abs(ones - px[:, None] * counts)
        pop = counts >= min_bin
        contrib = dev[0, pop[0]].sum() / n_samples
        lo += contrib
        # the samples in bins below min_bin deviate by at most 1 each
        hi += contrib + (n_samples - counts[0, pop[0]].sum()) / n_samples
        boots += np.where(pop[1:], dev[1:], 0.0).sum(axis=1) / n_samples
    se = float(boots.std(ddof=1)) if n_boot > 1 else 0.0
    return B3Estimate(float(lo), float(hi), se, "stratified")


def compute_b3(method: str, *, dist=None, stack=None, box=None, n=None,
               side=None, min_bin: int = 100, n_boot: int = 200,
               seed=0) -> B3Estimate:
    """Dispatch to the exact conditional computation (needs an enumerated
    distribution) or to the stratified sample estimator."""
    if method == "exact":
        if dist is None:
            raise ValueError("exact b3 needs an enumerated distribution")
        return compute_b3_exact(dist, n, side)
    if method == "stratified":
        if stack is None or box is None:
            raise ValueError("stratified b3 needs a field stack and box")
        return compute_b3_stratified(stack, box, n, side, min_bin, n_boot, seed)
    raise ValueError(f"unknown b3 method {method!r}")


# ---------------------------------------------------------------------------
# the bound and the count comparison


def tv_bound(b1: float, b2: float, b3, sum_px2: float):
    """2 (2 b1 + 2 b2 + b3) + 4 sum_x p_x^2; an interval when b3 is one."""
    if isinstance(b3, B3Estimate):
        if b3.is_interval:
            b3 = (b3.lo, b3.hi)
        else:
            b3 = b3.lo
    if isinstance(b3, tuple):
        return tuple(2.0 * (2.0 * b1 + 2.0 * b2 + v) + 4.0 * sum_px2
                     for v in b3)
    return 2.0 * (2.0 * b1 + 2.0 * b2 + b3) + 4.0 * sum_px2


@dataclass
class ExactBoundInstance:
    """Everything of the TV inequality evaluated exactly on one tiny box."""

    box: Box
    params: FKParams
    n: int
    side: int | None
    px: np.ndarray
    b1: float
    b2: float
    b3: float
    sum_px2: float
    bound: float
    tv: float

    @property
    def holds(self) -> bool:
        return self.tv <= self.bound + 1e-12

    @property
    def vacuous(self) -> bool:
        """The bound is at least 2, the largest total variation as defined
        here, so it holds whatever the laws."""
        return self.bound >= 2.0


def exact_bound_instance(box: Box, params: FKParams, n: int,
                         side: int | None = None,
                         surrogate: str = "boundary",
                         dist: "oracle.ExactDistribution | None" = None
                         ) -> ExactBoundInstance:
    """Evaluate the TV inequality as a theorem instance: all coefficients,
    both process laws and the distance computed by enumeration.

    ``dist``, when given, is the enumerated measure of (box, params), used
    instead of enumerating it again.
    """
    if dist is None:
        dist = oracle.enumerate_measure(box, params)
    px, pxy, law_x = oracle.exact_center_laws(dist, n, surrogate)
    b1, b2 = _b1_b2(box, n, side, px, pxy)
    b3 = _b3_of_law(law_x, n, side)
    law_y = oracle.product_law(px, box)
    tv = oracle.exact_tv(law_x, law_y)
    sum_px2 = float((px ** 2).sum())
    bound = tv_bound(b1, b2, b3, sum_px2)
    return ExactBoundInstance(box, params, n, side, px, b1, b2, b3,
                              sum_px2, bound, tv)


@dataclass
class PoissonComparison:
    lambda_hat: float
    tv: float
    ci_lo: float
    ci_hi: float
    n_samples: int
    degenerate: bool
    counts_pmf: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat, "tv": self.tv,
            "ci95": [self.ci_lo, self.ci_hi], "n_samples": self.n_samples,
            "degenerate": self.degenerate,
            "counts_pmf": {str(k): v for k, v in self.counts_pmf.items()},
        }


def _tv_to_poisson(freq: np.ndarray, lam: np.ndarray,
                   tail: float = 1e-12) -> np.ndarray:
    """Total variation between each row of ``freq``, a (rows, kmax + 1)
    table of how many samples have k centers, and the Poisson law with
    that row's mean ``lam``.

    Every row walks the Poisson pmf up from k = 0 until it is past the
    row's largest count and the Poisson tail beyond k is below ``tail``;
    the tail left over is added at the end.
    """
    emp = freq / freq.sum(axis=1, keepdims=True)
    kmax = freq.shape[1] - 1 - np.argmax(freq[:, ::-1] > 0, axis=1)
    pk = np.array([math.exp(-v) for v in lam.tolist()])
    cum = pk.copy()
    tv = np.abs(emp[:, 0] - pk)
    live = (0 < kmax) | (1.0 - cum > tail)
    k = 0
    while live.any():
        k += 1
        pk = np.where(live, pk * (lam / k), pk)
        cum = np.where(live, cum + pk, cum)
        e = emp[:, k] if k < emp.shape[1] else 0.0
        tv = np.where(live, tv + np.abs(e - pk), tv)
        live &= (k <= kmax + 10000) & ((k < kmax) | (1.0 - cum > tail))
    return tv + np.maximum(1.0 - cum, 0.0)


def poisson_count_test(counts: np.ndarray, n_boot: int = 500,
                       seed=0) -> PoissonComparison:
    """Total variation between the sampled law of the number of centers and
    a Poisson with the plugged-in mean, with a bootstrap 95% interval.

    The plug-in mean is re-estimated inside every bootstrap replicate so
    the interval absorbs plug-in noise.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    if n < 2:
        raise ValueError("need at least 2 samples")
    lam = float(counts.mean())
    emp = np.bincount(counts)
    tv = float(_tv_to_poisson(emp[None], np.array([lam]))[0])
    degenerate = lam == 0.0
    res = np.random.default_rng(seed).multinomial(n, emp / n, size=n_boot)
    lam_b = (res * np.arange(len(emp))).sum(axis=1) / n
    boots = _tv_to_poisson(res, lam_b)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    pmf = {int(k): float(v / n) for k, v in enumerate(emp) if v > 0}
    return PoissonComparison(lam, tv, float(lo), float(hi), n, degenerate, pmf)


# ---------------------------------------------------------------------------
# assembled report


@dataclass
class ChenSteinReport:
    n: int
    box_sides: tuple[int, ...]
    neighborhood_side: int
    K: float
    n_samples: int
    lambda_hat: float
    b1: float
    b2: float
    b3_lo: float
    b3_hi: float
    b3_se: float
    b3_method: str
    sum_px2: float
    bound_lo: float
    bound_hi: float
    poisson: PoissonComparison | None = None

    @property
    def vacuous(self) -> bool:
        """The upper end of the bound is at least 2, the largest total
        variation as defined here (as in ``ExactBoundInstance.vacuous``)."""
        return bool(self.bound_hi >= 2.0)

    def to_dict(self) -> dict:
        out = {
            "n": self.n, "box_sides": list(self.box_sides),
            "neighborhood_side": self.neighborhood_side, "K": self.K,
            "n_samples": self.n_samples, "lambda_hat": self.lambda_hat,
            "b1": self.b1, "b2": self.b2,
            "b3": {"lo": self.b3_lo, "hi": self.b3_hi,
                   "method": self.b3_method, "se": self.b3_se},
            "sum_px2": self.sum_px2,
            "tv_bound": {"lo": self.bound_lo, "hi": self.bound_hi,
                         "vacuous": self.vacuous},
        }
        if self.poisson is not None:
            out["poisson"] = self.poisson.to_dict()
        return out
