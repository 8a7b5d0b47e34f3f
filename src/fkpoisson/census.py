"""Cluster labeling, mass centers, the center point process and its
estimators.

A cluster is a connected component of the open-bond graph.  On a finite
box "finite cluster" means "does not touch the box boundary"; that is the
only local surrogate available and every probability involving finiteness
below uses it.

The mass center of a cluster is the coordinate-wise mean of its sites with
each coordinate mapped to floor (truncation toward -infinity, so that
centers commute with integer translations).
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fk import BondConfig, FKParams, label_sites, sample_states
from .lattice import Box, Site

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# labeling


@dataclass(frozen=True)
class Cluster:
    sites: frozenset[Site]
    touches_boundary: bool

    @property
    def size(self) -> int:
        return len(self.sites)

    @property
    def mass_center(self) -> Site:
        return mass_center(self.sites)


@dataclass
class ClusterSet:
    box: Box
    clusters: list[Cluster]
    site_cluster: dict[Site, int]  # site -> index into clusters

    def cluster_of(self, x: Site) -> Cluster:
        return self.clusters[self.site_cluster[x]]


def mass_center(sites) -> Site:
    """Floor of the coordinate-wise mean of a nonempty finite site set."""
    sites = list(sites)
    if not sites:
        raise ValueError("mass center of an empty cluster is undefined")
    d = len(sites[0])
    n = len(sites)
    return tuple(sum(s[k] for s in sites) // n for k in range(d))


def label_clusters(config: BondConfig) -> ClusterSet:
    """Connected components under open bonds, in order of their smallest
    site index: a view over the configuration's ``label_sites`` labels."""
    box = config.box
    labels, n = label_sites(box, config.state[None])
    lab = labels[0].tolist()
    members: list[list[Site]] = [[] for _ in range(n)]
    for site, k in zip(box.sites, lab):
        members[k].append(site)
    touches = [False] * n
    for i in box.boundary_indices.tolist():
        touches[lab[i]] = True
    clusters = [Cluster(frozenset(m), t) for m, t in zip(members, touches)]
    return ClusterSet(box, clusters, dict(zip(box.sites, lab)))


# ---------------------------------------------------------------------------
# the point process of mass centers


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

    def indicator(self, x: Site) -> bool:
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
    """Mark the mass center of every finite qualifying cluster.

    Two distinct qualifying clusters may share a mass center; the indicator
    stays 1 and the collision is counted and logged.
    """
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
            log.debug("mass-center collision at %s", c.mass_center)
        fld[i] = True
    return PointField(box, n, variant, fld, collisions)


# ---------------------------------------------------------------------------
# packed census of many samples


@dataclass
class Census:
    """Per-cluster rows over many sampled configurations.

    Only clusters of size >= min_size are recorded (size-1 clusters carry
    no information for any estimator with n >= min_size).  When origin
    tracking is on, per-sample size and boundary contact of the cluster
    containing ``origin`` are kept as well.
    """

    box: Box
    n_samples: int
    sample_id: np.ndarray      # int64 per row
    size: np.ndarray           # int64 per row
    center: np.ndarray         # (rows, d) int64 mass centers
    touches: np.ndarray        # bool per row
    min_size: int = 1
    origin: Site | None = None
    origin_size: np.ndarray | None = None     # int64 per sample
    origin_touches: np.ndarray | None = None  # bool per sample

    @property
    def n_rows(self) -> int:
        return len(self.size)

    def qualifying(self, n: int, variant: str = "plain") -> np.ndarray:
        """Row mask of finite clusters in the variant's size window."""
        if n < self.min_size:
            raise ValueError(
                f"census recorded clusters of size >= {self.min_size} only")
        ok = (~self.touches) & (self.size >= n)
        if variant == "truncated":
            ok &= self.size < n * n / 4.0
        elif variant == "local":
            ok &= self.size < n * n
        elif variant != "plain":
            raise ValueError(f"unknown variant {variant!r}")
        return ok

    def center_index(self) -> np.ndarray:
        """Row-major site index of each row's mass center."""
        strides = np.array(self.box._strides, dtype=np.int64)
        lower = np.array(self.box.lower, dtype=np.int64)
        return (self.center - lower) @ strides

    def counts_per_sample(self, n: int, variant: str = "plain") -> np.ndarray:
        """Number of qualifying mass centers in each sample."""
        mask = self.qualifying(n, variant)
        return np.bincount(self.sample_id[mask], minlength=self.n_samples)

    def px_field(self, n: int, variant: str = "plain") -> np.ndarray:
        """Per-site empirical frequency of being a qualifying mass center."""
        mask = self.qualifying(n, variant)
        idx = self.center_index()[mask]
        hits = np.bincount(idx, minlength=self.box.n_sites)
        return hits / self.n_samples

    def to_jsonl(self, fh) -> None:
        """One JSON object per cluster row: sample id, size, mass center,
        boundary contact."""
        for i in range(self.n_rows):
            fh.write(json.dumps({
                "sample": int(self.sample_id[i]),
                "size": int(self.size[i]),
                "mass_center": [int(v) for v in self.center[i]],
                "touches_boundary": bool(self.touches[i]),
            }) + "\n")


def census_from_cluster_sets(cluster_sets, box: Box, min_size: int = 1,
                             origin: Site | None = None) -> Census:
    sample_id, size, center, touches = [], [], [], []
    osize, otouch = [], []
    count = 0
    for sid, cs in enumerate(cluster_sets):
        count += 1
        for c in cs.clusters:
            if c.size >= min_size:
                sample_id.append(sid)
                size.append(c.size)
                center.append(c.mass_center)
                touches.append(c.touches_boundary)
        if origin is not None:
            oc = cs.cluster_of(origin)
            osize.append(oc.size)
            otouch.append(oc.touches_boundary)
    d = box.d
    return Census(
        box, count,
        np.array(sample_id, dtype=np.int64),
        np.array(size, dtype=np.int64),
        np.array(center, dtype=np.int64).reshape(-1, d),
        np.array(touches, dtype=bool),
        min_size=min_size,
        origin=origin,
        origin_size=np.array(osize, dtype=np.int64) if origin else None,
        origin_touches=np.array(otouch, dtype=bool) if origin else None,
    )


def census_from_configs(configs, box: Box, min_size: int = 1,
                        origin: Site | None = None) -> Census:
    return census_from_cluster_sets(
        (label_clusters(c) for c in configs), box, min_size, origin)


def census_sampled(params: FKParams, box: Box, n_samples: int,
                   thinning: int = 10, burn_in: int | None = None, seed=0,
                   min_size: int = 1, origin: Site | None = None) -> Census:
    """Census of ``sample_states`` draws: the rows ``census_from_configs``
    would give, built from label arrays by ``bincount``."""
    states = sample_states(params, box, n_samples, thinning, burn_in, seed)
    # configurations per labeling call: about 2^22 grid cells at most
    per_call = max(1, (1 << 22) // (4 * box.n_sites))
    parts = [_census_rows(box, states[i:i + per_call], i, min_size, origin)
             for i in range(0, n_samples, per_call)]
    sid, size, center, touches, osz, oto = (
        np.concatenate(col) if col[0] is not None else None
        for col in zip(*parts))
    return Census(box, n_samples, sid, size, center, touches,
                  min_size=min_size, origin=origin,
                  origin_size=osz, origin_touches=oto)


def _census_rows(box: Box, states: np.ndarray, first: int, min_size: int,
                 origin: Site | None):
    """Rows of the open-bond clusters of ``states``, samples numbered from
    ``first``: (sample id, size, mass center, boundary contact) per row,
    plus per-sample origin-cluster size and contact when origin is set."""
    labels, n = label_sites(box, states)
    flat = labels.reshape(-1)
    size = np.bincount(flat, minlength=n)
    owner = np.empty(n, dtype=np.int64)
    owner[labels] = np.arange(first, first + len(states))[:, None]
    touches = np.zeros(n, dtype=bool)
    touches[labels[:, box.boundary_indices]] = True
    keep = np.flatnonzero(size >= min_size)
    center = np.empty((len(keep), box.d), dtype=np.int64)
    for k in range(box.d):
        coord = np.tile(box.offsets[:, k], len(states))
        sums = np.bincount(flat, weights=coord, minlength=n)
        center[:, k] = (sums[keep] // size[keep]).astype(np.int64) \
            + box.lower[k]
    osz = oto = None
    if origin is not None:
        ol = labels[:, box.site_index(origin)]
        osz, oto = size[ol], touches[ol]
    return owner[keep], size[keep], center, touches[keep], osz, oto


# ---------------------------------------------------------------------------
# fast independent-bond census for d = 2, q = 1
#
# At q = 1 the measure is product Bernoulli(p) over bonds, so samples are
# drawn directly.  Labeling uses the doubled grid: sites at even-even
# cells, bonds at the odd cells between them, and a single 4-connected
# scipy.ndimage.label call.  Many samples are tiled into one image
# (separated by closed gap rows/columns) per label call.


def _census_tile_d2(box: Box, p: float, n_samples: int, rng,
                    min_size: int, origin: Site | None,
                    tiles_per_call: int = 256):
    lx, ly = box.sides
    gx, gy = 2 * lx - 1, 2 * ly - 1
    rows_out: list[tuple[np.ndarray, ...]] = []
    osz = np.zeros(n_samples, dtype=np.int64) if origin is not None else None
    oto = np.zeros(n_samples, dtype=bool) if origin is not None else None
    if origin is not None:
        oi = origin[0] - box.lower[0]
        oj = origin[1] - box.lower[1]

    done = 0
    while done < n_samples:
        nt = min(tiles_per_call, n_samples - done)
        r = int(np.ceil(np.sqrt(nt)))
        cgrid = np.zeros((r * (gx + 1), r * (gy + 1)), dtype=bool)
        hb = rng.random((nt, lx, ly - 1)) < p
        vb = rng.random((nt, lx - 1, ly)) < p
        for t in range(nt):
            ox, oy = (t // r) * (gx + 1), (t % r) * (gy + 1)
            tile = cgrid[ox:ox + gx, oy:oy + gy]
            tile[::2, ::2] = True
            tile[::2, 1::2] = hb[t]
            tile[1::2, ::2] = vb[t]
        labels, n_lab = ndimage.label(cgrid)
        if n_lab == 0:
            done += nt
            continue
        # per-label stats from site cells only
        site_labels = np.zeros((nt, lx, ly), dtype=np.int64)
        for t in range(nt):
            ox, oy = (t // r) * (gx + 1), (t % r) * (gy + 1)
            site_labels[t] = labels[ox:ox + gx:2, oy:oy + gy:2]
        flat = site_labels.reshape(nt, -1)
        lab_flat = flat.ravel()
        sizes = np.bincount(lab_flat, minlength=n_lab + 1)
        ii = np.broadcast_to(np.arange(lx)[:, None], (lx, ly)).ravel()
        jj = np.broadcast_to(np.arange(ly)[None, :], (lx, ly)).ravel()
        ii = np.tile(ii, nt)
        jj = np.tile(jj, nt)
        sum_i = np.bincount(lab_flat, weights=ii, minlength=n_lab + 1)
        sum_j = np.bincount(lab_flat, weights=jj, minlength=n_lab + 1)
        # boundary contact per label
        edge = np.concatenate([
            site_labels[:, 0, :].ravel(), site_labels[:, -1, :].ravel(),
            site_labels[:, :, 0].ravel(), site_labels[:, :, -1].ravel()])
        touch = np.zeros(n_lab + 1, dtype=bool)
        touch[np.unique(edge)] = True
        # owning sample of each label
        owner = np.full(n_lab + 1, -1, dtype=np.int64)
        tidx = np.repeat(np.arange(nt), lx * ly)
        owner[lab_flat] = tidx  # labels never span tiles
        keep = np.flatnonzero(sizes >= min_size)
        keep = keep[keep > 0]
        cen_i = (sum_i[keep] // sizes[keep]).astype(np.int64) + box.lower[0]
        cen_j = (sum_j[keep] // sizes[keep]).astype(np.int64) + box.lower[1]
        rows_out.append((owner[keep] + done, sizes[keep],
                         np.stack([cen_i, cen_j], axis=1), touch[keep]))
        if origin is not None:
            ol = site_labels[:, oi, oj]
            osz[done:done + nt] = sizes[ol]
            oto[done:done + nt] = touch[ol]
        done += nt
    if rows_out:
        sid = np.concatenate([r[0] for r in rows_out])
        size = np.concatenate([r[1] for r in rows_out])
        center = np.concatenate([r[2] for r in rows_out])
        touches = np.concatenate([r[3] for r in rows_out])
    else:
        sid = np.empty(0, dtype=np.int64)
        size = np.empty(0, dtype=np.int64)
        center = np.empty((0, 2), dtype=np.int64)
        touches = np.empty(0, dtype=bool)
    return sid, size, center, touches, osz, oto


def census_q1_d2(box: Box, p: float, n_samples: int, seed=0,
                 min_size: int = 1, origin: Site | None = None) -> Census:
    """Direct product-measure census for q = 1 in dimension two."""
    if box.d != 2:
        raise ValueError("census_q1_d2 requires a two-dimensional box")
    rng = np.random.default_rng(seed)
    sid, size, center, touches, osz, oto = _census_tile_d2(
        box, p, n_samples, rng, min_size, origin)
    # mass-center floor must round toward -inf; the tile path sums offsets
    # from the lower corner, so the division above is already a true floor.
    return Census(box, n_samples, sid, size, center, touches,
                  min_size=min_size, origin=origin,
                  origin_size=osz, origin_touches=oto)


# ---------------------------------------------------------------------------
# estimators


@dataclass
class PxLambdaEstimate:
    px: float
    px_se: float
    lam_from_px: float        # |box| * px
    lam_direct: float         # mean of sum_x X(x)
    lam_direct_se: float
    discrepancy: float
    n_samples: int


def estimate_px_lambda(samples: list[PointField], x: Site) -> PxLambdaEstimate:
    """Empirical P(X(x)=1) and the expected number of centers, the latter
    both as |box| * px and as the direct per-sample mean."""
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


def estimate_px_lambda_census(census: Census, n: int, x: Site,
                              variant: str = "plain") -> PxLambdaEstimate:
    mask = census.qualifying(n, variant)
    xi = census.box.site_index(x)
    at_x = census.center_index()[mask] == xi
    ind = np.zeros(census.n_samples)
    np.add.at(ind, census.sample_id[mask][at_x], 1.0)
    ind = np.minimum(ind, 1.0)  # indicator: collisions count once
    counts = census.counts_per_sample(n, variant).astype(float)
    return _px_lambda_from_arrays(ind, counts, census.box.n_sites)


def _px_lambda_from_arrays(ind, counts, n_sites) -> PxLambdaEstimate:
    n = len(ind)
    px = float(ind.mean())
    px_se = float(ind.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    lam_direct = float(counts.mean())
    lam_se = float(counts.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    lam_from_px = n_sites * px
    return PxLambdaEstimate(px, px_se, lam_from_px, lam_direct, lam_se,
                            lam_from_px - lam_direct, n)


def theta_estimate(samples) -> float:
    """Fraction of samples whose origin cluster reaches the box boundary
    (finite-volume stand-in for the infinite-cluster density).

    Accepts a list of ClusterSets (origin = box center) or a Census with
    origin tracking.
    """
    if isinstance(samples, Census):
        if samples.origin_touches is None:
            raise ValueError("census was built without origin tracking")
        return float(samples.origin_touches.mean())
    sets = list(samples)
    if not sets:
        raise ValueError("no samples")
    origin = sets[0].box.center
    hits = sum(1 for cs in sets if cs.cluster_of(origin).touches_boundary)
    return hits / len(sets)


# ---------------------------------------------------------------------------
# tail decay of large finite clusters


@dataclass
class DecayEstimate:
    """Rate sequences a_n = -ln P_hat / n^((d-1)/d) for the origin-cluster
    tail and its mass-center companion.

    Entries with zero hits are unavailable (nan) rather than infinite.
    ``ratio_at_largest`` compares the two forms at the largest n where both
    are available.
    """

    n_values: np.ndarray
    boxes: list[Box]
    samples_per_n: np.ndarray
    origin_hits: np.ndarray
    a_origin: np.ndarray
    a_origin_se: np.ndarray
    center_hits: np.ndarray
    a_center: np.ndarray
    a_center_se: np.ndarray
    ratio_at_largest: float

    def available(self) -> np.ndarray:
        return ~np.isnan(self.a_origin)

    def oscillation(self, window: int = 3) -> np.ndarray:
        """max |a_n - a_n'| over sliding windows of the origin-form rates."""
        a = self.a_origin
        out = []
        for i in range(len(a) - window + 1):
            w = a[i:i + window]
            if np.isnan(w).any():
                out.append(np.nan)
            else:
                out.append(float(w.max() - w.min()))
        return np.array(out)


def decay_rate(params: FKParams, boxes: list[Box], n_schedule: list[int],
               samples_per_n: list[int] | int, seed=0,
               thinning: int = 10, burn_in: int | None = None) -> DecayEstimate:
    """Estimate the surface-order tail rates over a schedule of thresholds.

    Each threshold n gets its own (origin-centered) box, which must be
    large enough that clusters of the scheduled sizes fit without touching
    the boundary.  q = 1 in d = 2 uses direct product sampling; other
    parameters run the Markov chain sampler (desk scale only).
    """
    n_schedule = list(n_schedule)
    if isinstance(samples_per_n, int):
        samples_per_n = [samples_per_n] * len(n_schedule)
    if len(boxes) != len(n_schedule) or len(samples_per_n) != len(n_schedule):
        raise ValueError("schedule lengths disagree")
    d = boxes[0].d
    expo = (d - 1) / d
    rows = {k: [] for k in ("oh", "ao", "aose", "ch", "ac", "acse")}
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng_seeds = seed.spawn(len(n_schedule))
    for n, box, m, ss in zip(n_schedule, boxes, samples_per_n, rng_seeds):
        origin = box.center
        if params.q == 1.0 and box.d == 2:
            cen = census_q1_d2(box, params.p, m, seed=ss,
                               min_size=n, origin=origin)
        else:
            cen = census_sampled(params, box, m, thinning, burn_in, ss,
                                 min_size=n, origin=origin)
        scale = n ** expo
        ok = (~cen.origin_touches) & (cen.origin_size >= n)
        hits = int(ok.sum())
        rows["oh"].append(hits)
        if hits > 0:
            ph = hits / m
            rows["ao"].append(-np.log(ph) / scale)
            rows["aose"].append(np.sqrt((1 - ph) / hits) / scale)
        else:
            rows["ao"].append(np.nan)
            rows["aose"].append(np.nan)
        centers = int(cen.qualifying(n).sum())
        rows["ch"].append(centers)
        if centers > 0:
            px = centers / (m * box.n_sites)
            # crude delta-method error treating center hits as Poisson-like
            rows["ac"].append(-np.log(px) / scale)
            rows["acse"].append(1.0 / np.sqrt(centers) / scale)
        else:
            rows["ac"].append(np.nan)
            rows["acse"].append(np.nan)
    a_o = np.array(rows["ao"])
    a_c = np.array(rows["ac"])
    both = ~(np.isnan(a_o) | np.isnan(a_c))
    ratio = float(a_c[both][-1] / a_o[both][-1]) if both.any() else np.nan
    return DecayEstimate(
        np.array(n_schedule), list(boxes), np.array(samples_per_n),
        np.array(rows["oh"]), a_o, np.array(rows["aose"]),
        np.array(rows["ch"]), a_c, np.array(rows["acse"]), ratio)
