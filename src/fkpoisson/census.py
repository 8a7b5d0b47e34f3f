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

from dataclasses import dataclass

import numpy as np
from .fk import (FREE, BondConfig, BoundaryCondition, FKParams, label_sites,
                 sample_states)
from .lattice import Box, Site

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
# packed census of many samples


@dataclass
class Census:
    """Per-cluster rows over many sampled configurations.

    Only clusters of size >= min_size are recorded (size-1 clusters carry
    no information for any estimator with n >= min_size).  When origin
    tracking is on, per-sample size and boundary contact of the cluster
    containing ``origin`` are kept as well.

    Clusters are those of the boundary condition ``boundary``: under a
    wired or partition boundary the clusters meeting one boundary class
    are one cluster.  Rows come in label order: by sample, then by each
    cluster's smallest site, so row r is the r-th cluster of size >=
    min_size in the labels ``fk.label_sites`` gives the same states under
    ``boundary``.
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
    boundary: BoundaryCondition = FREE

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
        boundary contact; the bytes ``json.dumps`` gives each row's dict."""
        row = ('{"sample": %d, "size": %d, "mass_center": ['
               + ", ".join(["%d"] * self.box.d)
               + '], "touches_boundary": %s}\n')
        columns = zip(self.sample_id.tolist(), self.size.tolist(),
                      *self.center.T.tolist(),
                      np.where(self.touches, "true", "false").tolist())
        fh.write("".join(row % r for r in columns))


def census_from_states(box: Box, states: np.ndarray, min_size: int = 1,
                       origin: Site | None = None,
                       boundary: BoundaryCondition = FREE) -> Census:
    """Census of the configurations in a (samples, n_bonds) state array,
    clustered under ``boundary``."""
    return _census(box, [states], min_size, origin, boundary)


# samples per direct q = 1 draw; fixes the order of the random numbers
_Q1_CHUNK = 256


def state_chunks(params: FKParams, box: Box, n_samples: int,
                 thinning: int = 10, burn_in: int | None = None, seed=0):
    """Samples of the FK measure as (samples, n_bonds) uint8 arrays.

    At q = 1 the measure is a product of Bernoulli(p) bonds under every
    boundary condition, so the samples are drawn directly, 256 to a chunk:
    one ``rng.random`` call per axis, last axis first, each shaped like that
    axis's bonds (``thinning`` and ``burn_in`` do not apply).  Other q come
    as one chunk of ``sample_states``.
    """
    if params.q != 1.0:
        yield sample_states(params, box, n_samples, thinning, burn_in, seed)
        return
    params.boundary.validate(box)
    rng = np.random.default_rng(seed)
    bs = box.bond_sites
    axis = (box.offsets[bs[:, 1]] - box.offsets[bs[:, 0]]) @ np.arange(box.d)
    for first in range(0, n_samples, _Q1_CHUNK):
        m = min(_Q1_CHUNK, n_samples - first)
        chunk = np.empty((m, box.n_bonds), dtype=np.uint8)
        for k in reversed(range(box.d)):
            shape = box.sides[:k] + (box.sides[k] - 1,) + box.sides[k + 1:]
            chunk[:, axis == k] = (rng.random((m,) + shape) < params.p
                                   ).reshape(m, -1)
        yield chunk


def census_sampled(params: FKParams, box: Box, n_samples: int,
                   thinning: int = 10, burn_in: int | None = None, seed=0,
                   min_size: int = 1, origin: Site | None = None) -> Census:
    """Census of ``state_chunks`` draws, holding one chunk at a time,
    clustered under ``params.boundary``."""
    return _census(box, state_chunks(params, box, n_samples, thinning,
                                     burn_in, seed), min_size, origin,
                   params.boundary)


def configs_per_label_call(box: Box) -> int:
    """Configurations per ``label_sites`` call: about 2^22 grid cells at
    most."""
    return max(1, (1 << 22) // (4 * box.n_sites))


def _census(box: Box, chunks, min_size: int, origin: Site | None,
            boundary: BoundaryCondition) -> Census:
    per_call = configs_per_label_call(box)
    parts, done = [], 0
    for states in chunks:
        parts += [_census_rows(box, states[i:i + per_call], done + i,
                               min_size, origin, boundary)
                  for i in range(0, len(states), per_call)]
        done += len(states)
    if not parts:
        raise ValueError("no samples")
    sid, size, center, touches, osz, oto = (
        np.concatenate(col) if col[0] is not None else None
        for col in zip(*parts))
    return Census(box, done, sid, size, center, touches,
                  min_size=min_size, origin=origin,
                  origin_size=osz, origin_touches=oto, boundary=boundary)


def cluster_stats(box: Box, labels: np.ndarray, n: int):
    """Size and boundary contact of each of the ``n`` clusters of a
    (configs, n_sites) array of ``label_sites`` labels."""
    size = np.bincount(labels.reshape(-1), minlength=n)
    touches = np.zeros(n, dtype=bool)
    touches[labels[:, box.boundary_indices]] = True
    return size, touches


def cluster_centers(box: Box, labels: np.ndarray,
                    size: np.ndarray) -> np.ndarray:
    """Floor mass center, as offsets from ``box.lower``, of each cluster
    of a (configs, n_sites) array of ``label_sites`` labels whose sizes
    ``cluster_stats`` gave."""
    flat = labels.reshape(-1)
    center = np.empty((len(size), box.d), dtype=np.int64)
    for k in range(box.d):
        coord = np.tile(box.offsets[:, k], len(labels))
        # whole sums: an integer division floors them exactly, and faster
        sums = np.bincount(flat, weights=coord, minlength=len(size))
        center[:, k] = sums.astype(np.int64) // size
    return center


def _census_rows(box: Box, states: np.ndarray, first: int, min_size: int,
                 origin: Site | None, boundary: BoundaryCondition):
    """Rows of the open-bond clusters of ``states``, samples numbered from
    ``first``: (sample id, size, mass center, boundary contact) per row,
    plus per-sample origin-cluster size and contact when origin is set."""
    labels, n = label_sites(box, states, boundary)
    size, touches = cluster_stats(box, labels, n)
    center = cluster_centers(box, labels, size)
    keep = np.flatnonzero(size >= min_size)
    # each sample's labels are one range, starting at its first site's
    owner = np.repeat(np.arange(first, first + len(states)),
                      np.diff(labels[:, 0], append=n))
    osz = oto = None
    if origin is not None:
        ol = labels[:, box.site_index(origin)]
        osz, oto = size[ol], touches[ol]
    return (owner[keep], size[keep], center[keep] + box.lower, touches[keep],
            osz, oto)


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


def theta_estimate(census: Census) -> float:
    """Fraction of samples whose origin cluster reaches the box boundary
    (finite-volume stand-in for the infinite-cluster density), from a
    census with origin tracking."""
    if census.origin_touches is None:
        raise ValueError("census was built without origin tracking")
    return float(census.origin_touches.mean())


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
    the boundary.  q = 1 uses direct product sampling; other parameters
    run the Markov chain sampler (desk scale only).
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
        cen = census_sampled(params, box, m, thinning, burn_in, ss,
                             min_size=n, origin=box.center)
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
