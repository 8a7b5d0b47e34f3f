"""Independent checkers for the benchmark's workloads.

Nothing here imports fkpoisson.  The checkers re-derive what the program
writes from first principles:

- a strict parser for the length-prefixed ``.fkc`` record stream;
- a cluster labeler built on ``scipy.sparse.csgraph`` with floor-of-mean
  mass centers;
- a full 2^m enumerator of the FK measure on tiny boxes;
- its own Poisson pmf.

Every check raises ``CheckFailure`` with a message naming what disagreed.
Checks run on files the program wrote, after the timed calls.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np
from scipy import stats as sstats
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# two-sided false-alarm probability of one statistical check on correct code
ALPHA = 1e-6
# per-site and per-coefficient comparisons use a normal z bound of this size
Z_BOUND = float(sstats.norm.isf(ALPHA / 2))
# absolute tolerance of values recomputed from the same enumeration or labels
EXACT_TOL = 1e-12
# relative tolerance of sums recomputed, in another order, from reported fields
DERIVED_TOL = 1e-9


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own
    computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# box geometry, written independently of fkpoisson.lattice


class Grid:
    """Sites of ``prod [lower_k, lower_k + sides_k - 1]`` in row-major order
    (last coordinate fastest); bonds per site, per axis, to the +axis
    neighbour inside the box."""

    def __init__(self, lower, sides):
        self.lower = tuple(int(v) for v in lower)
        self.sides = tuple(int(v) for v in sides)
        self.d = len(self.sides)
        self.n_sites = int(np.prod(self.sides))
        offs = np.indices(self.sides).reshape(self.d, -1).T
        self.coords = offs + np.array(self.lower, dtype=np.int64)
        index = np.arange(self.n_sites).reshape(self.sides)
        bonds = []
        for i, off in enumerate(offs):
            for k in range(self.d):
                if off[k] + 1 < self.sides[k]:
                    nb = off.copy()
                    nb[k] += 1
                    bonds.append((i, int(index[tuple(nb)])))
        self.bonds = np.array(bonds, dtype=np.int64).reshape(-1, 2)
        self.n_bonds = len(self.bonds)
        upper = np.array(self.sides) - 1
        self.boundary = ((offs == 0) | (offs == upper)).any(axis=1)
        self.center = tuple(lo + (s - 1) // 2
                            for lo, s in zip(self.lower, self.sides))

    def site_index(self, site) -> int:
        idx = 0
        for x, lo, s in zip(site, self.lower, self.sides):
            idx = idx * s + (int(x) - lo)
        return idx


def expected_bond_count(sides) -> int:
    total = 0
    for k, s in enumerate(sides):
        rest = 1
        for j, t in enumerate(sides):
            if j != k:
                rest *= t
        total += (s - 1) * rest
    return total


def boundary_site_count(sides) -> int:
    interior = 1
    for s in sides:
        interior *= max(s - 2, 0)
    return int(np.prod(sides)) - interior


# ---------------------------------------------------------------------------
# the scipy labeler


def label_states(grid: Grid, states: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of many bond configurations at once.

    ``states`` is (N, n_bonds) 0/1.  Returns (N, n_sites) labels that are
    unique across the batch, and the number of labels.
    """
    states = np.asarray(states)
    n_cfg = states.shape[0]
    n = grid.n_sites
    cfg, bond = np.nonzero(states)
    a = grid.bonds[bond, 0] + cfg * n
    b = grid.bonds[bond, 1] + cfg * n
    graph = coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)),
                       shape=(n_cfg * n, n_cfg * n))
    n_lab, lab = connected_components(graph, directed=False)
    return lab.reshape(n_cfg, n), int(n_lab)


class ClusterTable:
    """Per-cluster rows of a batch of configurations: owning configuration,
    size, floor-of-mean center, boundary contact."""

    def __init__(self, grid: Grid, states: np.ndarray):
        labels, n_lab = label_states(grid, states)
        n_cfg = labels.shape[0]
        flat = labels.ravel()
        self.labels = labels
        self.size = np.bincount(flat, minlength=n_lab)
        self.owner = np.empty(n_lab, dtype=np.int64)
        self.owner[flat] = np.repeat(np.arange(n_cfg), grid.n_sites)
        sums = np.stack([
            np.bincount(flat, weights=np.tile(grid.coords[:, k], n_cfg),
                        minlength=n_lab)
            for k in range(grid.d)], axis=1)
        self.center = np.floor_divide(np.rint(sums).astype(np.int64),
                                      self.size[:, None])
        self.touches = np.bincount(
            flat, weights=np.tile(grid.boundary, n_cfg).astype(float),
            minlength=n_lab) > 0
        strides = np.cumprod((1,) + grid.sides[::-1])[:-1][::-1]
        self.center_index = (self.center - np.array(grid.lower)) @ strides


# ---------------------------------------------------------------------------
# strict .fkc parser


def parse_fkc_record(rec: bytes) -> dict:
    """One serialized configuration, with every length checked exactly."""
    pos = 0

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        require(pos + size <= len(rec),
                f"record truncated: need {pos + size} bytes, have {len(rec)}")
        vals = struct.unpack_from(fmt, rec, pos)
        pos += size
        return vals

    (magic,) = take("<4s")
    require(magic == b"FKC1", f"bad magic {magic!r}")
    (d,) = take("<B")
    require(d >= 1, "dimension 0")
    lower = take(f"<{d}q")
    sides = take(f"<{d}q")
    require(all(s >= 1 for s in sides), f"bad sides {sides}")
    p, q = take("<2d")
    require(0.0 <= p <= 1.0 and math.isfinite(q) and q >= 1.0,
            f"bad parameters p={p} q={q}")
    (btag,) = take("<B")
    require(btag in (0, 1, 2), f"bad boundary tag {btag}")
    classes = None
    if btag == 2:
        (n_classes,) = take("<I")
        classes = take(f"<{boundary_site_count(sides)}I")
        require(all(c < n_classes for c in classes), "class id out of range")
    seed, sweep = take("<QQ")
    (n_bonds,) = take("<Q")
    require(n_bonds == expected_bond_count(sides),
            f"bond count {n_bonds} != {expected_bond_count(sides)}")
    (bits,) = take(f"<{(n_bonds + 7) // 8}s")
    require(pos == len(rec), f"{len(rec) - pos} trailing bytes in record")
    unpacked = np.unpackbits(np.frombuffer(bits, dtype=np.uint8))
    require(not unpacked[n_bonds:].any(), "nonzero padding bits")
    return {"d": d, "lower": lower, "sides": sides, "p": p, "q": q,
            "btag": btag, "classes": classes, "seed": seed, "sweep": sweep,
            "state": unpacked[:n_bonds]}


def parse_fkc_stream(buf: bytes) -> list[dict]:
    """Length-prefixed records (uint32 little-endian length, then the
    record), consuming the buffer exactly."""
    out = []
    pos = 0
    while pos < len(buf):
        require(pos + 4 <= len(buf), "truncated length prefix")
        n = int.from_bytes(buf[pos:pos + 4], "little")
        pos += 4
        require(pos + n <= len(buf), "record runs past the end of the file")
        out.append(parse_fkc_record(buf[pos:pos + n]))
        pos += n
    return out


# ---------------------------------------------------------------------------
# the FK edge identity
#
# For the free-boundary FK measure, closing an open bond multiplies the
# weight by (1-p)/p when its endpoints stay connected and by q(1-p)/p when
# they do not.  Summed over bonds:
#   sum_e P(w_e = 1) = p/(1-p) E[closed bonds inside a cluster
#                                + closed bonds between clusters / q].


def fk_identity_residuals(grid: Grid, states: np.ndarray, p: float,
                          q: float) -> np.ndarray:
    """Per-state value of #open - p/(1-p) (c_in + c_out / q); mean 0 under
    FK(p, q) with free boundary."""
    labels, _ = label_states(grid, states)
    same = labels[:, grid.bonds[:, 0]] == labels[:, grid.bonds[:, 1]]
    closed = np.asarray(states) == 0
    c_in = (closed & same).sum(axis=1)
    c_out = (closed & ~same).sum(axis=1)
    n_open = np.asarray(states).sum(axis=1)
    return n_open - p / (1.0 - p) * (c_in + c_out / q)


def check_fk_identity(batches) -> dict:
    """Mean residual over independent chains against its batch-means
    standard error (one batch per chain), at false-alarm rate ALPHA."""
    means = np.array([float(np.mean(b)) for b in batches])
    require(len(means) >= 2, "FK identity needs at least two chains")
    mean = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(len(means)))
    crit = float(sstats.t.isf(ALPHA / 2, len(means) - 1))
    require(abs(mean) <= crit * se,
            f"FK identity residual {mean:.3f} exceeds {crit:.2f} SE "
            f"(SE {se:.3f}, {len(means)} chains)")
    return {"residual": mean, "se": se, "crit": crit, "chains": len(means)}


# ---------------------------------------------------------------------------
# Poisson pmf and the count-law distance


def poisson_pmf(k: int, lam: float) -> float:
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_tv(pmf: dict[int, float], lam: float) -> float:
    """sum_k |pmf(k) - Pois(lam)(k)|, the Poisson tail past the last term
    included."""
    kmax = max(pmf) + 200
    total = 0.0
    mass = 0.0
    for k in range(kmax + 1):
        pk = poisson_pmf(k, lam)
        mass += pk
        total += abs(pmf.get(k, 0.0) - pk)
    return total + max(1.0 - mass, 0.0)


# ---------------------------------------------------------------------------
# exhaustive enumeration


class Enumeration:
    """All 2^m configurations of a small free-boundary box.  Configuration
    i opens bond j iff bit j of i is set."""

    MAX_BONDS = 16

    def __init__(self, grid: Grid):
        m = grid.n_bonds
        require(m <= self.MAX_BONDS, f"{m} bonds is too many to enumerate")
        self.grid = grid
        idx = np.arange(1 << m)
        self.states = ((idx[:, None] >> np.arange(m)) & 1).astype(np.uint8)
        self.table = ClusterTable(grid, self.states)
        self.n_open = self.states.sum(axis=1)
        self.n_clusters = np.bincount(self.table.owner, minlength=len(idx))

    def measure(self, p: float, q: float) -> tuple[np.ndarray, float]:
        """Probabilities of every configuration and log Z."""
        m = self.grid.n_bonds
        logw = (self.n_open * math.log(p) + (m - self.n_open)
                * math.log(1.0 - p) + self.n_clusters * math.log(q))
        top = logw.max()
        w = np.exp(logw - top)
        z = w.sum()
        return w / z, float(top + math.log(z))

    def fields(self, n: int) -> np.ndarray:
        """(configs, sites) indicator of qualifying mass centers, every
        cluster counted as finite."""
        t = self.table
        qual = t.size >= n
        out = np.zeros(t.labels.shape, dtype=bool)
        out[t.owner[qual], t.center_index[qual]] = True
        return out

    def pair_fields(self, n: int) -> np.ndarray:
        """(configs, sites, sites) indicator that two distinct qualifying
        clusters have centers x and y."""
        t = self.table
        k = self.grid.n_sites
        out = np.zeros((len(self.states), k, k), dtype=bool)
        rows = np.flatnonzero(t.size >= n)
        by_cfg: dict[int, list[int]] = {}
        for r in rows:
            by_cfg.setdefault(int(t.owner[r]), []).append(
                int(t.center_index[r]))
        for cfg, centers in by_cfg.items():
            for i, a in enumerate(centers):
                for j, b in enumerate(centers):
                    if i != j:
                        out[cfg, a, b] = True
        return out


def exact_quantities(enum: Enumeration, p: float, q: float, n: int,
                     half_width: int) -> dict:
    """Everything the oracle subcommand reports, by direct sums over the
    enumeration (surrogate 'all', plain window)."""
    grid = enum.grid
    probs, log_z = enum.measure(p, q)
    fields = enum.fields(n)
    px = probs @ fields
    pxy = np.einsum("c,cxy->xy", probs, enum.pair_fields(n))
    coords = grid.coords
    near = (np.abs(coords[:, None, :] - coords[None, :, :])
            <= half_width).all(axis=2)
    b1 = float((np.outer(px, px) * near).sum())
    b2 = float((pxy * (near & ~np.eye(grid.n_sites, dtype=bool))).sum())
    weights = 1 << np.arange(grid.n_sites)
    pattern = fields.astype(np.int64) @ weights
    law = np.bincount(pattern, weights=probs, minlength=1 << grid.n_sites)
    all_patterns = np.arange(1 << grid.n_sites)
    bits = (all_patterns[:, None] >> np.arange(grid.n_sites)) & 1
    product = np.prod(np.where(bits == 1, px, 1.0 - px), axis=1)
    tv = float(np.abs(law - product).sum())
    b3 = 0.0
    for x in range(grid.n_sites):
        outside = int(weights[~near[x]].sum())
        keys = all_patterns & outside
        g0 = np.bincount(keys, weights=law, minlength=len(law))
        g1 = np.bincount(keys, weights=law * bits[:, x], minlength=len(law))
        b3 += float(np.abs(g1 - px[x] * g0).sum())
    sum_px2 = float((px ** 2).sum())
    bound = 2.0 * (2.0 * b1 + 2.0 * b2 + b3) + 4.0 * sum_px2
    t = enum.table
    lab = t.labels
    size_at = t.size[lab]                       # (configs, sites)
    big = size_at >= n
    zi = grid.site_index(grid.center)
    rhs = float(probs @ (size_at[:, zi] >= 2 * n))
    conj = []
    for i in range(grid.n_sites):
        for j in range(i + 1, grid.n_sites):
            ev = (lab[:, i] != lab[:, j]) & big[:, i] & big[:, j]
            conj.append((i, j, float(probs @ ev), rhs))
    return {"probs": probs, "log_z": log_z, "b1": b1, "b2": b2, "b3": b3,
            "sum_px2": sum_px2, "bound": bound, "tv": tv,
            "conjecture7": conj}


# ---------------------------------------------------------------------------
# per-workload output checks


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_fk_rep(rep_dir: str, calls, grid: Grid) -> np.ndarray:
    """fk_q2: strict records, census rows equal to our own labeling of the
    sampled states.  Returns the FK identity residuals of the states."""
    (_, scfg), (_, ccfg) = calls
    with open(os.path.join(rep_dir, "sample", "rep000", "samples.fkc"),
              "rb") as fh:
        records = parse_fkc_stream(fh.read())
    require(len(records) == scfg["samples"],
            f"{len(records)} records, expected {scfg['samples']}")
    for i, r in enumerate(records):
        require(r["d"] == grid.d and r["lower"] == grid.lower
                and r["sides"] == grid.sides, f"record {i}: wrong box")
        require(r["p"] == scfg["p"] and r["q"] == scfg["q"]
                and r["btag"] == 0, f"record {i}: wrong parameters")
        require(r["seed"] == scfg["seed"] and r["sweep"] == i,
                f"record {i}: wrong provenance")
    states = np.array([r["state"] for r in records], dtype=np.uint8)
    table = ClusterTable(grid, states)
    n = ccfg["n"]
    keep = table.size >= n
    ours = sorted(zip(table.owner[keep].tolist(), table.size[keep].tolist(),
                      map(tuple, table.center[keep].tolist()),
                      table.touches[keep].tolist()))
    rows = []
    with open(os.path.join(rep_dir, "census", "rep000",
                           "census.jsonl")) as fh:
        for line in fh:
            row = json.loads(line)
            rows.append((row["sample"], row["size"],
                         tuple(row["mass_center"]), row["touches_boundary"]))
    require(sorted(rows) == ours,
            f"census rows differ from our labeling ({len(rows)} vs "
            f"{len(ours)} rows)")
    report = _read_json(os.path.join(rep_dir, "census", "rep000",
                                     "report.json"))
    qual = keep & ~table.touches
    counts = np.bincount(table.owner[qual], minlength=len(states))
    counters = report["counters"]
    require(counters["samples"] == len(states)
            and counters["cluster_rows"] == len(ours)
            and counters["qualifying"] == int(qual.sum()),
            f"census counters {counters} differ from our labeling")
    mean = report["derived"]["centers_per_sample"]["mean"]
    require(close(mean, float(counts.mean()), EXACT_TOL),
            f"mean qualifying count {mean} != ours {counts.mean()}")
    return fk_identity_residuals(grid, states, scfg["p"], scfg["q"])


class ChenSteinReference:
    """The benchmark's own Monte Carlo of the q = 1 box: per-sample center
    counts, the px field and the b2 summand, from independent Bernoulli
    bonds labeled by the scipy labeler."""

    def __init__(self, grid: Grid, p: float, n: int, half_width: int,
                 samples: int, seed: int, batch: int = 5000):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB2]))
        self.samples = samples
        counts, b2, hits = [], [], np.zeros(grid.n_sites)
        done = 0
        while done < samples:
            m = min(batch, samples - done)
            states = (rng.random((m, grid.n_bonds)) < p).astype(np.uint8)
            t = ClusterTable(grid, states)
            qual = (t.size >= n) & ~t.touches
            counts.append(np.bincount(t.owner[qual], minlength=m))
            hits += np.bincount(t.center_index[qual], minlength=grid.n_sites)
            b2.append(_pair_summand(t, qual, m, half_width))
            done += m
        self.counts = np.concatenate(counts).astype(float)
        self.b2_terms = np.concatenate(b2)
        self.px = hits / samples


def _pair_summand(t: ClusterTable, qual, m: int, h: int) -> np.ndarray:
    """Per sample: number of (x, z) with z a nonzero offset of the
    dependence box and two distinct qualifying clusters centered at x and
    x + z."""
    out = np.zeros(m)
    rows = np.flatnonzero(qual)
    rows = rows[np.argsort(t.owner[rows], kind="stable")]
    owners = t.owner[rows]
    start = np.searchsorted(owners, np.arange(m + 1))
    for s in np.flatnonzero(np.diff(start) >= 2):
        c = t.center[rows[start[s]:start[s + 1]]]
        found = set()
        for i in range(len(c)):
            for j in range(len(c)):
                z = tuple((c[j] - c[i]).tolist())
                if i != j and any(z) and max(abs(v) for v in z) <= h:
                    found.add((tuple(c[i].tolist()), z))
        out[s] = len(found)
    return out


def _z_ok(a: float, b: float, var: float) -> bool:
    return abs(a - b) <= Z_BOUND * math.sqrt(var) + 1e-15


def check_chenstein_rep(rep_dir: str, cfg: dict, grid: Grid,
                        ref: ChenSteinReference, half_width: int) -> None:
    """chenstein_q1: coefficients recomputed by direct sums, compared with
    our own Monte Carlo, px symmetric under the transpose."""
    doc = _read_json(os.path.join(rep_dir, "chenstein", "rep000",
                                  "report.json"))
    rep = doc["report"]
    px = np.array(doc["px_field"], dtype=float)
    N = cfg["samples"]
    require(px.shape == (grid.n_sites,), "px field has the wrong length")
    require(rep["n_samples"] == N, "wrong sample count")
    require(rep["neighborhood_side"] == 2 * half_width + 1,
            "wrong neighborhood side")
    coords = grid.coords
    near = (np.abs(coords[:, None, :] - coords[None, :, :])
            <= half_width).all(axis=2)
    b1 = 0.0
    for x in range(grid.n_sites):
        for y in range(grid.n_sites):
            if near[x, y]:
                b1 += px[x] * px[y]
    require(close(rep["b1"], b1, DERIVED_TOL), f"b1 {rep['b1']} != {b1}")
    b2 = 0.0
    n_offsets = 0
    for key, st in doc["pxy"].items():
        z = [int(v) for v in key.split(",")]
        if any(z) and max(abs(v) for v in z) <= half_width:
            positions = 1
            for zk, s in zip(z, grid.sides):
                positions *= s - abs(zk)
            b2 += st["total"] * positions
            n_offsets += 1
        require(close(st["windowed"], st["close"] + st["distant"],
                      EXACT_TOL), f"offset {key}: close + distant != windowed")
    require(n_offsets == (2 * half_width + 1) ** grid.d - 1,
            f"{n_offsets} pair offsets reported")
    require(close(rep["b2"], b2, DERIVED_TOL), f"b2 {rep['b2']} != {b2}")
    sum_px2 = float((px ** 2).sum())
    require(close(rep["sum_px2"], sum_px2, DERIVED_TOL), "sum px^2 differs")
    b3 = rep["b3"]
    require(b3["lo"] <= b3["hi"], f"b3 interval [{b3['lo']}, {b3['hi']}]")
    for end in ("lo", "hi"):
        bound = 2.0 * (2.0 * b1 + 2.0 * b2 + b3[end]) + 4.0 * sum_px2
        require(close(rep["tv_bound"][end], bound, DERIVED_TOL),
                f"tv bound {end} {rep['tv_bound'][end]} != {bound}")
    pois = rep["poisson"]
    pmf = {int(k): v for k, v in pois["counts_pmf"].items()}
    lam = sum(k * v for k, v in pmf.items())
    require(close(rep["lambda_hat"], lam, DERIVED_TOL)
            and close(pois["lambda_hat"], lam, DERIVED_TOL),
            f"lambda {rep['lambda_hat']} != count mean {lam}")
    require(close(px.sum(), lam, DERIVED_TOL), "sum of px != lambda")
    tv = poisson_tv(pmf, lam)
    require(close(pois["tv"], tv, DERIVED_TOL),
            f"Poisson TV {pois['tv']} != {tv}")
    require(pois["ci95"][0] <= pois["ci95"][1], "Poisson CI reversed")
    # against our own Monte Carlo of the same box
    M = ref.samples
    var_l = ref.counts.var(ddof=1) * (1.0 / N + 1.0 / M)
    require(_z_ok(lam, ref.counts.mean(), var_l),
            f"lambda {lam} vs own Monte Carlo {ref.counts.mean()}")
    var_b2 = ref.b2_terms.var(ddof=1) * (1.0 / N + 1.0 / M)
    require(_z_ok(b2, ref.b2_terms.mean(), var_b2),
            f"b2 {b2} vs own Monte Carlo {ref.b2_terms.mean()}")
    for x in range(grid.n_sites):
        pooled = (px[x] * N + ref.px[x] * M) / (N + M)
        require(_z_ok(px[x], ref.px[x], pooled * (1.0 / N + 1.0 / M)),
                f"px at site {x}: {px[x]} vs own Monte Carlo {ref.px[x]}")
    # the transpose maps floor-of-mean centers to floor-of-mean centers
    field = px.reshape(grid.sides)
    for i in range(grid.sides[0]):
        for j in range(i + 1, grid.sides[1]):
            a, b = field[i, j], field[j, i]
            require(_z_ok(a, b, (a + b) / N),
                    f"px not transpose-symmetric at ({i},{j}): {a} vs {b}")


def check_oracle_rep(rep_dir: str, cfg: dict, enum: Enumeration,
                     half_width: int) -> None:
    """oracle_exact: table, log Z, bound instance and every conjecture-7
    row against our own enumeration."""
    doc = _read_json(os.path.join(rep_dir, "oracle", "rep000", "oracle.json"))
    ex = exact_quantities(enum, cfg["p"], cfg["q"], cfg["n"], half_width)
    table = doc["distribution"]
    require(len(table) == len(ex["probs"]), "probability table length")
    probs = np.array([row["probability"] for row in table])
    require([row["config"] for row in table] == list(range(len(table))),
            "probability table is not in configuration order")
    worst = float(np.abs(probs - ex["probs"]).max())
    require(worst <= EXACT_TOL, f"probability table off by {worst:.3g}")
    require(abs(doc["log_z"] - ex["log_z"]) <= EXACT_TOL,
            f"log Z {doc['log_z']} != {ex['log_z']}")
    inst = doc["bound_instance"]
    for key in ("b1", "b2", "b3", "sum_px2", "bound", "tv"):
        require(abs(inst[key] - ex[key]) <= EXACT_TOL,
                f"bound instance {key} {inst[key]} != {ex[key]}")
    require(inst["tv"] <= inst["bound"], "tv exceeds the bound")
    require(inst["holds"] is True, "bound instance does not hold")
    conj = doc["conjecture7"]
    require(len(conj) == len(ex["conjecture7"]), "conjecture-7 row count")
    coords = enum.grid.coords
    for row, (i, j, lhs, rhs) in zip(conj, ex["conjecture7"]):
        require(row["x"] == coords[i].tolist()
                and row["y"] == coords[j].tolist(),
                f"conjecture-7 row order at {row['x']}, {row['y']}")
        require(abs(row["lhs"] - lhs) <= EXACT_TOL
                and abs(row["rhs"] - rhs) <= EXACT_TOL,
                f"conjecture-7 at {row['x']}, {row['y']}: "
                f"({row['lhs']}, {row['rhs']}) != ({lhs}, {rhs})")
        require(row["holds"] == (lhs <= rhs + 1e-12),
                "conjecture-7 holds flag")
