"""Random-cluster (FK) configurations on finite boxes and their samplers.

A configuration assigns one open/closed bit per bond of the box.  The
measure weights a configuration by ``p^#open (1-p)^#closed q^cl_pi`` where
``cl_pi`` counts connected components after the boundary partition ``pi``
virtually glues boundary sites together.  Weights are handled in log space
throughout: ``q^cl`` overflows beyond a few hundred sites.

Clusters are labeled by ``label_sites``, one labeler for the samplers,
the census and the exact oracle; only the heat bath keeps its own.  A
batch of configurations is drawn on the box's doubled grid (sites at
even cells, open bonds at the odd cells between them) and labeled by one
``scipy.ndimage.label`` call; boundary classes are then glued by merging
the labels of their sites.

Sampling uses the cluster color-and-rebond sweep for integer q and a
systematic-scan single-bond heat bath otherwise.  Both kernels leave the
target measure invariant; neither the update schedule nor the initial
all-open state matters after burn-in (default ``10 * n_sites`` sweeps).
The heat bath asks one connectivity question per bond and keeps a small
disjoint-set forest for it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .lattice import Bond, Box, Site


class ResourceCapError(RuntimeError):
    """An exact computation would exceed its configured search budget."""

    def __init__(self, message: str, size: float = 0.0):
        super().__init__(message)
        self.size = size


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class BoundaryCondition:
    """free, wired, or an explicit partition of the boundary sites.

    wired is the single-class partition, free the all-singletons one; both
    are kept symbolic so they apply to any box.
    """

    kind: str  # "free" | "wired" | "partition"
    classes: tuple[frozenset[Site], ...] = ()

    @staticmethod
    def free() -> "BoundaryCondition":
        return BoundaryCondition("free")

    @staticmethod
    def wired() -> "BoundaryCondition":
        return BoundaryCondition("wired")

    @staticmethod
    def partition(classes) -> "BoundaryCondition":
        return BoundaryCondition("partition",
                                 tuple(frozenset(c) for c in classes))

    def validate(self, box: Box) -> None:
        if self.kind in ("free", "wired"):
            return
        if self.kind != "partition":
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        seen: set[Site] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty partition class")
            if cls & seen:
                raise ValueError("partition classes overlap")
            seen |= cls
        if seen != set(box.boundary):
            raise ValueError("partition does not cover the box boundary")

    def class_lists(self, box: Box) -> list[list[int]]:
        """Site-index groups to glue together when counting components."""
        if self.kind == "free":
            return []
        if self.kind == "wired":
            return [[box.site_index(x) for x in box.boundary]]
        self.validate(box)
        return [[box.site_index(x) for x in cls] for cls in self.classes]


FREE = BoundaryCondition.free()
WIRED = BoundaryCondition.wired()


@dataclass(frozen=True)
class FKParams:
    p: float
    q: float
    boundary: BoundaryCondition = FREE

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if self.q < 1.0:
            raise ValueError(f"q must be >= 1, got {self.q}")

    @property
    def integer_q(self) -> bool:
        return abs(self.q - round(self.q)) < 1e-12


# ---------------------------------------------------------------------------
# configurations


@dataclass
class BondConfig:
    """One open(1)/closed(0) bit per bond of ``box``, in ``box.bonds`` order."""

    box: Box
    state: np.ndarray

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=np.uint8)
        if self.state.shape != (self.box.n_bonds,):
            raise ValueError(
                f"state length {self.state.shape} != bond count {self.box.n_bonds}")

    @staticmethod
    def all_open(box: Box) -> "BondConfig":
        return BondConfig(box, np.ones(box.n_bonds, dtype=np.uint8))

    @staticmethod
    def all_closed(box: Box) -> "BondConfig":
        return BondConfig(box, np.zeros(box.n_bonds, dtype=np.uint8))

    def copy(self) -> "BondConfig":
        return BondConfig(self.box, self.state.copy())

    def is_open(self, bond: Bond) -> bool:
        return bool(self.state[self.box.bond_index[bond]])

    def with_bond(self, bond: Bond, open_: bool) -> "BondConfig":
        out = self.copy()
        out.state[self.box.bond_index[bond]] = 1 if open_ else 0
        return out

    def open_count(self) -> int:
        return int(self.state.sum())

    def __eq__(self, other) -> bool:
        return (isinstance(other, BondConfig) and self.box == other.box
                and np.array_equal(self.state, other.state))


# ---------------------------------------------------------------------------
# connectivity


@lru_cache(maxsize=None)
def _cross(d: int) -> np.ndarray:
    """Nearest-neighbour structure on (configuration, *grid) arrays: the
    d-dimensional cross, with no connection along the configuration axis."""
    structure = np.zeros((3,) * (d + 1), dtype=bool)
    structure[1] = ndimage.generate_binary_structure(d, 1)
    structure.flags.writeable = False
    return structure


@lru_cache(maxsize=64)
def _glue_table(bc: BoundaryCondition, box: Box):
    """(site indices, class of each, number of classes) of the boundary
    classes of a wired or partition boundary."""
    groups = bc.class_lists(box)
    sites = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    classes = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return sites, classes, len(groups)


def label_sites(box: Box, states: np.ndarray,
                bc: BoundaryCondition = FREE) -> tuple[np.ndarray, int]:
    """Clusters of a batch of configurations of ``box``.

    ``states`` is a (configs, n_bonds) array of open(1)/closed(0) bits.
    Returns ``(labels, n)``: ``labels`` is a (configs, n_sites) array in
    which two sites of one configuration share a label exactly when open
    bonds, or a boundary class of ``bc``, join them; ``n`` is the number of
    clusters over the batch.  Labels run 0..n-1 in the order of each
    cluster's smallest site index, configuration by configuration, so
    every configuration's labels form one contiguous range.
    """
    sites_only, site_cells, bond_cells = box.doubled_grid
    c = len(states)
    grid = sites_only[None].repeat(c, axis=0)
    grid.reshape(c, -1)[:, bond_cells] = states
    # ndimage numbers components 1..n in raster order of their first cell,
    # and a component's first cell is its smallest site
    lab, n = ndimage.label(grid, _cross(box.d))
    labels = lab.reshape(c, -1).take(site_cells, axis=1)
    labels -= 1
    if bc.kind == "free":
        return labels, n
    return _glue(labels, n, *_glue_table(bc, box))


def _glue(labels: np.ndarray, n: int, sites: np.ndarray, classes: np.ndarray,
          n_classes: int) -> tuple[np.ndarray, int]:
    """Merge the labels that meet in one boundary class, to a fixpoint,
    and number the merged clusters densely in order of their smallest
    label."""
    rep = np.arange(n)
    at = labels[:, sites]
    rows = np.arange(len(labels))[:, None]
    while True:
        r = rep[at]
        low = np.full((len(labels), n_classes), n)
        np.minimum.at(low, (rows, classes), r)
        target = low[:, classes]
        if np.array_equal(target, r):
            break
        np.minimum.at(rep, r, target)
        while True:  # point every label at its current root
            nxt = rep[rep]
            if np.array_equal(nxt, rep):
                break
            rep = nxt
    root = rep == np.arange(n)
    dense = np.cumsum(root) - 1
    return dense[rep][labels], int(root.sum())


def cluster_count(config: BondConfig, bc: BoundaryCondition = FREE) -> int:
    """Number of pi-clusters: open-bond components after gluing the
    boundary partition's classes."""
    bc.validate(config.box)
    return label_sites(config.box, config.state[None], bc)[1]


def log_weight(config: BondConfig, params: FKParams) -> float:
    """log of the unnormalized measure weight; -inf for forbidden states
    at p = 0 or 1."""
    m = config.box.n_bonds
    k = config.open_count()
    p = params.p
    if p == 0.0:
        lw = 0.0 if k == 0 else -math.inf
    elif p == 1.0:
        lw = 0.0 if k == m else -math.inf
    else:
        lw = k * math.log(p) + (m - k) * math.log(1.0 - p)
    if lw == -math.inf:
        return lw
    return lw + cluster_count(config, params.boundary) * math.log(params.q)


def weight(config: BondConfig, params: FKParams) -> float:
    return math.exp(log_weight(config, params))


def finite_energy_floor(params: FKParams) -> float:
    """Uniform lower bound on the weight ratio of two configurations that
    differ in a single bond: min(p, 1-p) / (max(p, 1-p) * q)."""
    p = params.p
    if p in (0.0, 1.0):
        raise ValueError("no finite-energy floor at p = 0 or 1")
    return min(p, 1.0 - p) / (max(p, 1.0 - p) * params.q)


# ---------------------------------------------------------------------------
# Markov kernels


class _DisjointSet:
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


def _connected_off_bond(n_sites: int, ends: list, state: list,
                        groups: list, bond: int) -> bool:
    """Whether the endpoints of ``bond`` are joined by the other open bonds
    or a boundary class; ``ends`` and ``state`` are per-bond lists."""
    ds = _DisjointSet(n_sites)
    for i, (a, b) in enumerate(ends):
        if state[i] and i != bond:
            ds.union(a, b)
    for group in groups:
        for j in group[1:]:
            ds.union(group[0], j)
    a, b = ends[bond]
    return ds.find(a) == ds.find(b)


def heatbath_step(config: BondConfig, params: FKParams, e: Bond,
                  u: float) -> BondConfig:
    """Resample bond e from its exact conditional law given all other bonds.

    Open probability is p when the endpoints are connected off e (opening
    does not change the cluster count) and p / (p + q(1-p)) otherwise.
    """
    box = config.box
    i = box.bond_index[e]
    p, q = params.p, params.q
    if _connected_off_bond(box.n_sites, box.bond_sites.tolist(),
                           config.state.tolist(),
                           params.boundary.class_lists(box), i):
        p_open = p
    else:
        p_open = p / (p + q * (1.0 - p))
    out = config.copy()
    out.state[i] = 1 if u < p_open else 0
    return out


def heatbath_sweep(config: BondConfig, params: FKParams,
                   rng: np.random.Generator) -> BondConfig:
    """Systematic scan: one heat-bath update of every bond in order."""
    box = config.box
    p, q = params.p, params.q
    p_apart = p / (p + q * (1.0 - p))
    ends = box.bond_sites.tolist()
    groups = params.boundary.class_lists(box)
    state = config.state.tolist()
    us = rng.random(box.n_bonds).tolist()
    for i in range(box.n_bonds):
        joined = _connected_off_bond(box.n_sites, ends, state, groups, i)
        state[i] = 1 if us[i] < (p if joined else p_apart) else 0
    return BondConfig(box, np.array(state, dtype=np.uint8))


def swendsen_wang_step(config: BondConfig, params: FKParams,
                       rng: np.random.Generator) -> BondConfig:
    """One color-then-rebond sweep.

    Every pi-cluster of the current configuration receives a uniform color
    among q; bonds between equal-colored endpoints are then opened
    independently with probability p, all others closed.  Requires integer q.
    """
    if not params.integer_q:
        raise ValueError("cluster sweep needs integer q; use heatbath_sweep")
    box = config.box
    labels, n = label_sites(box, config.state[None], params.boundary)
    colors = rng.integers(0, int(round(params.q)), size=n)
    ends = colors.take(labels[0]).take(box.bond_sites.T)
    same = ends[0] == ends[1]
    new_state = same & (rng.random(box.n_bonds) < params.p)
    return BondConfig(box, new_state.view(np.uint8))


def sweep(config: BondConfig, params: FKParams,
          rng: np.random.Generator) -> BondConfig:
    if params.integer_q:
        return swendsen_wang_step(config, params, rng)
    return heatbath_sweep(config, params, rng)


def default_burn_in(box: Box) -> int:
    return 10 * box.n_sites


def sample(params: FKParams, box: Box, sweeps: int, seed) -> BondConfig:
    """Run ``sweeps`` sweeps from the all-open state; deterministic in
    (params, box, sweeps, seed)."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    params.boundary.validate(box)
    rng = np.random.default_rng(seed)
    config = BondConfig.all_open(box)
    for _ in range(sweeps):
        config = sweep(config, params, rng)
    return config


def sample_states(params: FKParams, box: Box, n_samples: int,
                  thinning: int = 10, burn_in: int | None = None,
                  seed=0) -> np.ndarray:
    """(n_samples, n_bonds) uint8 matrix of thinned post-burn-in samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    params.boundary.validate(box)
    if burn_in is None:
        burn_in = default_burn_in(box)
    rng = np.random.default_rng(seed)
    config = BondConfig.all_open(box)
    for _ in range(burn_in):
        config = sweep(config, params, rng)
    out = np.empty((n_samples, box.n_bonds), dtype=np.uint8)
    for s in range(n_samples):
        for _ in range(thinning):
            config = sweep(config, params, rng)
        out[s] = config.state
    return out


# ---------------------------------------------------------------------------
# serialization
#
# Byte layout (little-endian), documented for replayability:
#   magic   4s   b"FKC1"
#   d       B
#   lower   d * int64
#   sides   d * int64
#   p, q    2 * float64
#   btag    B    0 = free, 1 = wired, 2 = partition
#   [btag == 2] n_classes uint32, then one uint32 class id per boundary
#               site in row-major site order
#   seed    uint64
#   sweep   uint64
#   nbonds  uint64
#   bits    packbits(state) in box.bonds order

_MAGIC = b"FKC1"
_BTAG = {"free": 0, "wired": 1, "partition": 2}


def config_to_bytes(config: BondConfig, params: FKParams,
                    seed: int = 0, sweep_index: int = 0) -> bytes:
    box = config.box
    head = [_MAGIC, struct.pack("<B", box.d)]
    head.append(struct.pack(f"<{box.d}q", *box.lower))
    head.append(struct.pack(f"<{box.d}q", *box.sides))
    head.append(struct.pack("<2d", params.p, params.q))
    bc = params.boundary
    head.append(struct.pack("<B", _BTAG[bc.kind]))
    if bc.kind == "partition":
        bc.validate(box)
        class_of = {}
        for ci, cls in enumerate(bc.classes):
            for site in cls:
                class_of[site] = ci
        bsites = sorted(box.boundary, key=box.site_index)
        head.append(struct.pack("<I", len(bc.classes)))
        head.append(struct.pack(f"<{len(bsites)}I",
                                *(class_of[s] for s in bsites)))
    head.append(struct.pack("<QQ", seed, sweep_index))
    head.append(struct.pack("<Q", box.n_bonds))
    bits = np.packbits(config.state).tobytes()
    return b"".join(head) + bits


def config_from_bytes(buf: bytes) -> tuple[BondConfig, FKParams, dict]:
    """Inverse of ``config_to_bytes``.  Raises ValueError unless ``buf`` is
    exactly one well-formed record: a short buffer or trailing bytes are
    rejected, never zero-filled or ignored."""
    if buf[:4] != _MAGIC:
        raise ValueError("bad magic; not a serialized configuration")
    off = 4

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(buf):
            raise ValueError(f"configuration record truncated at byte "
                             f"{len(buf)}; the header needs {off + size}")
        values = struct.unpack_from(fmt, buf, off)
        off += size
        return values

    (d,) = take("<B")
    lower = take(f"<{d}q")
    sides = take(f"<{d}q")
    p, q = take("<2d")
    (btag,) = take("<B")
    box = Box(tuple(lower), tuple(sides))
    if btag == 0:
        bc = FREE
    elif btag == 1:
        bc = WIRED
    elif btag == 2:
        (n_classes,) = take("<I")
        bsites = sorted(box.boundary, key=box.site_index)
        ids = take(f"<{len(bsites)}I")
        if any(ci >= n_classes for ci in ids):
            raise ValueError("boundary class id out of range")
        classes: list[set[Site]] = [set() for _ in range(n_classes)]
        for site, ci in zip(bsites, ids):
            classes[ci].add(site)
        bc = BoundaryCondition.partition(c for c in classes if c)
    else:
        raise ValueError(f"unknown boundary tag {btag}")
    seed, sweep_index = take("<QQ")
    (n_bonds,) = take("<Q")
    if n_bonds != box.n_bonds:
        raise ValueError("bond count mismatch in serialized configuration")
    n_bytes = (n_bonds + 7) // 8
    if len(buf) != off + n_bytes:
        raise ValueError(f"configuration record is {len(buf)} bytes, "
                         f"expected {off + n_bytes}")
    bits = np.frombuffer(buf[off:], dtype=np.uint8)
    state = np.unpackbits(bits, count=n_bonds)
    params = FKParams(p, q, bc)
    meta = {"seed": seed, "sweep_index": sweep_index}
    return BondConfig(box, state), params, meta
