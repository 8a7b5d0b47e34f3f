"""Random-cluster (FK) configurations on finite boxes and their samplers.

A configuration assigns one open/closed bit per bond of the box.  The
measure weights a configuration by ``p^#open (1-p)^#closed q^cl_pi`` where
``cl_pi`` counts connected components after the boundary partition ``pi``
virtually glues boundary sites together.  Weights are handled in log space
throughout: ``q^cl`` overflows beyond a few hundred sites.

Clusters are labeled in two steps, one labeler for the samplers, the
census and the exact oracle.  ``bond_grid`` draws a batch of
configurations as one image: each on the box's doubled grid (sites at
even cells, open bonds at the odd cells between them), stacked along
axis 0 with an empty slab between them.  ``label_grid`` labels that
image with one ``scipy.ndimage.label`` call and glues boundary classes
by merging the labels of their sites.  ``label_sites`` does both.
``site_components`` labels a stack of site masks (the coupling's sets)
with one call of the same kind; no other module calls ``ndimage.label``.

Sampling is one cluster chain for every q >= 1, kept in a bond grid
between sweeps: each sweep labels the grid, marks every cluster and
redraws the bonds the marks allow.  The marks are Swendsen-Wang colours
for integer q and Chayes-Machta activations otherwise (see ``_Chain``).
Both kernels leave the target measure invariant; the initial all-open
state does not matter after burn-in (default ``10 * n_sites`` sweeps).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .lattice import Box, Site


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

    def open_count(self) -> int:
        return int(self.state.sum())

    def __eq__(self, other) -> bool:
        return (isinstance(other, BondConfig) and self.box == other.box
                and np.array_equal(self.state, other.state))


# ---------------------------------------------------------------------------
# connectivity


@lru_cache(maxsize=None)
def _cross(d: int) -> np.ndarray:
    """The d-dimensional nearest-neighbour cross."""
    structure = ndimage.generate_binary_structure(d, 1)
    structure.flags.writeable = False
    return structure


@lru_cache(maxsize=64)
def _block(box: Box) -> tuple[np.ndarray, tuple[int, ...], np.ndarray,
                              np.ndarray]:
    """One configuration's block of a bond grid: (flat read-only bool
    template, true at the site cells; block shape; flat cell of each site;
    flat cell of each bond).  The block is the box's doubled grid plus one
    empty slab at the end of axis 0, so blocks stacked along axis 0 never
    touch and a site or bond keeps its doubled grid's flat cell.  Cached by
    box value, so equal boxes share one table."""
    sites_only, site_cells, bond_cells = box.doubled_grid
    shape = (sites_only.shape[0] + 1,) + sites_only.shape[1:]
    template = np.zeros(shape, dtype=bool)
    template[:-1] = sites_only
    template = template.reshape(-1)
    template.flags.writeable = False
    return template, shape, site_cells, bond_cells


def bond_grid(box: Box, states: np.ndarray) -> np.ndarray:
    """A (configs, n_bonds) batch of open(1)/closed(0) bits drawn as one
    d-dimensional bool image: each configuration's doubled grid (sites at
    the even cells, true; each bond at the cell between its endpoints,
    true when open), stacked along axis 0 with one empty slab after each."""
    template, shape, _, bond_cells = _block(box)
    c = len(states)
    grid = template[None].repeat(c, axis=0)
    grid[:, bond_cells] = states
    return grid.reshape((c * shape[0],) + shape[1:])


def label_grid(box: Box, grid: np.ndarray,
               bc: BoundaryCondition = FREE) -> tuple[np.ndarray, int]:
    """Clusters of the configurations drawn in a ``bond_grid`` image, as
    ``label_sites`` returns them."""
    template, _, site_cells, _ = _block(box)
    # ndimage numbers components 1..n in raster order of their first cell:
    # configuration by configuration, and within one from its smallest site
    lab, n = ndimage.label(grid, _cross(box.d))
    labels = lab.reshape(-1, len(template)).take(site_cells, axis=1)
    labels -= 1
    if bc.kind == "free":
        return labels, n
    return _glue(labels, n, *_glue_table(bc, box))


def site_components(masks: np.ndarray, seeds: np.ndarray,
                    star: bool = False) -> np.ndarray:
    """The sites of a (configs, *sides) stack of bool site masks whose
    component meets ``seeds`` (a bool mask broadcast against ``masks``),
    in each configuration under the cross or, with ``star``, the 3^d
    block: one ``ndimage.label`` call, with no structure along axis 0."""
    structure = np.zeros((3,) * masks.ndim, dtype=bool)
    structure[1] = True if star else _cross(masks.ndim - 1)
    lab, n = ndimage.label(masks, structure)
    hit = np.zeros(n + 1, dtype=bool)
    hit[lab[np.broadcast_to(seeds, lab.shape)]] = True
    hit[0] = False
    return hit[lab]


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
    return label_grid(box, bond_grid(box, states), bc)


def _glue(labels: np.ndarray, n: int, sites: np.ndarray, classes: np.ndarray,
          n_classes: int) -> tuple[np.ndarray, int]:
    """Merge the labels that meet in one boundary class, to a fixpoint,
    and number the merged clusters densely in order of their smallest
    label."""
    rep = np.arange(n)
    at = labels[:, sites]
    if n_classes == 1:
        # a label meets one class at most, so one step is the fixpoint
        rep[at] = at.min(axis=1, keepdims=True)
    else:
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
    return dense[rep].take(labels), int(root.sum())


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


@lru_cache(maxsize=64)
def bond_axes(box: Box) -> tuple:
    """Per axis k with bonds: (the cells of the axis-k bonds in a one-block
    bond grid, the slices of a (sides)-shaped site array at their lower and
    upper endpoints, and the index of each of those bonds in bond order),
    each shaped like the axis-k bonds."""
    index = np.full((box.n_sites, box.d), -1, dtype=np.int64)
    index[box.offsets < np.array(box.sides) - 1] = np.arange(box.n_bonds)
    out = []
    for k, s in enumerate(box.sides):
        if s == 1:
            continue
        cells = [slice(0, None, 2)] * box.d
        cells[k] = slice(1, 2 * s - 1, 2)
        lo, hi = [slice(None)] * box.d, [slice(None)] * box.d
        lo[k], hi[k] = slice(0, s - 1), slice(1, s)
        lo, hi = tuple(lo), tuple(hi)
        out.append((tuple(cells), lo, hi,
                    index[:, k].reshape(box.sides)[lo].copy()))
    return tuple(out)


class _Chain:
    """The cluster chain: one configuration kept in a one-block
    ``bond_grid`` and moved in place, sweep by sweep.

    A sweep labels the clusters, marks each, redraws the bonds the marks
    allow as Bernoulli(p) and keeps every other bond.

    - Integer q (Swendsen & Wang, PRL 58, 86, 1987): the marks are uniform
      colours among q, ``rng.integers(0, q, n)`` over the n clusters in
      label order; a bond is redrawn when its endpoints share a colour.
      Every other bond joins two clusters, so it is closed and stays so.
    - Other q (Chayes & Machta, Physica A 254, 477, 1998): a cluster is
      active when ``rng.random(n) < 1 / q``; a bond is redrawn when both
      its endpoints are active.

    Both then draw ``rng.random(n_bonds)`` in bond order, one number per
    bond whether or not it is redrawn.  Both leave the FK measure of
    ``params`` invariant.
    """

    def __init__(self, box: Box, params: FKParams, state: np.ndarray):
        self.box, self.params = box, params
        self.colours = int(round(params.q)) if params.integer_q else 0
        self.grid = bond_grid(box, state[None])
        self.bonds = [(self.grid[cells], lo, hi, order)
                      for cells, lo, hi, order in bond_axes(box)]

    def step(self, rng: np.random.Generator) -> None:
        box, params = self.box, self.params
        labels, n = label_grid(box, self.grid, params.boundary)
        site = labels.reshape(box.sides)
        if self.colours:
            mark = rng.integers(0, self.colours, size=n).take(site)
        else:
            mark = (rng.random(n) < 1.0 / params.q).take(site)
        fresh = rng.random(box.n_bonds) < params.p
        for bonds, lo, hi, order in self.bonds:
            if self.colours:
                np.logical_and(mark[lo] == mark[hi], fresh.take(order),
                               out=bonds)
            else:
                np.copyto(bonds, fresh.take(order), where=mark[lo] & mark[hi])

    def state(self) -> np.ndarray:
        """The current configuration as open(1)/closed(0) bits in bond
        order."""
        return self.grid.reshape(-1).take(_block(self.box)[3]).view(np.uint8)


def sweep(config: BondConfig, params: FKParams,
          rng: np.random.Generator) -> BondConfig:
    """One sweep of the cluster chain from ``config`` (see ``_Chain``):
    Swendsen-Wang for integer q, Chayes-Machta otherwise."""
    chain = _Chain(config.box, params, config.state)
    chain.step(rng)
    return BondConfig(config.box, chain.state())


def swendsen_wang_step(config: BondConfig, params: FKParams,
                       rng: np.random.Generator) -> BondConfig:
    """One color-then-rebond sweep.

    Every pi-cluster of the current configuration receives a uniform color
    among q; bonds between equal-colored endpoints are then opened
    independently with probability p, all others closed.  Requires integer q.
    """
    if not params.integer_q:
        raise ValueError("cluster sweep needs integer q; use sweep")
    return sweep(config, params, rng)


def default_burn_in(box: Box) -> int:
    return 10 * box.n_sites


def sample(params: FKParams, box: Box, sweeps: int, seed) -> BondConfig:
    """Run ``sweeps`` sweeps from the all-open state; deterministic in
    (params, box, sweeps, seed)."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    return BondConfig(box, sample_states(params, box, 1, thinning=sweeps,
                                         burn_in=0, seed=seed)[0])


def sample_states(params: FKParams, box: Box, n_samples: int,
                  thinning: int = 10, burn_in: int | None = None,
                  seed=0) -> np.ndarray:
    """(n_samples, n_bonds) uint8 matrix of thinned post-burn-in samples.

    One chain from the all-open state (see ``_Chain``): Swendsen-Wang at
    integer q, Chayes-Machta otherwise.  Its random numbers come from
    ``default_rng(seed)`` sweep by sweep, so ``sweep`` called as many times
    from all-open with that generator gives the same configurations.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    params.boundary.validate(box)
    if burn_in is None:
        burn_in = default_burn_in(box)
    rng = np.random.default_rng(seed)
    chain = _Chain(box, params, np.ones(box.n_bonds, dtype=np.uint8))
    for _ in range(burn_in):
        chain.step(rng)
    out = np.empty((n_samples, box.n_bonds), dtype=np.uint8)
    for s in range(n_samples):
        for _ in range(thinning):
            chain.step(rng)
        out[s] = chain.state()
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
