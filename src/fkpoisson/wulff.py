"""Raster shape statistics for large finite clusters.

The candidate droplet shape is user-supplied (or estimated empirically);
computing the true variational shape from surface tension is out of scope.
Shapes are boolean occupancy grids at a fixed resolution of
``cells_per_unit`` raster cells per lattice unit, anchored on the raster
grid so translations by lattice vectors are exact.

Raster convention: a lattice site occupies its closed unit cell, and the
width-l neighborhood of a cluster extends l beyond those cells, so a
singleton fattened by l rasterizes to a cube of side 2l + 1.

The functions read plain arrays of centers and sites.  The ``wulff``
subcommand takes them from one census per replica: the rows of
``Census.qualifying(n)`` and their ``Census.member_sites``.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_CELLS_PER_UNIT = 16
# a raster cell whose centre is this close to a box edge counts as inside
_EPS = 1e-9


@dataclass
class ShapeMask:
    """Boolean occupancy over a raster window.

    Cell (i0, .., i_{d-1}) covers the world-coordinate cube
    (lower_cells + i) * h .. (lower_cells + i + 1) * h per axis, with
    h = 1 / cells_per_unit.
    """

    cells_per_unit: int
    lower_cells: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=bool)
        if self.grid.ndim != len(self.lower_cells):
            raise ValueError("grid rank does not match anchor dimension")
        if self.grid.size == 0:
            raise ValueError("empty occupancy grid")

    @property
    def d(self) -> int:
        return self.grid.ndim

    @property
    def h(self) -> float:
        return 1.0 / self.cells_per_unit

    @property
    def volume(self) -> float:
        return float(self.grid.sum()) * self.h ** self.d

    def contains_point(self, x) -> bool:
        idx = []
        for xi, lo, size in zip(x, self.lower_cells, self.grid.shape):
            i = math.floor(xi * self.cells_per_unit) - lo
            if not 0 <= i < size:
                return False
            idx.append(i)
        return bool(self.grid[tuple(idx)])

    def to_bytes(self) -> bytes:
        """Header (dimension, resolution, anchor, grid shape) followed by a
        run-length encoding of the flattened occupancy, starting with the
        length of the initial empty run."""
        head = struct.pack("<BI", self.d, self.cells_per_unit)
        head += struct.pack(f"<{self.d}q", *self.lower_cells)
        head += struct.pack(f"<{self.d}q", *self.grid.shape)
        flat = self.grid.ravel()
        edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        runs = np.diff(edges, prepend=0, append=flat.size)
        if flat[0]:
            runs = np.concatenate(([0], runs))
        return head + struct.pack("<I", len(runs)) + runs.astype("<u8").tobytes()

    @staticmethod
    def from_bytes(buf: bytes) -> "ShapeMask":
        """Inverse of ``to_bytes``.  Raises ValueError unless ``buf`` is
        exactly one well-formed record: a short header, a run table shorter
        or longer than its count, runs that do not cover the grid, or
        trailing bytes are rejected."""
        off = 0

        def take(fmt: str) -> tuple:
            nonlocal off
            size = struct.calcsize(fmt)
            if off + size > len(buf):
                raise ValueError(f"shape record truncated at byte "
                                 f"{len(buf)}; it needs {off + size}")
            values = struct.unpack_from(fmt, buf, off)
            off += size
            return values

        d, cpu = take("<BI")
        lower = take(f"<{d}q")
        shape = take(f"<{d}q")
        (n_runs,) = take("<I")
        if len(buf) != off + 8 * n_runs:
            raise ValueError(f"shape record is {len(buf)} bytes, expected "
                             f"{off + 8 * n_runs} for {n_runs} runs")
        runs = take(f"<{n_runs}Q")
        size = math.prod(shape)
        if min(shape, default=0) < 1 or sum(runs) != size:
            raise ValueError(f"runs cover {sum(runs)} cells of a "
                             f"{'x'.join(map(str, shape))} grid")
        flat = np.repeat(np.arange(n_runs) % 2 == 1, runs)
        return ShapeMask(cpu, tuple(lower), flat.reshape(shape))


def square_shape(side: float, cells_per_unit: int = DEFAULT_CELLS_PER_UNIT,
                 d: int = 2) -> ShapeMask:
    """Axis cube of the given side centered at the origin."""
    half_cells = int(round(side / 2.0 * cells_per_unit))
    n = 2 * half_cells
    return ShapeMask(cells_per_unit, (-half_cells,) * d,
                     np.ones((n,) * d, dtype=bool))


def renormalize(shape: ShapeMask, theta: float) -> ShapeMask:
    """Scale by (theta * volume)^(-1/d); the result has volume 1/theta up
    to a raster-surface error."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    vol = shape.volume
    if vol <= 0.0:
        raise ValueError("shape has zero volume")
    s = (theta * vol) ** (-1.0 / shape.d)
    cpu = shape.cells_per_unit
    lo = [int(math.floor(l * s)) for l in shape.lower_cells]
    hi = [int(math.ceil((l + n) * s)) for l, n in zip(shape.lower_cells,
                                                     shape.grid.shape)]
    # the old cell of each new cell centre, per axis (``contains_point``);
    # centres outside the old grid read its padding, which is empty
    idx = []
    for l, h, old, size in zip(lo, hi, shape.lower_cells, shape.grid.shape):
        centre = (np.arange(l, h) + 0.5) / cpu
        j = np.floor(centre / s * cpu).astype(np.int64) - old
        idx.append(np.where((j >= 0) & (j < size), j, size))
    padded = np.pad(shape.grid, [(0, 1)] * shape.d)
    return ShapeMask(cpu, tuple(lo), padded[np.ix_(*idx)])


def _cells(a, b, cpu: int):
    """Half-open index ranges [lo, hi) of the raster cells whose centres
    lie in [a, b] up to ``_EPS`` (world coordinates, elementwise)."""
    return (np.ceil(a * cpu - 0.5 - _EPS).astype(np.int64),
            np.floor(b * cpu - 0.5 + _EPS).astype(np.int64) + 1)


def _cover(shape: tuple, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many of the boxes lo[j] <= i < hi[j] ((boxes, rank) cell indices
    into a grid of ``shape``, clipped to it) cover each cell: +-1 at the
    corners of each nonempty box in a difference array, then a cumulative
    sum along each axis."""
    lo, hi = np.maximum(lo, 0), np.minimum(hi, shape)
    keep = (hi > lo).all(axis=1)
    lo, hi = lo[keep], hi[keep]
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        np.add.at(diff, tuple(np.where(corner, hi, lo).T),
                  (-1) ** sum(corner))
    for k in range(len(shape)):
        np.cumsum(diff, axis=k, out=diff)
    return diff[tuple(slice(s) for s in shape)]


def _site_boxes(sites: np.ndarray, n: int, width: int, cpu: int):
    """Cell ranges of (1/n) * (the width-neighbourhood of each site's unit
    cell): the cells whose centres c have |n c - y|_inf <= width + 1/2."""
    r = (width + 0.5) / n
    return _cells(sites / n - r, sites / n + r, cpu)


def fatten(sites, width: int,
           cells_per_unit: int = DEFAULT_CELLS_PER_UNIT) -> ShapeMask:
    """Max-metric neighborhood of width ``width`` around the cluster's unit
    cells [s - 1/2, s + 1/2]^d, rasterized; a singleton fattened by w is a
    cube of side 2w + 1."""
    if width < 0:
        raise ValueError("width must be >= 0")
    if cells_per_unit % 2:
        raise ValueError("cells_per_unit must be even")
    lo, hi = _site_boxes(np.array(list(sites), dtype=np.int64), 1, width,
                         cells_per_unit)
    lower = lo.min(axis=0)
    grid = _cover(tuple(hi.max(axis=0) - lower), lo - lower, hi - lower) > 0
    return ShapeMask(cells_per_unit, tuple(lower.tolist()), grid)


# ---------------------------------------------------------------------------
# raster set arithmetic


def _common_window(masks: list[ShapeMask]):
    cpu = masks[0].cells_per_unit
    d = masks[0].d
    for m in masks:
        if m.cells_per_unit != cpu or m.d != d:
            raise ValueError("masks use different rasters")
    lo = [min(m.lower_cells[k] for m in masks) for k in range(d)]
    hi = [max(m.lower_cells[k] + m.grid.shape[k] for m in masks)
          for k in range(d)]
    return cpu, tuple(lo), tuple(h - l for l, h in zip(lo, hi))


def _paint(target: np.ndarray, target_lower, mask: ShapeMask,
           cell_offset=None) -> None:
    off = [mask.lower_cells[k] - target_lower[k] for k in range(mask.d)]
    if cell_offset is not None:
        off = [o + c for o, c in zip(off, cell_offset)]
    sl = tuple(slice(o, o + s) for o, s in zip(off, mask.grid.shape))
    target[sl] |= mask.grid


def symdiff_volume(a: ShapeMask, b: ShapeMask) -> float:
    """Volume of the symmetric difference; zero iff the rasters coincide."""
    cpu, lo, shape = _common_window([a, b])
    ga = np.zeros(shape, dtype=bool)
    gb = np.zeros(shape, dtype=bool)
    _paint(ga, lo, a)
    _paint(gb, lo, b)
    return float((ga ^ gb).sum()) / cpu ** a.d


@dataclass
class ShapeDiagnostic:
    n: int
    volume: float
    center_count: int
    delta: float
    cells_per_unit: int

    @property
    def indicator(self) -> bool:
        """The droplet-mismatch event: symmetric difference at least
        delta per observed center.  Vacuously false when nothing was
        observed at all."""
        if self.center_count == 0 and self.volume == 0.0:
            return False
        return self.volume >= self.delta * self.center_count


def symmetric_difference_stat(centers, sites, shape: ShapeMask, n: int,
                              width: int, delta: float) -> ShapeDiagnostic:
    """Volume of (union of the shape translated to each center x / n)
    symmetric-difference (1/n times the union of fattened qualifying
    clusters).

    ``centers`` is a (k, d) array of one sample's distinct mass centers and
    ``sites`` an (m, d) array of the sites of its qualifying clusters.  The
    shape moves by whole raster cells, to the cell nearest x / n along each
    axis, halves rounded up.  Clusters may stick out of the sampling box;
    their raster mass is kept.
    """
    cpu, d = shape.cells_per_unit, shape.d
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, d)
    sites = np.asarray(sites, dtype=np.int64).reshape(-1, d)
    if not len(centers) and not len(sites):
        return ShapeDiagnostic(n, 0.0, 0, delta, cpu)
    lo_b, hi_b = _site_boxes(sites, n, width, cpu)
    shift = (2 * centers * cpu + n) // (2 * n)
    lo_a = np.array(shape.lower_cells) + shift
    lower = np.concatenate([lo_a, lo_b]).min(axis=0)
    window = tuple(np.concatenate([lo_a + shape.grid.shape, hi_b]).max(axis=0)
                   - lower)
    gb = _cover(window, lo_b - lower, hi_b - lower) > 0
    ga = np.zeros(window, dtype=bool)
    for offset in shift.tolist():
        _paint(ga, lower, shape, offset)
    vol = float((ga ^ gb).sum()) / cpu ** d
    return ShapeDiagnostic(n, vol, len(centers), delta, cpu)


def empirical_shape(sites, owner, centers,
                    cells_per_unit: int = DEFAULT_CELLS_PER_UNIT,
                    min_count: int = 20) -> ShapeMask:
    """Candidate droplet shape: average occupancy of qualifying clusters,
    re-centered at their mass centers and scaled to unit volume
    (coordinates multiplied by |C|^(-1/d)), thresholded at 1/2.

    ``sites`` is an (m, d) array of the clusters' sites, ``owner`` the
    index of each site's cluster and ``centers`` a (clusters, d) array of
    their mass centers.  Cells that several sites of one cluster cover
    count once for it."""
    sites = np.asarray(sites, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    centers = np.asarray(centers, dtype=np.int64)
    k = len(centers)
    if k < min_count:
        raise ValueError(f"only {k} qualifying clusters; need {min_count}")
    d = centers.shape[1]
    cpu = cells_per_unit
    size = np.bincount(owner, minlength=k)
    # Python's pow, not numpy's: the two differ in the last bit for some
    # sizes, which moves cell edges that fall on cell centres
    sigma =np.array([s ** (-1.0 / d) for s in size.tolist()])[owner, None]
    rel = sites - centers[owner]
    reach = float((sigma * (np.abs(rel) + 0.5)).max())
    half = int(math.ceil(reach * cpu)) + 1
    # Along an axis, the cells of relative coordinate t and those of t + 1
    # share at most one tie cell.  Split the axis into disjoint pieces with
    # a doubled coordinate w: the cells of t alone (w = 2t) and the tie of
    # t and t + 1 (w = 2t + 1).  A cluster covers the pieces with
    # |w - 2s|_inf <= 1 for some site s; painting each distinct (cluster,
    # nonempty piece) once counts each cell once per cluster covering it.
    lo_w, hi_w = sigma * (rel - 0.5), sigma * (rel + 0.5)
    first, end = _cells(lo_w, hi_w, cpu)
    next_first, prev_end = _cells(hi_w, lo_w, cpu)
    # per step -1, 0, +1 along an axis: the tie below, the cells of s
    # alone, the tie above
    los = np.stack([first, np.maximum(first, prev_end), next_first])
    his = np.stack([prev_end, np.minimum(end, next_first), end])
    axes = np.arange(d)
    pieces, lo, hi = [], [], []
    for step in itertools.product((-1, 0, 1), repeat=d):
        pick = np.add(step, 1)
        a, b = los[pick, :, axes].T, his[pick, :, axes].T
        ok = (b > a).all(axis=1)
        pieces.append(np.column_stack([owner[ok], 2 * rel[ok] + step]))
        lo.append(a[ok])
        hi.append(b[ok])
    once = np.unique(np.concatenate(pieces), axis=0, return_index=True)[1]
    acc = _cover((2 * half,) * d, np.concatenate(lo)[once] + half,
                 np.concatenate(hi)[once] + half)
    return ShapeMask(cpu, (-half,) * d, acc / k >= 0.5)
