"""Raster shape statistics for large finite clusters.

The candidate droplet shape is user-supplied (or estimated empirically);
computing the true variational shape from surface tension is out of scope.
Shapes are boolean occupancy grids at a fixed resolution of
``cells_per_unit`` raster cells per lattice unit, anchored on the raster
grid so translations by lattice vectors are exact.

Raster convention: a lattice site occupies its closed unit cell, and the
width-l neighborhood of a cluster extends l beyond those cells, so a
singleton fattened by l rasterizes to a cube of side 2l + 1.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .census import Cluster, PointField

DEFAULT_CELLS_PER_UNIT = 16


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
        runs = []
        current, length = False, 0
        for v in flat:
            if bool(v) == current:
                length += 1
            else:
                runs.append(length)
                current, length = bool(v), 1
        runs.append(length)
        body = struct.pack(f"<I{len(runs)}Q", len(runs), *runs)
        return head + body

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
        flat = np.zeros(size, dtype=bool)
        pos, val = 0, False
        for r in runs:
            if val:
                flat[pos:pos + r] = True
            pos += r
            val = not val
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
    new = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=bool)
    it = np.ndindex(*new.shape)
    for idx in it:
        center = [(l + i + 0.5) / cpu for l, i in zip(lo, idx)]
        new[idx] = shape.contains_point([c / s for c in center])
    return ShapeMask(cpu, tuple(lo), new)


def fatten(sites, width: int,
           cells_per_unit: int = DEFAULT_CELLS_PER_UNIT) -> ShapeMask:
    """Max-metric neighborhood of width ``width`` around the cluster's unit
    cells [s - 1/2, s + 1/2]^d, rasterized; a singleton fattened by w is a
    cube of side 2w + 1."""
    if width < 0:
        raise ValueError("width must be >= 0")
    if cells_per_unit % 2:
        raise ValueError("cells_per_unit must be even")
    sites = list(sites)
    d = len(sites[0])
    cpu = cells_per_unit
    half = cpu // 2
    lo = [min(s[k] for s in sites) - width for k in range(d)]
    hi = [max(s[k] for s in sites) + width for k in range(d)]
    shape = tuple((h - l + 1) * cpu for l, h in zip(lo, hi))
    grid = np.zeros(shape, dtype=bool)
    for s in sites:
        sl = tuple(slice((s[k] - width - lo[k]) * cpu,
                         (s[k] + width + 1 - lo[k]) * cpu)
                   for k in range(d))
        grid[sl] = True
    return ShapeMask(cpu, tuple(l * cpu - half for l in lo), grid)


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


def symmetric_difference_stat(centers: PointField, clusters, shape: ShapeMask,
                              n: int, width: int, delta: float) -> ShapeDiagnostic:
    """Volume of (union of the shape translated to each center) symmetric-
    difference (1/n times the union of fattened qualifying clusters).

    Clusters may stick out of the sampling box; their raster mass is kept.
    """
    cpu = shape.cells_per_unit
    d = shape.d
    box = centers.box
    center_sites = [box.sites[i] for i in np.flatnonzero(centers.field)]
    site_sets = [c.sites if isinstance(c, Cluster) else c for c in clusters]

    masks_a = []
    for x in center_sites:
        masks_a.append(ShapeMask(
            cpu, tuple(l + xi * cpu for l, xi in zip(shape.lower_cells, x)),
            shape.grid))
    masks_b = [_scaled_fattened(s, n, width, cpu) for s in site_sets]
    all_masks = masks_a + masks_b
    if not all_masks:
        return ShapeDiagnostic(n, 0.0, 0, delta, cpu)
    cpu2, lo, shp = _common_window(all_masks)
    ga = np.zeros(shp, dtype=bool)
    gb = np.zeros(shp, dtype=bool)
    for m in masks_a:
        _paint(ga, lo, m)
    for m in masks_b:
        _paint(gb, lo, m)
    vol = float((ga ^ gb).sum()) / cpu ** d
    return ShapeDiagnostic(n, vol, len(center_sites), delta, cpu)


def _scaled_fattened(sites, n: int, width: int, cpu: int) -> ShapeMask:
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
    return ShapeMask(cpu, tuple(lo_cell), grid)


def empirical_shape(cluster_sets, n: int,
                    cells_per_unit: int = DEFAULT_CELLS_PER_UNIT,
                    min_count: int = 20) -> ShapeMask:
    """Candidate droplet shape: average occupancy of qualifying clusters,
    re-centered at their mass centers and scaled to unit volume
    (coordinates multiplied by |C|^(-1/d)), thresholded at 1/2."""
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
    return ShapeMask(cpu, (-half,) * d, occ >= 0.5)
