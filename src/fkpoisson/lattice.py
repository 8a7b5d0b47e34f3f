"""Finite rectangular boxes of Z^d: sites, bonds, boundaries, distances.

Sites are plain tuples of ints.  A bond joins two nearest neighbours (L1
distance 1) and is stored as an ordered pair ``(a, b)`` where ``b = a + e_k``
for the bond's axis ``k``; this makes bonds hashable and canonical.

Site and bond enumeration order is row-major (last coordinate fastest),
matching C-order numpy arrays of shape ``box.sides``.  Serialized
configurations rely on this order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

Site = tuple[int, ...]
Bond = tuple[Site, Site]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``prod_i [lower_i, lower_i + sides_i - 1]`` in Z^d."""

    lower: Site
    sides: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.sides):
            raise ValueError("lower and sides must have equal dimension")
        if len(self.sides) < 1:
            raise ValueError("dimension must be >= 1")
        if any(s < 1 for s in self.sides):
            raise ValueError(f"sides must be positive, got {self.sides}")

    @staticmethod
    def cube(d: int, side: int, lower: int = 0) -> "Box":
        return Box((lower,) * d, (side,) * d)

    @staticmethod
    def centered(d: int, side: int) -> "Box":
        """Box of odd side centered at the origin."""
        if side % 2 == 0:
            raise ValueError("centered box needs an odd side")
        h = side // 2
        return Box((-h,) * d, (side,) * d)

    @property
    def d(self) -> int:
        return len(self.sides)

    @property
    def upper(self) -> Site:
        return tuple(lo + s - 1 for lo, s in zip(self.lower, self.sides))

    @property
    def n_sites(self) -> int:
        n = 1
        for s in self.sides:
            n *= s
        return n

    @property
    def center(self) -> Site:
        return tuple(lo + (s - 1) // 2 for lo, s in zip(self.lower, self.sides))

    def contains(self, x: Site) -> bool:
        return all(lo <= xi <= hi for xi, lo, hi in zip(x, self.lower, self.upper))

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        ranges = [range(lo, lo + s) for lo, s in zip(self.lower, self.sides)]
        return tuple(product(*ranges))

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.d
        for i in range(self.d - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sides[i + 1]
        return tuple(strides)

    def site_index(self, x: Site) -> int:
        """Row-major linear index of a site (last coordinate fastest)."""
        if not self.contains(x):
            raise KeyError(f"site {x} outside box")
        return sum((xi - lo) * st for xi, lo, st in zip(x, self.lower, self._strides))

    @cached_property
    def offsets(self) -> np.ndarray:
        """(n_sites, d) int64 offsets of the sites from the lower corner,
        in row-major site order."""
        return np.indices(self.sides, dtype=np.int64).reshape(self.d, -1).T

    @cached_property
    def bond_sites(self) -> np.ndarray:
        """(n_bonds, 2) int array of endpoint site indices, in canonical
        bond order.

        Order: per site (row-major), per axis 0..d-1, the bond to the
        +e_axis neighbour when it lies in the box.
        """
        inner = self.offsets < np.array(self.sides) - 1
        site, axis = np.nonzero(inner)
        strides = np.array(self._strides, dtype=np.int64)
        return np.stack([site, site + strides[axis]], axis=1)

    @cached_property
    def n_bonds(self) -> int:
        return sum((s - 1) * (self.n_sites // s) for s in self.sides)

    @cached_property
    def bonds(self) -> tuple[Bond, ...]:
        """All bonds with both endpoints inside, in canonical order (see
        ``bond_sites``), as pairs of sites."""
        sites = self.sites
        return tuple((sites[a], sites[b]) for a, b in self.bond_sites.tolist())

    @cached_property
    def bond_index(self) -> dict[Bond, int]:
        idx = {}
        for i, (a, b) in enumerate(self.bonds):
            idx[(a, b)] = i
            idx[(b, a)] = i
        return idx

    @cached_property
    def site_bonds(self) -> tuple[tuple[int, ...], ...]:
        """Per site, the indices of its incident bonds, ascending."""
        ends = self.bond_sites.reshape(-1)
        bond = (np.argsort(ends, kind="stable") // 2).tolist()
        stops = np.cumsum(np.bincount(ends, minlength=self.n_sites)).tolist()
        return tuple(tuple(bond[a:b]) for a, b in zip([0] + stops, stops))

    @cached_property
    def boundary_indices(self) -> np.ndarray:
        """Row-major indices of the sites with at least one nearest
        neighbour outside the box, ascending."""
        off = self.offsets
        return np.flatnonzero(((off == 0)
                               | (off == np.array(self.sides) - 1)).any(axis=1))

    @cached_property
    def boundary(self) -> frozenset[Site]:
        """Sites with at least one nearest neighbour outside the box."""
        sites = self.sites
        return frozenset(sites[i] for i in self.boundary_indices.tolist())

    @cached_property
    def doubled_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grid of ``2 * sides - 1`` cells on which site x sits at cell
        ``2 * (x - lower)`` and each bond at the cell between its endpoints:
        (read-only bool grid true at the site cells, flat cell of each site,
        flat cell of each bond)."""
        shape = tuple(2 * s - 1 for s in self.sides)
        site_cells = np.ravel_multi_index(2 * self.offsets.T, shape)
        bs = self.bond_sites
        bond_cells = (site_cells[bs[:, 0]] + site_cells[bs[:, 1]]) // 2
        grid = np.zeros(shape, dtype=bool)
        grid.flat[site_cells] = True
        grid.flags.writeable = False
        return grid, site_cells, bond_cells

    def sites_in(self, mask: np.ndarray) -> frozenset[Site]:
        """The sites where a row-major bool mask over the sites is true."""
        sites = self.sites
        return frozenset(sites[i] for i in np.flatnonzero(mask).tolist())


def l1(x: Site, y: Site) -> int:
    return sum(abs(a - b) for a, b in zip(x, y))


def star_neighbors(x: Site) -> set[Site]:
    """The 3^d - 1 sites at L-infinity distance exactly 1 from x."""
    d = len(x)
    out = set()
    for off in product((-1, 0, 1), repeat=d):
        if any(off):
            out.add(tuple(xi + oi for xi, oi in zip(x, off)))
    return out


def set_distance(gamma, delta) -> int:
    """Minimum L1 distance over all pairs (x, y) with x in gamma, y in delta."""
    gamma = list(gamma)
    delta = list(delta)
    if not gamma or not delta:
        raise ValueError("set_distance undefined for empty sets")
    return min(l1(x, y) for x in gamma for y in delta)


def pair_sort_key(pair: tuple[Site, Site]) -> tuple:
    """Total-order key for unordered site pairs.

    Primary key is the L1 distance of the pair; ties are broken
    lexicographically on the concatenated coordinates after putting the
    lexicographically smaller site first.
    """
    u, v = pair
    if v < u:
        u, v = v, u
    return (l1(u, v),) + u + v


def pair_order(a: tuple[Site, Site], b: tuple[Site, Site]) -> int:
    """-1, 0 or 1 comparing two site pairs under pair_sort_key."""
    ka, kb = pair_sort_key(a), pair_sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0
