"""Two independent chains, site coloring, and boundary-influence probes.

Running two independent samples (possibly under different boundary
conditions) on the same box, a site is white when every incident in-box
bond is open in both samples, black otherwise.  The black star-cluster
grown from the box boundary, together with its interior boundary D, either
reaches the probe region Gamma or exposes a white separating layer; the
event K that it misses Gamma forces the two samples to agree in law on
Gamma, so 1 - P(K) bounds any boundary-condition influence there.

Sets are bool site masks, and pairs stack into one (pairs, *sides) array.
The black cluster is the components of (black sites | boundary) that meet
the boundary under the 3^d block, the reach the components of its
complement that meet Gamma under the cross (one ``fk.site_components``
labeling of the stack each), and D the reach within one star step of the
black cluster.  The functions on one pair run on a stack of one.

Boundary sites are colored from in-box bonds only: the out-of-box bonds do
not exist in the finite setting, and reports flag this reading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fk import (BondConfig, BoundaryCondition, FKParams, bond_axes,
                 sample_states, site_components)
from .lattice import Box, Site, set_distance


@dataclass
class Coloring:
    box: Box
    white: np.ndarray  # bool per site


def _white(box: Box, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(pairs, *sides) white masks of two (pairs, n_bonds) state stacks."""
    bad = (s1 & s2) == 0
    black = np.zeros((len(bad),) + box.sides, dtype=bool)
    for _, lo, hi, order in bond_axes(box):
        black[(slice(None),) + lo] |= bad[:, order]
        black[(slice(None),) + hi] |= bad[:, order]
    return ~black


def color_sites(c1: BondConfig, c2: BondConfig) -> Coloring:
    """White iff every incident in-box bond is open in both configurations;
    symmetric in the two arguments."""
    if c1.box != c2.box:
        raise ValueError("configurations live on different boxes")
    box = c1.box
    return Coloring(box, _white(box, c1.state[None], c2.state[None]
                                ).reshape(-1))


def _mask(box: Box, sites) -> np.ndarray:
    """(*sides) mask of the given sites that lie in the box."""
    m = np.zeros(box.n_sites, dtype=bool)
    m[[box.site_index(s) for s in sites if box.contains(s)]] = True
    return m.reshape(box.sides)


def _boundary(box: Box) -> np.ndarray:
    """(*sides) mask of the boundary sites."""
    m = np.zeros(box.n_sites, dtype=bool)
    m[box.boundary_indices] = True
    return m.reshape(box.sides)


def _dilate(masks: np.ndarray, star: bool) -> np.ndarray:
    """The sites of each mask of a stack and their cross (or, with
    ``star``, 3^d block) neighbours in the box."""
    d = masks.ndim - 1
    structure = ndimage.generate_binary_structure(d, d if star else 1)
    return ndimage.binary_dilation(masks, structure[None])


def _black(white: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V together with every black site joined to V by a star-path through
    black sites, in each pair of a stack."""
    return site_components(~white | v, v, star=True)


def _shield(black: np.ndarray, gamma: np.ndarray):
    """(reach, D, K) of a stack of black clusters: the reach is the set of
    sites with an ordinary path to Gamma avoiding the black cluster, D the
    reach within one star step of it."""
    reach = site_components(~black, gamma)
    d = reach & _dilate(black, star=True)
    meets = ((black | d) & gamma).reshape(len(black), -1).any(axis=1)
    return reach, d, ~meets


def black_cluster(coloring: Coloring, v_sites) -> frozenset[Site]:
    """V together with every black site joined to V by a star-path through
    black sites."""
    box = coloring.box
    v_sites = set(v_sites)
    for s in v_sites:
        if not box.contains(s):
            raise ValueError(f"seed site {s} outside the box")
    white = coloring.white.reshape((1,) + box.sides)
    return box.sites_in(_black(white, _mask(box, v_sites)))


def interior_boundary(coloring: Coloring, black: frozenset[Site],
                      gamma) -> frozenset[Site]:
    """Sites outside the black cluster, star-adjacent to it, with an
    ordinary path to Gamma avoiding it."""
    box = coloring.box
    black = _mask(box, black)[None]
    return box.sites_in(_shield(black, _mask(box, gamma))[1])


@dataclass
class CouplingOutcome:
    """One pair's analysis; the sets are bool masks per site, row-major."""

    box: Box
    gamma: np.ndarray
    coloring: Coloring
    black: np.ndarray
    interior_bd: np.ndarray
    interior: np.ndarray
    k: bool

    def to_dict(self) -> dict:
        # row-major site order is the sorted order of the sites
        def sites(mask):
            return (self.box.offsets[mask] + self.box.lower).tolist()
        return {
            "gamma": sites(self.gamma),
            "white_sites": sites(self.coloring.white),
            "black_cluster": sites(self.black),
            "interior_boundary": sites(self.interior_bd),
            "k": self.k,
        }


def k_event(coloring: Coloring, gamma) -> bool:
    """(black cluster of the boundary, plus its interior boundary) misses
    Gamma."""
    return analyze_pair_coloring(coloring, gamma).k


def analyze_pair_coloring(coloring: Coloring, gamma) -> CouplingOutcome:
    box = coloring.box
    gamma = frozenset(gamma)
    if not gamma or not all(box.contains(g) for g in gamma):
        raise ValueError("Gamma must be a nonempty subset of the box")
    g = _mask(box, gamma)
    white = coloring.white.reshape((1,) + box.sides)
    black = _black(white, _boundary(box))
    reach, d, k = _shield(black, g)
    return CouplingOutcome(box, g.reshape(-1), coloring, black.reshape(-1),
                           d.reshape(-1), reach.reshape(-1), bool(k[0]))


def analyze_pair(c1: BondConfig, c2: BondConfig, gamma) -> CouplingOutcome:
    return analyze_pair_coloring(color_sites(c1, c2), gamma)


# ---------------------------------------------------------------------------
# structural facts that hold on the event K


@dataclass
class ClaimsCheck:
    k: bool
    d_connected_ordinary: bool
    d_connected_star: bool
    d_all_white: bool
    d_outside_determined: bool
    interior_bd_adjacent: bool

    @property
    def passed(self) -> bool:
        """Connectivity may hold in either notion; which one is recorded."""
        return (self.d_all_white and self.d_outside_determined
                and self.interior_bd_adjacent
                and (self.d_connected_ordinary or self.d_connected_star))


def check_claims(outcome: CouplingOutcome) -> ClaimsCheck:
    """Verify, on a K-outcome, the structural facts the coupling relies on:

    - D is connected (ordinary and star connectivity both tested): it is
      the component of its first site;
    - every site of D is white;
    - D is determined by the colors outside the interior region I
      (recomputed with I forced white, nothing changes);
    - every boundary site of I (a site of I with an in-box neighbour
      outside I) is in D or ordinary-adjacent to D.
    """
    box = outcome.box
    shape = (1,) + box.sides
    white, gamma, black, d, interior = (
        m.reshape(shape) for m in (outcome.coloring.white, outcome.gamma,
                                   outcome.black, outcome.interior_bd,
                                   outcome.interior))
    first = d & (np.cumsum(d) == 1).reshape(shape)
    conn_o, conn_s = (bool((site_components(d, first, star) == d).all())
                      for star in (False, True))
    all_white = not (d & ~white).any()
    black2 = _black(white | interior, _boundary(box))
    d2 = _shield(black2, gamma)[1]
    determined = bool((black2 == black).all() and (d2 == d).all())
    edge = interior & _dilate(~interior, star=False)
    adj = not (edge & ~_dilate(d, star=False)).any()
    return ClaimsCheck(outcome.k, conn_o, conn_s, all_white, determined, adj)


# ---------------------------------------------------------------------------
# boundary-influence decay table


@dataclass
class InfluenceRow:
    gamma_label: str
    distance: int
    diff: float
    diff_se: float
    p_k: float
    p_k_se: float
    bound_ok: bool


@dataclass
class InfluenceTable:
    rows: list[InfluenceRow]
    c_hat: float
    fit_r2: float
    boundary_size: int
    event_name: str
    note: str = "boundary sites colored from in-box bonds only"

    def to_csv(self, fh) -> None:
        fh.write("gamma,distance,diff,diff_se,p_k,p_k_se,bound_ok\n")
        for r in self.rows:
            fh.write(f"{r.gamma_label},{r.distance},{r.diff:.8g},"
                     f"{r.diff_se:.3g},{r.p_k:.8g},{r.p_k_se:.3g},"
                     f"{int(r.bound_ok)}\n")
        fh.write(f"# c_hat={self.c_hat:.6g} r2={self.fit_r2:.4g} "
                 f"boundary={self.boundary_size} event={self.event_name}\n")


def influence_decay(params: FKParams, box: Box, gammas: list[tuple[str, set]],
                    eta: BoundaryCondition, xi: BoundaryCondition,
                    event, reps: int, thinning: int = 5,
                    burn_in: int | None = None, seed=0,
                    event_name: str = "event",
                    states: tuple | None = None) -> InfluenceTable:
    """Measured boundary-condition influence on an event supported in Gamma
    against the coupling bound 1 - P(K), for a shrinking schedule of Gamma.

    The same two sample sets (one per boundary condition) serve every row:
    neither the coloring nor the black cluster depends on Gamma, so the
    stack is colored and its black clusters labeled once, and each Gamma
    costs one reach labeling of the stack.  Pass ``states`` to reuse
    pre-drawn (eta, xi) state matrices.
    """
    if states is not None:
        states_eta, states_xi = states
        reps = len(states_eta)
    else:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        ss = seed.spawn(2)
        states_eta = sample_states(FKParams(params.p, params.q, eta), box,
                                   reps, thinning, burn_in, ss[0])
        states_xi = sample_states(FKParams(params.p, params.q, xi), box,
                                  reps, thinning, burn_in, ss[1])
    ind_eta = np.array([event(BondConfig(box, s)) for s in states_eta], dtype=float)
    ind_xi = np.array([event(BondConfig(box, s)) for s in states_xi], dtype=float)

    black = _black(_white(box, states_eta, states_xi), _boundary(box))
    rows = []
    for label, gamma in gammas:
        gamma = frozenset(gamma)
        ks = _shield(black, _mask(box, gamma))[2].astype(float)
        p_k = float(ks.mean())
        p_k_se = float(ks.std(ddof=1) / math.sqrt(reps))
        diff = abs(float(ind_eta.mean() - ind_xi.mean()))
        se = math.sqrt(ind_eta.var(ddof=1) / reps + ind_xi.var(ddof=1) / reps)
        dist = set_distance(gamma, box.boundary)
        bound_ok = diff <= (1.0 - p_k) + 3.0 * math.sqrt(se ** 2 + p_k_se ** 2)
        rows.append(InfluenceRow(label, dist, diff, se, p_k, p_k_se, bound_ok))

    c_hat, r2 = _fit_fixed_intercept(rows, 2 * len(box.boundary))
    return InfluenceTable(rows, c_hat, r2, len(box.boundary),
                          event_name)


def _fit_fixed_intercept(rows, amplitude: float) -> tuple[float, float]:
    """Least squares of ln diff = ln(amplitude) - c * distance; zero-valued
    differences are dropped."""
    pts = [(r.distance, r.diff) for r in rows if r.diff > 0]
    if len(pts) < 2:
        return float("nan"), float("nan")
    d = np.array([p[0] for p in pts], dtype=float)
    y = np.array([math.log(p[1]) for p in pts])
    target = math.log(amplitude) - y
    c = float((d @ target) / (d @ d))
    resid = y - (math.log(amplitude) - c * d)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else float("nan")
    return c, r2


# ---------------------------------------------------------------------------
# empirical mixing-coefficient scan


@dataclass
class MixingRow:
    separation: int
    weak: float          # max |P(E|F) - P(E)| over single-bond cylinders
    weak_se: float
    ratio: float         # max |P(EF)/(P(E)P(F)) - 1|
    ratio_se: float
    skipped: bool = False


@dataclass
class MixingTable:
    rows: list[MixingRow]
    mu_hat: float
    mu1_hat: float
    event_family: str = "single-bond cylinders"

    def to_csv(self, fh) -> None:
        fh.write("separation,weak,weak_se,ratio,ratio_se,skipped\n")
        for r in self.rows:
            fh.write(f"{r.separation},{r.weak:.8g},{r.weak_se:.3g},"
                     f"{r.ratio:.8g},{r.ratio_se:.3g},{int(r.skipped)}\n")
        fh.write(f"# mu_hat={self.mu_hat:.6g} mu1_hat={self.mu1_hat:.6g} "
                 f"family={self.event_family}\n")


def _pair_coefficients(col_e: np.ndarray, col_f: np.ndarray):
    """Weak and ratio deviations with delta-method errors for one pair of
    binary columns, maximized over the four open/closed cylinder pairs."""
    n = len(col_e)
    best = {"weak": (0.0, 0.0), "ratio": (0.0, 0.0)}
    usable = False
    for se_open in (True, False):
        e = col_e if se_open else 1 - col_e
        for sf_open in (True, False):
            f = col_f if sf_open else 1 - col_f
            pe, pf = e.mean(), f.mean()
            pef = (e * f).mean()
            if pf == 0.0 or pe == 0.0:
                continue
            usable = True
            cov_ef = pef - pe * pf
            # conditional difference D = pef/pf - pe
            dval = abs(pef / pf - pe)
            ga = 1.0 / pf
            gb = -1.0
            gc = -pef / pf ** 2
            var = _quad_form(pef, pe, pf, cov_ef, ga, gb, gc, n)
            if dval > best["weak"][0]:
                best["weak"] = (dval, math.sqrt(max(var, 0.0)))
            # ratio deviation R = pef/(pe pf) - 1
            rval = abs(pef / (pe * pf) - 1.0)
            ga = 1.0 / (pe * pf)
            gb = -pef / (pe ** 2 * pf)
            gc = -pef / (pe * pf ** 2)
            var = _quad_form(pef, pe, pf, cov_ef, ga, gb, gc, n)
            if rval > best["ratio"][0]:
                best["ratio"] = (rval, math.sqrt(max(var, 0.0)))
    return best, usable


def _quad_form(pef, pe, pf, cov_ef, ga, gb, gc, n) -> float:
    """Delta-method variance of g(pef, pe, pf) under the multinomial
    covariance of the three indicator means."""
    v_a = pef * (1 - pef)
    v_b = pe * (1 - pe)
    v_c = pf * (1 - pf)
    c_ab = pef * (1 - pe)
    c_ac = pef * (1 - pf)
    c_bc = cov_ef
    return (ga * ga * v_a + gb * gb * v_b + gc * gc * v_c
            + 2 * ga * gb * c_ab + 2 * ga * gc * c_ac
            + 2 * gb * gc * c_bc) / n


def mixing_scan(states: np.ndarray, box: Box,
                region_pairs: list[tuple[list, list]]) -> MixingTable:
    """Empirical mixing coefficients over region pairs from sampled bond
    states, restricted to single-bond cylinder events (the full sigma-field
    supremum is not Monte Carlo estimable; compare exact_ratio_mixing on
    enumerable boxes)."""
    rows = []
    for bonds1, bonds2 in region_pairs:
        i1 = [box.bond_index[b] if not isinstance(b, int) else b for b in bonds1]
        i2 = [box.bond_index[b] if not isinstance(b, int) else b for b in bonds2]
        sep = _region_separation(box, i1, i2)
        best = {"weak": (0.0, 0.0), "ratio": (0.0, 0.0)}
        usable = False
        for a in i1:
            for b in i2:
                res, ok = _pair_coefficients(states[:, a].astype(float),
                                             states[:, b].astype(float))
                usable = usable or ok
                for key in best:
                    if res[key][0] > best[key][0]:
                        best[key] = res[key]
        rows.append(MixingRow(sep, best["weak"][0], best["weak"][1],
                              best["ratio"][0], best["ratio"][1],
                              skipped=not usable))
    mu = _fit_exponent([(r.separation, r.weak) for r in rows if not r.skipped])
    mu1 = _fit_exponent([(r.separation, r.ratio) for r in rows if not r.skipped])
    return MixingTable(rows, mu, mu1)


def _region_separation(box: Box, bonds1, bonds2) -> int:
    s1 = {box.bonds[i][0] for i in bonds1} | {box.bonds[i][1] for i in bonds1}
    s2 = {box.bonds[i][0] for i in bonds2} | {box.bonds[i][1] for i in bonds2}
    return set_distance(s1, s2)


def _fit_exponent(pts) -> float:
    pts = [(s, v) for s, v in pts if v > 0]
    if len(pts) < 2:
        return float("nan")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([-math.log(p[1]) for p in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope
