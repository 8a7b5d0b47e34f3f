import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkpoisson
from fkpoisson import oracle
from fkpoisson.fk import (FREE, WIRED, BondConfig, BoundaryCondition,
                          FKParams, cluster_count, config_from_bytes,
                          config_to_bytes, finite_energy_floor, label_sites,
                          log_weight, sample, sample_states, site_components,
                          sweep, swendsen_wang_step, weight)
from fkpoisson.coupling import Coloring
from fkpoisson.lattice import Box
from reference_labelers import (black_cluster_search, heatbath_step,
                                label_clusters_bfs, reachable_avoiding)

SINGLE = Box((0,), (2,))


def all_configs(box):
    for bits in itertools.product((0, 1), repeat=box.n_bonds):
        yield BondConfig(box, np.array(bits, dtype=np.uint8))


def test_cluster_count_examples():
    b33 = Box.cube(2, 3)
    assert cluster_count(BondConfig.all_closed(b33), FREE) == 9
    assert cluster_count(BondConfig.all_open(b33), FREE) == 1
    assert cluster_count(BondConfig.all_open(b33), WIRED) == 1
    # wired merges the 8 boundary sites; the center stays separate
    assert cluster_count(BondConfig.all_closed(b33), WIRED) == 2
    # cross-check against a hand identification plus component search
    merged = cluster_count(
        BondConfig.all_closed(b33),
        BoundaryCondition.partition([set(b33.boundary)]))
    assert merged == 2


@st.composite
def boundaries(draw, box):
    """free, wired, or a random partition of the box boundary."""
    kind = draw(st.sampled_from(["free", "wired", "partition"]))
    if kind != "partition":
        return BoundaryCondition(kind)
    n_classes = draw(st.integers(1, len(box.boundary)))
    classes = [set() for _ in range(n_classes)]
    for site in sorted(box.boundary):
        classes[draw(st.integers(0, n_classes - 1))].add(site)
    return BoundaryCondition.partition(c for c in classes if c)


@st.composite
def labeled_batches(draw):
    """A box of dimension 1-3 (lower corner possibly negative), a boundary
    condition and a batch of 1-3 random states."""
    d = draw(st.integers(1, 3))
    lower = tuple(draw(st.integers(-4, 3)) for _ in range(d))
    sides = tuple(draw(st.integers(1, (7, 5, 3)[d - 1])) for _ in range(d))
    box = Box(lower, sides)
    bc = draw(boundaries(box))
    n_configs = draw(st.integers(1, 3))
    bits = draw(st.lists(st.booleans(), min_size=n_configs * box.n_bonds,
                         max_size=n_configs * box.n_bonds))
    states = np.array(bits, dtype=np.uint8).reshape(n_configs, box.n_bonds)
    return box, bc, states


@settings(max_examples=150, deadline=None)
@given(labeled_batches())
def test_label_sites_matches_graph_search(batch):
    box, bc, states = batch
    labels, n = label_sites(box, states, bc)
    assert labels.shape == (len(states), box.n_sites)
    offset = 0
    for state, row in zip(states, labels):
        cs = label_clusters_bfs(BondConfig(box, state), bc)
        # same clusters, numbered in order of their smallest site, each
        # configuration continuing where the one before it stopped
        expect = [offset + cs.site_cluster[x] for x in box.sites]
        assert row.tolist() == expect
        offset += len(cs.clusters)
    assert n == offset


@pytest.mark.parametrize("box", [Box((0,), (11,)), Box((0, 0), (7, 6)),
                                 Box((-2, 0, 1), (5, 6, 5))],
                         ids=lambda b: f"d{b.d}")
def test_site_components_match_graph_search(box):
    def site_set(mask):
        return frozenset(s for s, m in zip(box.sites, mask) if m)

    rng = np.random.default_rng(box.d)
    masks = rng.random((12, box.n_sites)) < 0.55
    seeds = rng.random(box.n_sites) < 0.1
    for star in (False, True):
        got = site_components(masks.reshape((12,) + box.sides),
                              seeds.reshape(box.sides), star)
        for mask, row in zip(masks, got.reshape(12, -1)):
            sites = site_set(mask)
            if star:
                expect = black_cluster_search(Coloring(box, ~mask),
                                              site_set(seeds & mask))
            else:
                expect = reachable_avoiding(
                    box, frozenset(box.sites) - sites, site_set(seeds))
            assert site_set(row) == expect


def test_ndimage_label_is_called_only_in_fk():
    """One labeler: every labeling in the package goes through fk, and
    the per-configuration ClusterSet view serves the surgery only."""
    package = Path(fkpoisson.__file__).parent
    for call, modules in (("ndimage.label(", ["fk.py"]),
                          ("label_clusters(", ["census.py", "surgery.py"])):
        callers = sorted(p.name for p in package.glob("*.py")
                         if call in p.read_text())
        assert callers == modules, call


def test_partition_validation():
    b22 = Box.cube(2, 2)
    bad = BoundaryCondition.partition([{(0, 0)}])  # does not cover
    with pytest.raises(ValueError):
        cluster_count(BondConfig.all_open(b22), bad)


def test_weight_single_bond():
    params = FKParams(0.5, 2.0)
    assert weight(BondConfig.all_open(SINGLE), params) == pytest.approx(1.0)
    assert weight(BondConfig.all_closed(SINGLE), params) == pytest.approx(2.0)


def test_weight_extreme_p():
    params = FKParams(1.0, 2.0)
    assert log_weight(BondConfig.all_closed(SINGLE), params) == -math.inf
    assert log_weight(BondConfig.all_open(SINGLE), params) > -math.inf


def test_weight_one_flip_ratio_matches_recount():
    box = Box.cube(2, 2)
    params = FKParams(0.3, 1.7)
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = (rng.random(box.n_bonds) < 0.5).astype(np.uint8)
        cfg = BondConfig(box, state)
        i = int(rng.integers(box.n_bonds))
        flipped = cfg.copy()
        flipped.state[i] ^= 1
        lr = log_weight(flipped, params) - log_weight(cfg, params)
        dcl = cluster_count(flipped, FREE) - cluster_count(cfg, FREE)
        sign = 1 if flipped.state[i] else -1
        expect = sign * math.log(params.p / (1 - params.p)) + dcl * math.log(params.q)
        assert lr == pytest.approx(expect, abs=1e-12)


def test_finite_energy_floor_values_and_guarantee():
    assert finite_energy_floor(FKParams(0.5, 1.0)) == pytest.approx(1.0)
    # direct case analysis over both flip directions and both cluster-count
    # changes gives min(p/( (1-p) q ), (1-p)/p) >= the quoted floor
    assert finite_energy_floor(FKParams(0.5, 2.0)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        finite_energy_floor(FKParams(1.0, 2.0))
    box = Box.cube(2, 2)
    for p, q in [(0.3, 1.0), (0.5, 2.0), (0.8, 3.5)]:
        params = FKParams(p, q)
        delta = finite_energy_floor(params)
        for cfg in all_configs(box):
            for i in range(box.n_bonds):
                other = cfg.copy()
                other.state[i] ^= 1
                ratio = math.exp(log_weight(cfg, params)
                                 - log_weight(other, params))
                assert ratio >= delta - 1e-12


def exact_open_probability(box, params, bond_idx, state):
    """Conditional P(bond open | rest) from the two weights."""
    o = state.copy(); o[bond_idx] = 1
    c = state.copy(); c[bond_idx] = 0
    wo = weight(BondConfig(box, o), params)
    wc = weight(BondConfig(box, c), params)
    return wo / (wo + wc)


def test_heatbath_conditional_law():
    params = FKParams(0.5, 2.0)
    # single bond, free: exact enumeration gives open probability 1/3
    p_open = exact_open_probability(SINGLE, params, 0,
                                    np.zeros(1, dtype=np.uint8))
    assert p_open == pytest.approx(1.0 / 3.0)
    cfg = BondConfig.all_closed(SINGLE)
    assert heatbath_step(cfg, params, SINGLE.bonds[0], 0.33).state[0] == 1
    assert heatbath_step(cfg, params, SINGLE.bonds[0], 0.34).state[0] == 0

    # q = 1: open probability is p regardless of connectivity
    params1 = FKParams(0.7, 1.0)
    box = Box.cube(2, 2)
    for cfg in all_configs(box):
        for i in range(box.n_bonds):
            assert exact_open_probability(box, params1, i, cfg.state) \
                == pytest.approx(0.7)

    # endpoints joined by an open detour: probability p
    box = Box.cube(2, 2)
    params = FKParams(0.6, 3.0)
    detour = BondConfig.all_open(box)
    i = 0
    detour.state[i] = 0
    assert exact_open_probability(box, params, i, detour.state) \
        == pytest.approx(0.6)


def test_heatbath_detailed_balance():
    # heat-bath conditional probabilities equal the exact weight ratios on
    # every single-bond flip of every configuration
    box = Box.cube(2, 2)
    params = FKParams(0.45, 1.6)
    for cfg in all_configs(box):
        for i in range(box.n_bonds):
            p_exact = exact_open_probability(box, params, i, cfg.state)
            hi = heatbath_step(cfg, params, box.bonds[i], p_exact - 1e-9)
            lo = heatbath_step(cfg, params, box.bonds[i], p_exact + 1e-9)
            assert hi.state[i] == 1 and lo.state[i] == 0


def test_swendsen_wang_q1_is_product():
    box = Box.cube(2, 3)
    params = FKParams(0.4, 1.0)
    rng = np.random.default_rng(11)
    start = BondConfig.all_closed(box)
    hits = np.zeros(box.n_bonds)
    n = 4000
    for _ in range(n):
        out = swendsen_wang_step(start, params, rng)
        hits += out.state
    freq = hits / n
    se = math.sqrt(0.4 * 0.6 / n)
    assert np.all(np.abs(freq - 0.4) < 4 * se)


def test_swendsen_wang_p1_rebonds_everything():
    box = Box.cube(2, 2)
    params = FKParams(1.0, 2.0)
    rng = np.random.default_rng(0)
    out = swendsen_wang_step(BondConfig.all_open(box), params, rng)
    assert out.open_count() == box.n_bonds


def test_swendsen_wang_requires_integer_q():
    with pytest.raises(ValueError):
        swendsen_wang_step(BondConfig.all_open(SINGLE), FKParams(0.5, 1.5),
                           np.random.default_rng(0))


class ScriptedRng:
    """Stands in for a numpy Generator: each ``integers`` or ``random``
    call returns the next scripted array, which must have the asked size."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def _next(self, size):
        out = self.draws.pop(0)
        assert len(out) == size
        return out

    def integers(self, low, high, size):
        assert low == 0
        return self._next(size)

    def random(self, size):
        return self._next(size)


DIAGONALS = BoundaryCondition.partition([{(0, 0), (1, 1)},
                                         {(0, 1), (1, 0)}])


def kernel_matrix(box, params):
    """The transition matrix of one ``sweep`` on ``box``, enumerated over
    every configuration, every mark of its clusters and every outcome of
    the bond redraws, each weighted by its probability.  Configuration i
    has bond j open when bit j of i is set."""
    m = box.n_bonds
    p, q = params.p, params.q
    below, above = 0.0, 1.0 - 1e-9  # uniforms under and over p and 1/q
    redraws = [(np.where(opened, below, above),
                math.prod(p if b else 1.0 - p for b in opened))
               for opened in itertools.product((1, 0), repeat=m)]
    bits = 1 << np.arange(m)
    out = np.zeros((1 << m, 1 << m))
    for cfg in all_configs(box):
        x = cfg.state @ bits
        n = len(label_clusters_bfs(cfg, params.boundary).clusters)
        if params.integer_q:
            marks = [(np.array(c), q ** -n)
                     for c in itertools.product(range(int(q)), repeat=n)]
        else:
            marks = [(np.where(a, below, above),
                      math.prod(1.0 / q if on else 1.0 - 1.0 / q
                                for on in a))
                     for a in itertools.product((1, 0), repeat=n)]
        for mark, w_mark in marks:
            for fresh, w_fresh in redraws:
                rng = ScriptedRng(mark, fresh)
                y = sweep(cfg, params, rng).state @ bits
                assert not rng.draws
                out[x, y] += w_mark * w_fresh
    return out


@pytest.mark.parametrize("bc", [FREE, WIRED, DIAGONALS],
                         ids=["free", "wired", "diagonals"])
@pytest.mark.parametrize("q", [2.0, 3.0, 1.5])
def test_cluster_kernel_leaves_oracle_law_invariant(q, bc):
    # Swendsen-Wang at q = 2, 3 and Chayes-Machta at q = 1.5, the exact
    # one-step matrix of the sampler itself: every row is a law, the FK
    # measure is invariant, and the kernel is reversible
    box = Box.cube(2, 2)
    params = FKParams(0.6, q, bc)
    pi = oracle.enumerate_measure(box, params).probs
    P = kernel_matrix(box, params)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(pi @ P - pi).max() < 1e-12
    flow = pi[:, None] * P
    assert np.abs(flow - flow.T).max() < 1e-12


def box_and_boundaries(d):
    box = Box((-1,) * d, ((7,), (4, 5), (3, 2, 3))[d - 1])
    bsites = sorted(box.boundary)
    # in d = 1 the two end sites make two singleton classes
    thirds = BoundaryCondition.partition(
        [set(bsites[i::3]) for i in range(min(3, len(bsites)))])
    return box, (FREE, WIRED, thirds)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_chain_is_the_one_step_kernel(q, d):
    # sample_states keeps its chain in a bond grid and never calls sweep;
    # the two must still be one kernel drawing one stream
    box, boundaries = box_and_boundaries(d)
    n = 15
    for seed, bc in enumerate(boundaries):
        params = FKParams(0.55, q, bc)
        rng = np.random.default_rng(seed)
        config = BondConfig.all_open(box)
        steps = []
        for _ in range(n):
            config = sweep(config, params, rng)
            steps.append(config.state)
        chain = sample_states(params, box, n, thinning=1, burn_in=0,
                              seed=seed)
        assert chain.tobytes() == np.array(steps).tobytes()
        assert sample(params, box, n, seed) == config


def reference_sweep(state, box, params, rng):
    """The documented stream of one cluster sweep, over graph-search
    clusters in order of their smallest site and bonds in bond order."""
    cs = label_clusters_bfs(BondConfig(box, state), params.boundary)
    n = len(cs.clusters)
    label = np.array([cs.site_cluster[x] for x in box.sites])
    a, b = box.bond_sites.T
    if params.integer_q:
        colour = rng.integers(0, int(params.q), size=n)[label]
        redraw = colour[a] == colour[b]
    else:
        active = (rng.random(n) < 1.0 / params.q)[label]
        redraw = active[a] & active[b]
    fresh = rng.random(box.n_bonds) < params.p
    return np.where(redraw, fresh, state).astype(np.uint8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_chain_draws_the_documented_stream(q, d):
    box, (_, _, thirds) = box_and_boundaries(d)
    params = FKParams(0.55, q, thirds)
    rng = np.random.default_rng(7)
    state = np.ones(box.n_bonds, dtype=np.uint8)
    steps = []
    for _ in range(12):
        state = reference_sweep(state, box, params, rng)
        steps.append(state)
    chain = sample_states(params, box, 4, thinning=3, burn_in=0, seed=7)
    assert chain.tobytes() == np.array(steps[2::3]).tobytes()


def sampler_tv(params, box, seed, n=20_000):
    dist = oracle.enumerate_measure(box, params)
    states = sample_states(params, box, n, thinning=3, burn_in=100,
                           seed=seed)
    idx = states.astype(np.int64) @ (1 << np.arange(box.n_bonds))
    freq = np.bincount(idx, minlength=dist.n_configs) / n
    return float(np.abs(freq - dist.probs).sum())


def test_swendsen_wang_matches_oracle_glued_boundaries():
    # on a 2x2 box every site is a boundary site; 20000 draws put the
    # empirical TV of a correct sampler near 0.02, while a sweep that
    # ignored the gluing would sample the free measure, 0.69 (partition)
    # and 0.84 (wired) away
    box = Box.cube(2, 2)
    diagonals = BoundaryCondition.partition([{(0, 0), (1, 1)},
                                             {(0, 1), (1, 0)}])
    for bc, seed in ((WIRED, 31), (diagonals, 32)):
        params = FKParams(0.5, 3.0, bc)
        assert sampler_tv(params, box, seed) < 0.05
        free = oracle.enumerate_measure(box, FKParams(0.5, 3.0))
        glued = oracle.enumerate_measure(box, params)
        assert np.abs(free.probs - glued.probs).sum() > 0.5


def test_sample_deterministic():
    box = Box.cube(2, 3)
    a = sample(FKParams(0.5, 2.0), box, sweeps=20, seed=42)
    b = sample(FKParams(0.5, 2.0), box, sweeps=20, seed=42)
    assert a == b
    c = sample(FKParams(0.5, 1.5), box, sweeps=5, seed=7)
    d = sample(FKParams(0.5, 1.5), box, sweeps=5, seed=7)
    assert c == d


def test_bond_marginal_monotone_in_p():
    box = Box.cube(2, 2)
    means = []
    for p in (0.3, 0.5, 0.7, 0.9):
        states = sample_states(FKParams(p, 2.0), box, 1500, thinning=3,
                               burn_in=100, seed=123)
        means.append(states[:, 0].mean())
    ses = [math.sqrt(m * (1 - m) / 1500 + 1e-9) for m in means]
    for i in range(len(means) - 1):
        assert means[i + 1] > means[i] - 3 * (ses[i] + ses[i + 1])


def test_serialization_roundtrip():
    box = Box((-1, 2), (3, 2))
    params = FKParams(0.37, 2.5, WIRED)
    rng = np.random.default_rng(9)
    cfg = BondConfig(box, (rng.random(box.n_bonds) < 0.5).astype(np.uint8))
    blob = config_to_bytes(cfg, params, seed=99, sweep_index=5)
    cfg2, params2, meta = config_from_bytes(blob)
    assert cfg2 == cfg
    assert params2.p == params.p and params2.q == params.q
    assert params2.boundary.kind == "wired"
    assert meta == {"seed": 99, "sweep_index": 5}

    part = BoundaryCondition.partition(
        [{s for s in box.boundary if s[0] < 1},
         {s for s in box.boundary if s[0] >= 1}])
    blob = config_to_bytes(cfg, FKParams(0.2, 1.0, part))
    cfg3, params3, _ = config_from_bytes(blob)
    assert cfg3 == cfg
    assert params3.boundary.kind == "partition"
    assert cluster_count(cfg, params3.boundary) \
        == cluster_count(cfg, part)


@st.composite
def records(draw):
    """A configuration, its parameters and metadata on a small box."""
    d = draw(st.integers(1, 3))
    lower = tuple(draw(st.integers(-5, 5)) for _ in range(d))
    sides = tuple(draw(st.integers(1, 4 if d < 3 else 2)) for _ in range(d))
    box = Box(lower, sides)
    kind = draw(st.sampled_from(["free", "wired", "partition"]))
    if kind == "partition":
        n_classes = draw(st.integers(1, len(box.boundary)))
        classes = [set() for _ in range(n_classes)]
        for site in sorted(box.boundary):
            classes[draw(st.integers(0, n_classes - 1))].add(site)
        bc = BoundaryCondition.partition(c for c in classes if c)
    else:
        bc = BoundaryCondition(kind)
    params = FKParams(draw(st.floats(0.0, 1.0)), draw(st.floats(1.0, 10.0)),
                      bc)
    bits = draw(st.lists(st.booleans(), min_size=box.n_bonds,
                         max_size=box.n_bonds))
    config = BondConfig(box, np.array(bits, dtype=np.uint8))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    sweep_index = draw(st.integers(0, 2 ** 64 - 1))
    return config, params, seed, sweep_index


@settings(max_examples=60, deadline=None)
@given(records())
def test_serialization_roundtrip_property(record):
    config, params, seed, sweep_index = record
    blob = config_to_bytes(config, params, seed, sweep_index)
    back, params2, meta = config_from_bytes(blob)
    assert back == config
    assert (params2.p, params2.q) == (params.p, params.q)
    assert params2.boundary.kind == params.boundary.kind
    assert set(params2.boundary.classes) == set(params.boundary.classes)
    assert meta == {"seed": seed, "sweep_index": sweep_index}


@settings(max_examples=30, deadline=None)
@given(records(), st.binary(min_size=1, max_size=16))
def test_deserializer_rejects_truncated_or_padded(record, extra):
    blob = config_to_bytes(*record)
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            config_from_bytes(blob[:cut])
    with pytest.raises(ValueError):
        config_from_bytes(blob + extra)


def test_deserializer_rejects_one_byte_short():
    box = Box.cube(2, 3)
    blob = config_to_bytes(BondConfig.all_open(box), FKParams(0.5, 2.0))
    with pytest.raises(ValueError, match="bytes, expected"):
        config_from_bytes(blob[:-1])
    with pytest.raises(ValueError, match="bytes, expected"):
        config_from_bytes(blob + b"abc")


def test_params_validation():
    with pytest.raises(ValueError):
        FKParams(1.2, 1.0)
    with pytest.raises(ValueError):
        FKParams(0.5, 0.5)
