"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every test is a
deterministic function of the seeds fixed here; tolerances are the stated
ones, not tuned constants.  Expect the full module to take roughly a
quarter of an hour, dominated by the tail-decay criterion.
"""
import math
import time

import numpy as np

from fkpoisson import chenstein, oracle
from fkpoisson.census import (census_from_states, census_sampled,
                              decay_rate, label_clusters)
from fkpoisson.chenstein import (compute_b1_b2, compute_b3_exact,
                                 compute_b3_stratified, estimate_pxy,
                                 exact_bound_instance, field_stack,
                                 poisson_count_test)
from fkpoisson.coupling import analyze_pair, check_claims, influence_decay, mixing_scan
from fkpoisson.fk import (FREE, WIRED, BondConfig, FKParams, sample_states)
from fkpoisson.lattice import Box, l1
from fkpoisson.surgery import (antecedent_bound, count_antecedents,
                               random_close_pairs, transform,
                               weight_ratio_check)
from fkpoisson.wulff import square_shape, symmetric_difference_stat


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def empirical_tv(states: np.ndarray, dist) -> float:
    weights = (1 << np.arange(states.shape[1])).astype(np.int64)
    idx = states.astype(np.int64) @ weights
    freq = np.bincount(idx, minlength=dist.n_configs) / len(idx)
    return float(np.abs(freq - dist.probs).sum())


def test_criterion_01_sampler_matches_oracle():
    box = Box.cube(2, 2)
    lines = []
    ok = True
    for params, seed in ((FKParams(0.5, 2.0), 101),
                         (FKParams(0.6, 1.5), 102)):
        t0 = time.perf_counter()
        dist = oracle.enumerate_measure(box, params)
        states = sample_states(params, box, 100_000, thinning=10,
                               burn_in=1000, seed=seed)
        tv = empirical_tv(states, dist)
        elapsed = time.perf_counter() - t0
        kernel = "swendsen-wang" if params.integer_q else "chayes-machta"
        lines.append(f"{kernel} q={params.q}: tv={tv:.4f} ({elapsed:.0f}s)")
        ok = ok and tv < 0.02 and elapsed < 120.0
    report(1, ok, "; ".join(lines))


def test_criterion_02_q1_sweep_is_product():
    box = Box.cube(2, 3)
    params = FKParams(0.5, 1.0)
    rng = np.random.default_rng(202)
    start = BondConfig(box, (np.arange(box.n_bonds) % 2).astype(np.uint8))
    n = 100_000
    states = np.empty((n, box.n_bonds), dtype=np.uint8)
    from fkpoisson.fk import swendsen_wang_step
    for t in range(n):
        states[t] = swendsen_wang_step(start, params, rng).state
    x = states.astype(float)
    marg = x.mean(axis=0)
    se = math.sqrt(0.5 * 0.5 / n)
    marg_ok = bool(np.all(np.abs(marg - 0.5) < 3 * se))
    worst = 0.0
    corr_ok = True
    centered = x - marg
    for i in range(box.n_bonds):
        for j in range(i + 1, box.n_bonds):
            prod = centered[:, i] * centered[:, j]
            c = prod.mean()
            c_se = prod.std(ddof=1) / math.sqrt(n)
            worst = max(worst, abs(c) / c_se)
            corr_ok = corr_ok and abs(c) < 3 * c_se
    report(2, marg_ok and corr_ok,
           f"12 marginals within 3se of p, 66 correlations within 3se of 0 "
           f"(worst z={worst:.2f})")


def test_criterion_03_bound_is_theorem_instance():
    t0 = time.perf_counter()
    points = [
        ((4,), 0.5, 1.0),
        ((4,), 0.5, 2.0),
        ((5,), 0.6, 1.5),
        ((6,), 0.5, 2.0),
        ((6,), 0.7, 1.0),
        ((7,), 0.4, 2.0),
    ]
    details = []
    ok = True
    for sides, p, q in points:
        inst = exact_bound_instance(Box((0,) * len(sides), sides),
                                    FKParams(p, q), n=2)
        ok = ok and inst.holds
        details.append(f"{sides[0]}-chain p={p} q={q}: "
                       f"tv={inst.tv:.4f}<=bound={inst.bound:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0 and len(points) >= 5
    report(3, ok, f"{len(points)} exact instances hold ({elapsed:.1f}s)")


def test_criterion_04_estimators_match_oracle():
    chain = Box((0,), (8,))
    p, n = 0.5, 2
    params = FKParams(p, 1.0)
    dist = oracle.enumerate_measure(chain, params)
    px_exact = oracle.exact_px_field(dist, n)
    mat = oracle.exact_pxy_matrix(dist, n)
    b1_exact, b2_exact, _ = chenstein.exact_b1_b2(dist, n)
    offsets = [(2,), (3,)]
    pxy_exact = {}
    for z in offsets:
        vals = [mat[chain.site_index((x,)), chain.site_index((x + z[0],))]
                for x in range(0, 8 - z[0])]
        pxy_exact[z] = float(np.mean(vals))

    rng = np.random.default_rng(404)
    blocks = 10
    per_block = 100_000
    rows = {"px": [], "b1": [], "b2": [], "pxy2": [], "pxy3": []}
    xc = chain.site_index((3,))
    for _ in range(blocks):
        bits = (rng.random((per_block, chain.n_bonds)) < p).astype(np.uint8)
        census = census_from_states(chain, bits, n)
        px_hat = census.px_field(n)
        wanted = chenstein.neighborhood_offsets(n, 1) + [(-3,), (3,)]
        stats = estimate_pxy(census, n, offsets=wanted)
        b1_hat, b2_hat = compute_b1_b2(px_hat, stats, chain, n)
        rows["px"].append(px_hat[xc])
        rows["b1"].append(b1_hat)
        rows["b2"].append(b2_hat)
        rows["pxy2"].append(stats.offsets[(2,)].pxy)
        rows["pxy3"].append(stats.offsets[(3,)].pxy)

    def within(name, exact):
        vals = np.array(rows[name])
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(blocks)
        z = abs(mean - exact) / se if se > 0 else 0.0
        return z <= 3.0, z

    checks = {
        "px": within("px", px_exact[xc]),
        "pxy(2)": within("pxy2", pxy_exact[(2,)]),
        "pxy(3)": within("pxy3", pxy_exact[(3,)]),
        "b1": within("b1", b1_exact),
        "b2": within("b2", b2_exact),
    }
    ok = all(v[0] for v in checks.values())
    detail = ", ".join(f"{k} z={v[1]:.2f}" for k, v in checks.items())

    # exact-b3 against the stratified estimator on the 6-chain case
    box6 = Box((0,), (6,))
    dist6 = oracle.enumerate_measure(box6, FKParams(0.5, 2.0))
    exact_b3 = compute_b3_exact(dist6, 2, side=1).lo
    states = oracle.sample_exact(dist6, 1_000_000, seed=405)
    cen6 = census_from_states(box6, states, 2)
    strat = compute_b3_stratified(field_stack(cen6, 2), box6, 2, side=1,
                                  min_bin=100, seed=406)
    b3_ok = strat.lo - 3 * strat.se <= exact_b3 <= strat.hi + 3 * strat.se
    ok = ok and b3_ok
    report(4, ok, f"{detail}; b3 exact={exact_b3:.5f} in "
                  f"[{strat.lo - 3 * strat.se:.5f}, "
                  f"{strat.hi + 3 * strat.se:.5f}]")


def test_criterion_05_surgery_invariants():
    t0 = time.perf_counter()
    box = Box.cube(2, 10)
    params = FKParams(0.5, 2.0)
    instances = random_close_pairs(box, 0.5, 1000, seed=505, min_size=1,
                                   max_distance=6, max_tries=500_000)
    assert len(instances) == 1000
    merged_ok = bonds_ok = ratio_ok = True
    for cfg, c1, c2 in instances:
        res = transform(cfg, c1, c2)
        cs = label_clusters(res.new_config)
        merged_ok &= len({cs.site_cluster[s] for s in res.merged_sites}) == 1
        bonds_ok &= res.changed <= 2 * box.d * l1(*res.pair)
        ratio_ok &= weight_ratio_check(params, res).holds

    tiny_ok = True
    rng = np.random.default_rng(506)
    bound = antecedent_bound(2, 1.0, 2)
    tiny_boxes = [Box.cube(2, 4), Box.cube(2, 5)]
    count_max = 0
    for i in range(20):
        tb = tiny_boxes[i % 2]
        state = (rng.random(tb.n_bonds) < 0.5).astype(np.uint8)
        c = count_antecedents(BondConfig(tb, state), n=2, K=1.0)
        count_max = max(count_max, c)
        tiny_ok &= c <= bound
    elapsed = time.perf_counter() - t0
    ok = (merged_ok and bonds_ok and ratio_ok and tiny_ok
          and elapsed < 600.0)
    report(5, ok,
           f"1000 merges: single-cluster={merged_ok}, "
           f"changed<=2d*k={bonds_ok}, ratio floor={ratio_ok}; "
           f"20 tiny antecedent counts (max {count_max}) <= "
           f"{bound:.0f} ({elapsed:.0f}s)")


def test_criterion_06_conjecture_report():
    rows = []
    violations = 0
    boxes = [Box((0,), (k,)) for k in range(2, 9)]
    for box in boxes:
        for q in (1.0, 1.5, 2.0):
            for p in (0.3, 0.5, 0.7):
                dist = oracle.enumerate_measure(box, FKParams(p, q))
                sites = list(box.sites)
                for i in range(len(sites)):
                    for j in range(i + 1, len(sites)):
                        r = oracle.conjecture7_check(
                            box, FKParams(p, q), 2, sites[i], sites[j],
                            dist=dist)
                        rows.append(r)
                        violations += not r.holds
    box23 = Box((0, 0), (2, 3))
    for q in (1.0, 1.5, 2.0):
        for p in (0.3, 0.5, 0.7):
            dist = oracle.enumerate_measure(box23, FKParams(p, q))
            sites = list(box23.sites)
            for surrogate in ("boundary", "all"):
                for i in range(len(sites)):
                    for j in range(i + 1, len(sites)):
                        r = oracle.conjecture7_check(
                            box23, FKParams(p, q), 2, sites[i], sites[j],
                            surrogate=surrogate, dist=dist)
                        rows.append(r)
                        violations += not r.holds
    sane = all(0.0 <= r.lhs <= 1.0 and 0.0 <= r.rhs <= 1.0 for r in rows)
    report(6, sane and len(rows) > 500,
           f"{len(rows)} exact lhs/rhs rows tabulated, "
           f"{violations} inequality violations reported (not asserted)")


def test_criterion_07_coupling_probe():
    box = Box.cube(2, 11)
    gamma = {box.center}
    reps = 10_000
    results = {}
    claims_ok = True
    k_checked = 0
    for tag, p, seeds in (("lo", 0.85, (701, 702)), ("hi", 0.95, (703, 704))):
        params = FKParams(p, 2.0)
        sw = sample_states(FKParams(p, 2.0, WIRED), box, reps, thinning=2,
                           burn_in=500, seed=seeds[0])
        sf = sample_states(FKParams(p, 2.0, FREE), box, reps, thinning=2,
                           burn_in=500, seed=seeds[1])
        ks = np.zeros(reps, dtype=bool)
        for i in range(reps):
            out = analyze_pair(BondConfig(box, sw[i]), BondConfig(box, sf[i]),
                               gamma)
            ks[i] = out.k
            if out.k:
                chk = check_claims(out)
                claims_ok &= chk.passed
                k_checked += 1
        results[tag] = (ks.mean(), ks.std(ddof=1) / math.sqrt(reps), sw, sf,
                        params)
    pk_lo, se_lo = results["lo"][0], results["lo"][1]
    pk_hi, se_hi = results["hi"][0], results["hi"][1]
    sep = (pk_hi - pk_lo) / math.sqrt(se_lo ** 2 + se_hi ** 2 + 1e-18)
    mono_ok = sep > 3.0

    gammas = [(f"{g}x{g}", set(Box(tuple(c - (g - 1) // 2
                                         for c in box.center),
                                   (g, g)).sites))
              for g in (9, 7, 5, 3, 1)]
    center_bond = box.bond_index[(box.center,
                                  (box.center[0], box.center[1] + 1))]
    bound_ok = True
    for tag in ("lo", "hi"):
        _, _, sw, sf, params = results[tag]
        table = influence_decay(params, box, gammas, WIRED, FREE,
                                lambda c: bool(c.state[center_bond]),
                                reps, states=(sw, sf),
                                event_name="center bond open")
        bound_ok &= all(r.bound_ok for r in table.rows)
    report(7, mono_ok and claims_ok and bound_ok,
           f"P(K): {pk_hi:.3f} @ p=.95 vs {pk_lo:.4f} @ p=.85 "
           f"(z={sep:.1f}); claims passed on {k_checked} K-outcomes; "
           f"coupling bound held on all scheduled regions")


def test_criterion_08_mixing_scan_vs_oracle():
    # the one-dimensional 8-site strip is a tree (free measure factorizes)
    # or a cycle under wiring (separation-independent), so the smallest
    # strip with genuinely decaying coefficients is the two-row ladder
    box = Box((0, 0), (2, 6))
    params = FKParams(0.7, 2.0)
    dist = oracle.enumerate_measure(box, params)
    rungs = [b for b in box.bonds if b[0][1] == b[1][1]]
    seps = [1, 2, 3, 4, 5]
    exact = {j: oracle.exact_ratio_mixing(dist, [rungs[0]], [rungs[j]])
             for j in seps}
    states = oracle.sample_exact(dist, 1_000_000, seed=808)
    table = mixing_scan(states, box, [([rungs[0]], [rungs[j]])
                                      for j in seps])
    ok = True
    worst = 0.0
    for row, j in zip(table.rows, seps):
        z = abs(row.ratio - exact[j]) / row.ratio_se
        worst = max(worst, z)
        ok = ok and z <= 3.0
    ordering = table.rows[4].ratio < table.rows[0].ratio
    report(8, ok and ordering,
           f"5 separations within 3se of exact (worst z={worst:.2f}); "
           f"coef(sep 5)={table.rows[4].ratio:.2g} < "
           f"coef(sep 1)={table.rows[0].ratio:.2g}")


def test_criterion_09_poisson_count_signature():
    t0 = time.perf_counter()
    box = Box.cube(2, 128)
    census = census_sampled(FKParams(0.7, 1.0), box, 10_000, seed=909,
                            min_size=5)
    results = []
    for i, n in enumerate((5, 10, 20)):
        counts = census.counts_per_sample(n)
        results.append(poisson_count_test(counts, n_boot=500, seed=910 + i))
    elapsed = time.perf_counter() - t0
    nonincr = all(results[i + 1].tv <= results[i].tv
                  for i in range(len(results) - 1))
    ci_consistent = all(results[i + 1].ci_lo <= results[i].ci_hi + 1e-12
                        for i in range(len(results) - 1))
    ok = nonincr and ci_consistent and elapsed < 3600.0
    detail = ", ".join(f"n={n}: tv={r.tv:.4f} "
                       f"[{r.ci_lo:.4f},{r.ci_hi:.4f}] lam={r.lambda_hat:.3g}"
                       for n, r in zip((5, 10, 20), results))
    report(9, ok, f"{detail} ({elapsed:.0f}s)")


def test_criterion_10_tail_decay_signature():
    # arithmetic threshold schedule with proportional (side 5n+1) boxes:
    # oscillation windows then span equal n-ranges and compare cleanly
    t0 = time.perf_counter()
    sched = [2, 4, 6, 8]
    boxes = [Box.centered(2, 5 * n + 1) for n in sched]
    samples = [400_000, 600_000, 800_000, 1_500_000]
    est = decay_rate(FKParams(0.7, 1.0), boxes, sched, samples, seed=1010)
    elapsed = time.perf_counter() - t0
    positive = bool(est.available().all() and (est.a_origin > 0).all())
    osc = est.oscillation(window=3)
    osc_decreasing = bool(np.all(np.diff(osc) < 0))
    ratio_ok = 0.5 <= est.ratio_at_largest <= 2.0
    ok = positive and osc_decreasing and ratio_ok
    report(10, ok,
           f"a_n={np.round(est.a_origin, 3).tolist()} "
           f"(hits {est.origin_hits.tolist()}); osc={np.round(osc, 3).tolist()}; "
           f"center/origin ratio={est.ratio_at_largest:.3f} ({elapsed:.0f}s)")


def test_criterion_11_shape_self_consistency():
    # n chosen so the scaled cluster's edges fall between raster cells:
    # the cancellation is then near-exact, not an alignment artifact
    n = 12
    cpu = 16
    shape = square_shape(0.5, cpu)  # perimeter 2
    box = Box.centered(2, 4 * n + 1)
    inside = [s for s in box.sites
              if abs(s[0]) <= 0.25 * n - 0.5 and abs(s[1]) <= 0.25 * n - 0.5]
    inside_set = set(inside)
    state = np.zeros(box.n_bonds, dtype=np.uint8)
    for i, (a, b) in enumerate(box.bonds):
        if a in inside_set and b in inside_set:
            state[i] = 1
    census = census_from_states(box, state[None], n)
    rows = census.qualifying(n)
    centers = census.center[rows]
    sites, _ = census.member_sites(rows)
    diag = symmetric_difference_stat(centers, sites, shape, n, 0, delta=1.0)
    perimeter = 4 * 0.5
    tol = 2 * (1.0 / cpu) * perimeter
    vol_ok = diag.volume < tol
    indicator_ok = all(
        not symmetric_difference_stat(centers, sites, shape, n, 0,
                                      delta=d).indicator
        for d in (tol * 1.01, 0.5, 1.0))
    report(11, vol_ok and indicator_ok,
           f"constructed raster: symdiff volume={diag.volume:.4f} < "
           f"2*h*perimeter={tol:.4f}; indicator false for all "
           f"delta > raster tolerance")
