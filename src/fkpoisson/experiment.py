"""Reproducible experiment runs: config validation, seeded replica fan-out,
artifact persistence and report pooling.

Every emitted number is a deterministic function of the config and the
seed.  Replica r draws its stream from SeedSequence([master_seed, r]), so
adding replicas never perturbs existing ones.  Timestamps live only in the
manifest; artifact files are byte-stable across reruns.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import chenstein, coupling, oracle, surgery as surgery_mod, wulff as wulff_mod
from .census import census_sampled, decay_rate, state_chunks
from .fk import (FREE, WIRED, BondConfig, FKParams, config_to_bytes,
                 label_sites, sample_states)
from .lattice import Box, set_distance


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_COMMON_OPT = {"lower", "seed", "boundary"}
_SCHEMA = {
    "sample": ({"sides", "p", "q", "samples"},
               {"thinning", "burn_in"}),
    "census": ({"sides", "p", "q", "samples", "n"},
               {"thinning", "burn_in", "min_size"}),
    "chenstein": ({"sides", "p", "q", "samples", "n"},
                  {"thinning", "burn_in", "K", "neighborhood_side",
                   "min_bin"}),
    "oracle": ({"sides", "p", "q", "n"},
               {"neighborhood_side", "surrogate"}),
    "surgery": ({"sides", "p", "instances"},
                {"q", "n", "K", "max_distance", "count_antecedents"}),
    "coupling": ({"sides", "p", "q", "pairs"},
                 {"thinning", "burn_in", "gamma_sides", "separations",
                  "dump_outcomes"}),
    "wulff": ({"sides", "p", "q", "samples", "n"},
              {"thinning", "burn_in", "delta", "cells_per_unit",
               "shape_side", "f_width"}),
    "decay": ({"p", "q", "n_schedule", "samples"},
              {"box_factor", "thinning", "burn_in"}),
}


def _int(lo):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) \
        and v >= lo


def _real(lo, hi=math.inf, strict=False):
    return lambda v: isinstance(v, (int, float)) \
        and not isinstance(v, bool) and (v > lo if strict else v >= lo) \
        and v <= hi


def _ints(lo=-math.inf):
    return lambda v: isinstance(v, list) and bool(v) and all(
        _int(lo)(x) for x in v)


# per key: the check its value must pass and what that asks for
_FIELDS = {
    # .fkc records store the seed as a uint64
    "seed": (lambda v: _int(0)(v) and v < 1 << 64,
             "need an int in [0, 2^64)"),
    "p": (_real(0, 1), "need a real in [0,1]"),
    "q": (_real(1), "need a real >= 1"),
    "samples": (_int(1), "need an int >= 1"),
    "pairs": (_int(1), "need an int >= 1"),
    "instances": (_int(1), "need an int >= 1"),
    "n": (_int(1), "need an int >= 1"),
    "thinning": (_int(1), "need an int >= 1"),
    "burn_in": (_int(0), "need an int >= 0"),
    "min_size": (_int(1), "need an int >= 1"),
    "K": (_real(0, strict=True), "need a real > 0"),
    "delta": (_real(0, strict=True), "need a real > 0"),
    "boundary": (lambda v: v in ("free", "wired"), "need 'free' or 'wired'"),
    "n_schedule": (_ints(1), "need a nonempty list of ints >= 1"),
    "neighborhood_side": (lambda v: _int(1)(v) and v % 2 == 1,
                          "need an odd int >= 1"),
    "min_bin": (_int(1), "need an int >= 1"),
    "surrogate": (lambda v: v in ("boundary", "all"),
                  "need 'boundary' or 'all'"),
    "max_distance": (_real(0, strict=True), "need a real > 0"),
    "count_antecedents": (lambda v: isinstance(v, bool), "need a boolean"),
    "gamma_sides": (_ints(1), "need a nonempty list of ints >= 1"),
    "separations": (_ints(1), "need a nonempty list of ints >= 1"),
    "dump_outcomes": (_int(0), "need an int >= 0"),
    "cells_per_unit": (lambda v: _int(2)(v) and v % 2 == 0,
                       "need an even int >= 2"),
    "shape_side": (_real(0, strict=True), "need a real > 0"),
    "f_width": (_int(0), "need an int >= 0"),
    "box_factor": (_int(1), "need an int >= 1"),
}


def _need(config: dict, key: str, check, what: str) -> None:
    if key in config and not check(config[key]):
        raise ConfigError(f"config field {key!r}: {what}, "
                          f"got {config[key]!r}")


def validate_config(subcommand: str, config: dict) -> dict:
    """Strict validation: unknown keys rejected, ranges checked before any
    sampling starts.  Returns a normalized copy with defaults filled."""
    if subcommand not in _SCHEMA:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    required, optional = _SCHEMA[subcommand]
    allowed = required | optional | _COMMON_OPT
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    out = dict(config)
    out.setdefault("seed", 0)

    if "sides" in out:
        _need(out, "sides", _ints(1), "need a nonempty list of ints >= 1")
        d = len(out["sides"])
        out.setdefault("lower", [0] * d)
        _need(out, "lower", lambda v: _ints()(v) and len(v) == d,
              f"need a list of {d} ints, one per side")
    for key, (check, what) in _FIELDS.items():
        _need(out, key, check, what)
    if subcommand == "chenstein":
        # standard errors and the bootstrap need two samples
        _need(out, "samples", _int(2), "need an int >= 2")
    if subcommand == "coupling":
        _need(out, "sides", lambda v: max(v) >= 2,
              "need a side >= 2, for the central bond")
    if subcommand == "census":
        # the report counts clusters of size >= n
        _need(out, "min_size", lambda v: v <= out["n"],
              f"need an int in [1, n] = [1, {out['n']}]")
    if subcommand == "decay" and "lower" in out:
        raise ConfigError("config field 'lower': decay boxes are centered "
                          "at the origin, so it takes none")
    out.setdefault("boundary", "free")
    if "K" in optional:
        out.setdefault("K", 5.0)
    return out


def config_hash(config: dict) -> str:
    """Hash of the canonical config without the seed: replicas and reruns
    with different seeds stay poolable."""
    stripped = {k: v for k, v in config.items() if k != "seed"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def replica_seed(master_seed: int, replica: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master_seed), int(replica)])


def _box_of(config: dict) -> Box:
    return Box(tuple(config["lower"]), tuple(config["sides"]))


def _params_of(config: dict) -> FKParams:
    bc = WIRED if config.get("boundary") == "wired" else FREE
    return FKParams(float(config["p"]), float(config["q"]), bc)


def default_f_width(n: int) -> int:
    """Neighborhood width growing like ceil(ln^2 n): vanishes relative to n
    and dominates ln n."""
    return max(1, math.ceil(math.log(max(n, 2)) ** 2))


# ---------------------------------------------------------------------------
# mergeable summary reports


def make_report(kind: str, cfg_hash: str, counters: dict,
                moments: dict) -> dict:
    """Poolable report: counters add, moment triples (count, sum, sumsq)
    add; means and errors are derived on demand."""
    report = {"kind": kind, "config_hash": cfg_hash, "counters": counters,
              "moments": moments}
    report["derived"] = derive_report(report)
    return report


def derive_report(report: dict) -> dict:
    out = {}
    for name, (cnt, s, ss) in report["moments"].items():
        if cnt <= 0:
            out[name] = {"mean": None, "se": None, "count": 0}
            continue
        mean = s / cnt
        var = max(ss / cnt - mean * mean, 0.0)
        se = math.sqrt(var / (cnt - 1)) if cnt > 1 else 0.0
        out[name] = {"mean": mean, "se": se, "count": cnt}
    return out


def merge_reports(reports: list[dict]) -> dict:
    """Pool reports of one experiment: counts add, moments add, derived
    statistics are recomputed from the pooled sufficient statistics."""
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    for r in reports[1:]:
        if r["config_hash"] != first["config_hash"]:
            raise ValueError("config hashes differ; refusing to pool")
        if r["kind"] != first["kind"]:
            raise ValueError("report kinds differ")
    counters: dict = {}
    moments: dict = {}
    for r in reports:
        for k, v in r["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, (c, s, ss) in r["moments"].items():
            old = moments.get(k, (0, 0.0, 0.0))
            moments[k] = (old[0] + c, old[1] + s, old[2] + ss)
    return make_report(first["kind"], first["config_hash"], counters, moments)


def _moment(values) -> tuple[int, float, float]:
    arr = np.asarray(values, dtype=float)
    return (int(arr.size), float(arr.sum()), float((arr * arr).sum()))


# ---------------------------------------------------------------------------
# per-subcommand runners (one replica each)


def _run_sample(config, seed_seq, out_dir):
    box = _box_of(config)
    params = _params_of(config)
    rows = itertools.chain.from_iterable(
        state_chunks(*_sampler_args(config, seed_seq)))
    path = os.path.join(out_dir, "samples.fkc")
    with open(path, "wb") as fh:
        for i, row in enumerate(rows):
            blob = config_to_bytes(BondConfig(box, row), params,
                                   seed=config["seed"], sweep_index=i)
            fh.write(len(blob).to_bytes(4, "little"))
            fh.write(blob)
    return [path], None


def _sampler_args(config, seed_seq) -> tuple:
    return (_params_of(config), _box_of(config), config["samples"],
            config.get("thinning", 10), config.get("burn_in"), seed_seq)


def _run_census(config, seed_seq, out_dir):
    census = census_sampled(*_sampler_args(config, seed_seq),
                            min_size=config.get("min_size", config["n"]),
                            origin=_box_of(config).center)
    n = config["n"]
    jsonl = os.path.join(out_dir, "census.jsonl")
    with open(jsonl, "w") as fh:
        census.to_jsonl(fh)
    counts = census.counts_per_sample(n)
    report = make_report("census", config_hash(config), {
        "samples": census.n_samples,
        "cluster_rows": int(census.n_rows),
        "qualifying": int(census.qualifying(n).sum()),
    }, {
        "centers_per_sample": _moment(counts),
        "origin_large_finite": _moment(
            ((~census.origin_touches) & (census.origin_size >= n)).astype(float)),
    })
    path = os.path.join(out_dir, "report.json")
    _write_json(path, report)
    return [jsonl, path], report


def _run_chenstein(config, seed_seq, out_dir):
    box = _box_of(config)
    params = _params_of(config)
    n = config["n"]
    census = census_sampled(*_sampler_args(config, seed_seq), min_size=n)
    side = config.get("neighborhood_side")
    px = census.px_field(n)
    counts = census.counts_per_sample(n)
    # pairs over the larger of the default and the configured box
    wide = max(side or 0, 2 * chenstein.neighborhood_halfwidth(n) + 1)
    stats = chenstein.estimate_pxy(
        census, n, chenstein.neighborhood_offsets(n, box.d, wide),
        K=config["K"])
    b1, b2 = chenstein.compute_b1_b2(px, stats, box, n, side)
    stack = chenstein.field_stack(census, n)
    b3_seed, pois_seed = seed_seq.spawn(2)
    b3 = chenstein.compute_b3_stratified(stack, box, n, side,
                                         config.get("min_bin", 100),
                                         seed=b3_seed)
    bound = chenstein.tv_bound(b1, b2, b3, float((px ** 2).sum()))
    if not isinstance(bound, tuple):
        bound = (bound, bound)
    pois = chenstein.poisson_count_test(counts, seed=pois_seed)
    report = chenstein.ChenSteinReport(
        n, box.sides, side or (2 * chenstein.neighborhood_halfwidth(n) + 1),
        config["K"], census.n_samples, float(counts.mean()), b1, b2,
        b3.lo, b3.hi, b3.se, b3.method, float((px ** 2).sum()),
        bound[0], bound[1], pois)
    doc = {"config_hash": config_hash(config), "report": report.to_dict(),
           "px_field": [float(v) for v in px],
           "pxy": {",".join(map(str, z)): {
               "total": st.pxy, "se": st.pxy_se, "windowed": st.local,
               "close": st.close, "distant": st.distant}
               for z, st in stats.offsets.items()}}
    line = (f"tv bound: [{bound[0]:.6g}, {bound[1]:.6g}]")
    if box.n_bonds <= 16:
        inst = chenstein.exact_bound_instance(box, params, n, side)
        doc["exact"] = {"tv": inst.tv, "bound": inst.bound,
                        "holds": inst.holds, "vacuous": inst.vacuous}
        line += f"   exact tv: {inst.tv:.6g} (exact bound {inst.bound:.6g})"
    print(line)
    path = os.path.join(out_dir, "report.json")
    _write_json(path, doc)
    return [path], None


def _run_oracle(config, seed_seq, out_dir):
    box = _box_of(config)
    params = _params_of(config)
    n = config["n"]
    dist = oracle.enumerate_measure(box, params)
    side = config.get("neighborhood_side")
    surrogate = config.get("surrogate", "boundary")
    inst = chenstein.exact_bound_instance(box, params, n, side, surrogate,
                                          dist)
    conj = [{"x": list(r.x), "y": list(r.y), "lhs": r.lhs, "rhs": r.rhs,
             "holds": r.holds}
            for r in oracle.conjecture7_rows(dist, n, surrogate)]
    doc = {
        "config_hash": config_hash(config),
        "log_z": dist.log_z,
        "bound_instance": {
            "b1": inst.b1, "b2": inst.b2, "b3": inst.b3,
            "sum_px2": inst.sum_px2, "bound": inst.bound, "tv": inst.tv,
            "holds": inst.holds, "vacuous": inst.vacuous,
        },
        "conjecture7": conj,
    }
    path = os.path.join(out_dir, "oracle.json")
    _write_json(path, doc, ("distribution", _probability_table(dist.probs)))
    return [path], None


def _probability_table(probs: np.ndarray):
    """The JSON text of ``ExactDistribution.to_table()``, in pieces of up
    to 2^16 rows.  A probability is fixed by the open-bond and cluster
    counts, so a piece has few distinct values: each is formatted once,
    by its ``repr``, as ``json.dumps`` writes a float."""
    yield "["
    for start in range(0, len(probs), 1 << 16):
        values, which = np.unique(probs[start:start + (1 << 16)],
                                  return_inverse=True)
        text = [repr(v) for v in values.tolist()]
        yield (", " if start else "") + ", ".join([
            f'{{"config": {i}, "probability": {text[j]}}}'
            for i, j in enumerate(which.tolist(), start)])
    yield "]"


def _run_surgery(config, seed_seq, out_dir):
    box = _box_of(config)
    params = _params_of({"q": 2.0, **config})
    n = config.get("n", 2)
    K = config["K"]
    rows = []
    instances = surgery_mod.random_close_pairs(
        box, params.p, config["instances"], seed=seed_seq,
        max_distance=config.get("max_distance"))
    for cfg, ca, cb in instances:
        res = surgery_mod.transform(cfg, ca, cb)
        merged_single = _merged_is_single(res)
        wr = surgery_mod.weight_ratio_check(params, res)
        row = {"pair": [list(res.pair[0]), list(res.pair[1])],
               "changed": res.changed,
               "merged_size": len(res.merged_sites),
               "merged_single_cluster": merged_single,
               "weight_ratio": wr.ratio, "floor": wr.floor,
               "ratio_ok": wr.holds}
        if config.get("count_antecedents", False):
            row["antecedents"] = surgery_mod.count_antecedents(
                res.new_config, n, K)
            row["antecedent_bound"] = surgery_mod.antecedent_bound(n, K, box.d)
        rows.append(row)
    doc = {"config_hash": config_hash(config), "instances": rows}
    path = os.path.join(out_dir, "surgery.json")
    _write_json(path, doc)
    return [path], None


def _merged_is_single(res) -> bool:
    box = res.new_config.box
    labels = label_sites(box, res.new_config.state[None])[0][0]
    return len(set(labels[[box.site_index(s) for s in res.merged_sites]])) == 1


def _run_coupling(config, seed_seq, out_dir):
    box = _box_of(config)
    params = _params_of(config)
    gamma_sides = config.get("gamma_sides", [1])
    gammas = []
    for gs in gamma_sides:
        g = Box(tuple(c - (gs - 1) // 2 for c in box.center), (gs,) * box.d)
        gammas.append((f"{gs}^{box.d}", set(g.sites)))
    center_bond = _central_bond(box)
    table = coupling.influence_decay(
        params, box, gammas, WIRED, FREE,
        lambda c: bool(c.state[center_bond]), config["pairs"],
        config.get("thinning", 5), config.get("burn_in"), seed_seq,
        event_name="center bond open")
    inf_path = os.path.join(out_dir, "influence.csv")
    with open(inf_path, "w") as fh:
        table.to_csv(fh)
    seps = config.get("separations", [1, 2, 3])
    pairs = _separation_bond_pairs(box, seps)
    # the children after the two that influence_decay spawned
    mix_seed, wired_seed, free_seed = seed_seq.spawn(3)
    states = sample_states(params, box, config["pairs"],
                           config.get("thinning", 5), config.get("burn_in"),
                           mix_seed)
    mix = coupling.mixing_scan(states, box, pairs)
    mix_path = os.path.join(out_dir, "mixing.csv")
    with open(mix_path, "w") as fh:
        mix.to_csv(fh)
    files = [inf_path, mix_path]
    n_dump = int(config.get("dump_outcomes", 0))
    if n_dump > 0:
        gamma = gammas[-1][1]
        sw = sample_states(FKParams(params.p, params.q, WIRED), box, n_dump,
                           config.get("thinning", 5), config.get("burn_in"),
                           wired_seed)
        sf = sample_states(FKParams(params.p, params.q, FREE), box, n_dump,
                           config.get("thinning", 5), config.get("burn_in"),
                           free_seed)
        out_path = os.path.join(out_dir, "outcomes.jsonl")
        with open(out_path, "w") as fh:
            for a, b in zip(sw, sf):
                outcome = coupling.analyze_pair(BondConfig(box, a),
                                                BondConfig(box, b), gamma)
                fh.write(json.dumps(outcome.to_dict(), sort_keys=True) + "\n")
        files.append(out_path)
    return files, None


def _central_bond(box: Box) -> int:
    c = box.center
    for k in range(box.d):
        y = c[:k] + (c[k] + 1,) + c[k + 1:]
        if box.contains(y):
            return box.bond_index[(c, y)]
    raise ValueError("box has no central bond")


def _separation_bond_pairs(box: Box, separations):
    base = _central_bond(box)
    pairs = []
    for s in separations:
        # walk bonds along the first axis from the center
        a, b = box.bonds[base]
        target = None
        for bond in box.bonds:
            if bond[0][0] == a[0] and bond[1][0] == b[0]:
                if set_distance({bond[0], bond[1]}, {a, b}) == s:
                    target = bond
                    break
        if target is not None:
            pairs.append(([base], [box.bond_index[target]]))
    return pairs


def _run_wulff(config, seed_seq, out_dir):
    box = _box_of(config)
    n = config["n"]
    census = census_sampled(*_sampler_args(config, seed_seq), min_size=n)
    quals = census.qualifying(n)
    sample, centers = census.sample_id[quals], census.center[quals]
    sites, owner = census.member_sites(quals)
    cpu = config.get("cells_per_unit", wulff_mod.DEFAULT_CELLS_PER_UNIT)
    if "shape_side" in config:
        shape = wulff_mod.square_shape(config["shape_side"], cpu, box.d)
    else:
        try:
            shape = wulff_mod.empirical_shape(sites, owner, centers, cpu,
                                              min_count=5)
        except ValueError as exc:
            raise ConfigError(f"config field 'shape_side': not given, and "
                              f"the empirical shape has {exc}") from exc
    width = config.get("f_width", default_f_width(n))
    delta = config.get("delta", 0.1)
    # sites come by sample, like the clusters
    bounds = np.arange(census.n_samples + 1)
    cluster_cut = np.searchsorted(sample, bounds)
    site_cut = np.searchsorted(sample[owner], bounds)
    rows = []
    for i in range(census.n_samples):
        diag = wulff_mod.symmetric_difference_stat(
            np.unique(centers[cluster_cut[i]:cluster_cut[i + 1]], axis=0),
            sites[site_cut[i]:site_cut[i + 1]], shape, n, width, delta)
        rows.append({"volume": diag.volume, "centers": diag.center_count,
                     "event": diag.indicator})
    jsonl = os.path.join(out_dir, "wulff.jsonl")
    with open(jsonl, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    doc = {"config_hash": config_hash(config), "f_width": width,
           "delta": delta,
           "event_rate": sum(r["event"] for r in rows) / len(rows)}
    path = os.path.join(out_dir, "wulff.json")
    _write_json(path, doc)
    return [jsonl, path], None


def _run_decay(config, seed_seq, out_dir):
    """Tail rates on origin-centered square boxes (d = 2) under the
    config's boundary condition."""
    params = _params_of(config)
    factor = config.get("box_factor", 3)
    sched = config["n_schedule"]
    d = 2
    boxes = [Box.centered(d, 2 * ((factor * n) // 2) + 1) for n in sched]
    est = decay_rate(params, boxes, sched, config["samples"], seed=seed_seq,
                     thinning=config.get("thinning", 10),
                     burn_in=config.get("burn_in"))
    doc = {"config_hash": config_hash(config),
           "n": [int(v) for v in est.n_values],
           "a_origin": _floats(est.a_origin),
           "a_origin_se": _floats(est.a_origin_se),
           "a_center": _floats(est.a_center),
           "a_center_se": _floats(est.a_center_se),
           "origin_hits": [int(v) for v in est.origin_hits],
           "center_hits": [int(v) for v in est.center_hits],
           "ratio_at_largest": None if math.isnan(est.ratio_at_largest)
           else est.ratio_at_largest}
    path = os.path.join(out_dir, "decay.json")
    _write_json(path, doc)
    return [path], None


def _floats(arr):
    return [None if (isinstance(v, float) and math.isnan(v)) else float(v)
            for v in arr]


def _write_json(path: str, doc,
                entry: tuple[str, Iterable[str]] | None = None) -> None:
    """``json.dumps(doc, sort_keys=True)`` and a newline: compact, in one
    call, since json.dump and any indent fall back to the pure-Python
    encoder, slower than the oracle's own reductions.  ``entry`` is a
    (key, pieces of JSON text) pair whose value is written into ``doc``
    in key order, piece by piece, as ``json.dumps`` would have written
    it."""
    with open(path, "w") as fh:
        if entry is None:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            return
        key, pieces = entry
        before = json.dumps({k: v for k, v in doc.items() if k < key},
                            sort_keys=True)[:-1]
        after = json.dumps({k: v for k, v in doc.items() if k > key},
                           sort_keys=True)[1:]
        fh.write(before + (", " if len(before) > 1 else "")
                 + json.dumps(key) + ": ")
        fh.writelines(pieces)
        fh.write((", " if len(after) > 1 else "") + after + "\n")


_RUNNERS = {
    "sample": _run_sample,
    "census": _run_census,
    "chenstein": _run_chenstein,
    "oracle": _run_oracle,
    "surgery": _run_surgery,
    "coupling": _run_coupling,
    "wulff": _run_wulff,
    "decay": _run_decay,
}


def _replica_job(args):
    subcommand, config, replica, out_dir = args
    rep_dir = os.path.join(out_dir, f"rep{replica:03d}")
    os.makedirs(rep_dir, exist_ok=True)
    seed_seq = replica_seed(config["seed"], replica)
    files, report = _RUNNERS[subcommand](config, seed_seq, rep_dir)
    return replica, files, report


def run(subcommand: str, config: dict, out_dir: str, replicas: int = 1,
        threads: int = 1) -> dict:
    """Validate, fan replicas out, persist artifacts and the manifest.

    Returns the manifest dict.  Raises ConfigError / ResourceCapError for
    the two failure classes the command line maps to exit codes.
    """
    config = validate_config(subcommand, config)
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    jobs = [(subcommand, config, r, out_dir) for r in range(replicas)]
    results = []
    if threads > 1 and replicas > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_replica_job, jobs))
    else:
        results = [_replica_job(j) for j in jobs]
    results.sort()
    all_files = [f for _, files, _ in results for f in files]
    reports = [rep for _, _, rep in results if rep is not None]
    if len(reports) > 1:
        merged = merge_reports(reports)
        merged_path = os.path.join(out_dir, "merged.json")
        _write_json(merged_path, merged)
        all_files.append(merged_path)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash(config),
        "version": _version(),
        "replica_seeds": [list(replica_seed(config["seed"], r).entropy)
                          for r in range(replicas)],
        "started": started,
        "finished": time.time(),
        "outputs": {os.path.relpath(f, out_dir): _file_hash(f)
                    for f in all_files},
    }
    chain = hashlib.sha256()
    chain.update(manifest["config_hash"].encode())
    chain.update(str(config["seed"]).encode())
    for name in sorted(manifest["outputs"]):
        chain.update(manifest["outputs"][name].encode())
    manifest["chain_hash"] = chain.hexdigest()
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _version() -> str:
    from . import __version__
    return __version__


def _file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
