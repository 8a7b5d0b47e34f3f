import json

import numpy as np
import pytest

from fkpoisson import oracle
from fkpoisson.cli import main
from fkpoisson.experiment import (ConfigError, config_hash, make_report,
                                  merge_reports, replica_seed, run,
                                  validate_config)
from fkpoisson.fk import FKParams, config_from_bytes
from fkpoisson.lattice import Box


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        validate_config("census", {"sides": [4, 4], "p": 0.5, "q": 1.0,
                                   "samples": 10, "n": 2, "bogus": 1})


def test_validate_requires_fields():
    with pytest.raises(ConfigError, match="missing config keys"):
        validate_config("census", {"sides": [4, 4]})


def test_validate_ranges():
    base = {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 10, "n": 2}
    for key, bad in [("p", 1.5), ("q", 0.5), ("samples", 0), ("n", 0)]:
        cfg = dict(base)
        cfg[key] = bad
        with pytest.raises(ConfigError, match=key):
            validate_config("census", cfg)


def test_config_hash_ignores_seed():
    a = {"sides": [4], "p": 0.5, "seed": 1}
    b = {"sides": [4], "p": 0.5, "seed": 2}
    assert config_hash(a) == config_hash(b)
    c = {"sides": [5], "p": 0.5, "seed": 1}
    assert config_hash(a) != config_hash(c)


def test_replica_seeds_stable():
    a = replica_seed(7, 0)
    b = replica_seed(7, 0)
    assert np.random.default_rng(a).integers(1 << 30) \
        == np.random.default_rng(b).integers(1 << 30)
    assert np.random.default_rng(replica_seed(7, 1)).integers(1 << 30) \
        != np.random.default_rng(a).integers(1 << 30)


def test_merge_doubles_counts():
    rep = make_report("census", "h", {"samples": 10},
                      {"m": (10, 5.0, 3.0)})
    merged = merge_reports([rep, rep])
    assert merged["counters"]["samples"] == 20
    assert merged["moments"]["m"] == (20, 10.0, 6.0)
    assert merged["derived"]["m"]["mean"] == pytest.approx(0.5)


def test_merge_singles_equals_batch():
    rng = np.random.default_rng(0)
    values = rng.random(20)
    singles = [make_report("census", "h", {"samples": 1},
                           {"m": (1, float(v), float(v * v))})
               for v in values]
    merged = merge_reports(singles)
    batch = make_report("census", "h", {"samples": 20},
                        {"m": (20, float(values.sum()),
                               float((values ** 2).sum()))})
    assert merged["derived"]["m"]["mean"] \
        == pytest.approx(batch["derived"]["m"]["mean"])
    assert merged["derived"]["m"]["se"] \
        == pytest.approx(batch["derived"]["m"]["se"])


def test_merge_errors():
    with pytest.raises(ValueError):
        merge_reports([])
    a = make_report("census", "h1", {}, {})
    b = make_report("census", "h2", {}, {})
    with pytest.raises(ValueError, match="hash"):
        merge_reports([a, b])


def test_run_census_deterministic(tmp_path):
    cfg = {"sides": [6, 6], "p": 0.6, "q": 1.0, "samples": 50, "n": 2,
           "seed": 3}
    m1 = run("census", cfg, str(tmp_path / "a"))
    m2 = run("census", cfg, str(tmp_path / "b"))
    for name in m1["outputs"]:
        assert m1["outputs"][name] == m2["outputs"][name]
    assert m1["chain_hash"] == m2["chain_hash"]


def test_run_census_replicas_merge(tmp_path):
    cfg = {"sides": [5, 5], "p": 0.55, "q": 1.0, "samples": 30, "n": 2,
           "seed": 1}
    manifest = run("census", cfg, str(tmp_path / "m"), replicas=2)
    merged = json.load(open(tmp_path / "m" / "merged.json"))
    assert merged["counters"]["samples"] == 60


def test_cli_oracle_value(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"sides": [2], "p": 0.5, "q": 2.0, "n": 1}))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    doc = json.load(open(out / "rep000" / "oracle.json"))
    probs = {row["config"]: row["probability"]
             for row in doc["distribution"]}
    assert probs[1] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("config", [
    {"sides": [5], "p": 0.0, "q": 2.0, "n": 1},
    {"sides": [5], "p": 1.0, "q": 2.0, "n": 1},
    # probabilities down to 1.8e-13, written in e-notation
    {"sides": [2, 3], "p": 0.02, "q": 1.5, "n": 1, "surrogate": "all"},
    {"sides": [2, 2, 2], "p": 0.6, "q": 3.0, "n": 1},
    # 2^17 configurations: more than one piece of the table
    {"sides": [3, 4], "p": 0.6, "q": 2.0, "n": 2, "surrogate": "all"},
])
def test_oracle_json_is_json_dumps(tmp_path, config):
    """The table written in pieces leaves oracle.json exactly as one
    json.dumps call would write it, with to_table()'s rows."""
    run("oracle", config, str(tmp_path / "o"))
    raw = (tmp_path / "o" / "rep000" / "oracle.json").read_text()
    doc = json.loads(raw)
    assert json.dumps(doc, sort_keys=True) + "\n" == raw
    dist = oracle.enumerate_measure(
        Box((0,) * len(config["sides"]), tuple(config["sides"])),
        FKParams(config["p"], config["q"]))
    assert doc["distribution"] == dist.to_table()
    if config["p"] == 0.02:
        assert "e-" in raw


def test_oracle_enumerates_the_measure_once(tmp_path, monkeypatch):
    calls = []
    enumerate_measure = oracle.enumerate_measure

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_measure(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_measure", counted)
    run("oracle", {"sides": [2, 3], "p": 0.6, "q": 2.0, "n": 2,
                   "seed": 1}, str(tmp_path / "o"))
    assert len(calls) == 1


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 0, "n": 2}))
    code = main(["chenstein", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rep000" / "report.json").exists()


_SAMPLE = {"sides": [4, 4], "p": 0.5, "q": 2.0, "samples": 2,
           "burn_in": 2}
_CHENSTEIN = {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 20, "n": 2}
_COUPLING = {"sides": [5, 5], "p": 0.5, "q": 2.0, "pairs": 2, "burn_in": 2}
_WULFF = {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 5, "n": 2}


@pytest.mark.parametrize("subcommand, config, field", [
    ("sample", dict(_SAMPLE, p=True), "p"),
    ("sample", dict(_SAMPLE, samples=True), "samples"),
    ("sample", dict(_SAMPLE, lower=[0.5, 0]), "lower"),
    ("sample", dict(_SAMPLE, lower=[0]), "lower"),
    ("sample", dict(_SAMPLE, seed=-1), "seed"),
    ("chenstein", dict(_CHENSTEIN, neighborhood_side=4), "neighborhood_side"),
    ("chenstein", dict(_CHENSTEIN, min_bin=0), "min_bin"),
    ("coupling", dict(_COUPLING, gamma_sides=[0]), "gamma_sides"),
    ("coupling", dict(_COUPLING, separations=[]), "separations"),
    ("coupling", dict(_COUPLING, dump_outcomes=-1), "dump_outcomes"),
    ("oracle", {"sides": [2, 2], "p": 0.5, "q": 2.0, "n": 1,
                "surrogate": "some"}, "surrogate"),
    ("wulff", dict(_WULFF, cells_per_unit=3), "cells_per_unit"),
    ("wulff", dict(_WULFF, shape_side=0), "shape_side"),
    ("wulff", dict(_WULFF, f_width=-1), "f_width"),
    ("surgery", {"sides": [4, 4], "p": 0.5, "instances": 1,
                 "count_antecedents": 1}, "count_antecedents"),
    ("decay", {"p": 0.5, "q": 1.0, "n_schedule": [2], "samples": 5,
               "box_factor": 0}, "box_factor"),
    ("chenstein", dict(_CHENSTEIN, samples=1), "samples"),
    ("coupling", dict(_COUPLING, sides=[1, 1]), "sides"),
    ("coupling", dict(_COUPLING, sides=[1]), "sides"),
    ("census", {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 5, "n": 2,
                "min_size": 3}, "min_size"),
    ("sample", dict(_SAMPLE, seed=2 ** 64), "seed"),
    ("chenstein", dict(_CHENSTEIN, seed=2 ** 70), "seed"),
    ("decay", {"p": 0.5, "q": 1.0, "n_schedule": [2], "samples": 5,
               "lower": [-3, -3]}, "lower"),
])
def test_cli_rejects_bad_field(tmp_path, capsys, subcommand, config, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main([subcommand, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config: config field {field!r}:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rep000").exists()


def test_cli_seed_override_is_checked(tmp_path, capsys):
    # the --seed override is a config field like any other
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_SAMPLE))
    code = main(["sample", "--config", str(cfg_path), "--seed",
                 str(2 ** 64), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config: config field 'seed':" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rep000").exists()


def test_sample_keeps_the_largest_seed(tmp_path):
    cfg = dict(_SAMPLE, seed=2 ** 64 - 1)
    run("sample", cfg, str(tmp_path / "s"))
    blob = open(tmp_path / "s" / "rep000" / "samples.fkc", "rb").read()
    metas = []
    off = 0
    while off < len(blob):
        ln = int.from_bytes(blob[off:off + 4], "little")
        metas.append(config_from_bytes(blob[off + 4:off + 4 + ln])[2])
        off += 4 + ln
    assert metas == [{"seed": 2 ** 64 - 1, "sweep_index": i}
                     for i in range(2)]


def test_chenstein_wide_neighborhood_side(tmp_path):
    # a configured box wider than the default n^2 = 4 (side 5) gets its
    # own pair estimates, and b2 sums over all of them
    cfg = {"sides": [8, 8], "p": 0.6, "q": 1.0, "samples": 400, "n": 2,
           "neighborhood_side": 7, "seed": 3}
    run("chenstein", cfg, str(tmp_path / "c"))
    doc = json.load(open(tmp_path / "c" / "rep000" / "report.json"))
    wide = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if i or j]
    assert set(doc["pxy"]) == {f"{i},{j}" for i, j in wide}
    b2 = 0.0
    for i, j in wide:
        b2 += doc["pxy"][f"{i},{j}"]["total"] * (8 - abs(i)) * (8 - abs(j))
    assert doc["report"]["b2"] == b2
    assert doc["report"]["neighborhood_side"] == 7
    assert any(doc["pxy"][f"{i},{j}"]["total"] > 0
               for i, j in wide if max(abs(i), abs(j)) == 3)


@pytest.mark.parametrize("subcommand, config", [
    ("chenstein", {"sides": [8, 8], "p": 0.6, "q": 1.0, "samples": 600,
                   "n": 2, "K": 1.0}),
    ("wulff", {"sides": [12, 12], "p": 0.5, "q": 1.0, "samples": 300,
               "n": 3}),
])
def test_each_sample_is_labeled_once(tmp_path, monkeypatch, subcommand,
                                     config):
    # the census labels every sample once, and the estimators read its
    # rows and member sites instead of labeling again
    import fkpoisson
    from fkpoisson import fk
    labeled = []
    label_sites = fk.label_sites

    def counting(box, states, *args, **kwargs):
        labeled.append(len(states))
        return label_sites(box, states, *args, **kwargs)

    for name, module in list(vars(fkpoisson).items()):
        if getattr(module, "label_sites", None) is label_sites:
            monkeypatch.setattr(module, "label_sites", counting)
    run(subcommand, dict(config, seed=8), str(tmp_path / "r"), replicas=2)
    assert sum(labeled) == 2 * config["samples"]
    if subcommand == "chenstein":
        doc = json.load(open(tmp_path / "r" / "rep000" / "report.json"))
        assert any(st["windowed"] > 0 for st in doc["pxy"].values())


def test_cli_wulff_without_shape_side_needs_qualifying_clusters(tmp_path,
                                                                capsys):
    # wired and supercritical: every large cluster touches the boundary
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"sides": [12, 12], "p": 0.7, "q": 2.0, "samples": 5, "n": 5,
         "boundary": "wired", "burn_in": 5}))
    code = main(["wulff", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config: config field 'shape_side':" in err
    assert "only 0 qualifying clusters" in err


def test_cli_resource_cap_exit_3(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"sides": [8, 8], "p": 0.5, "q": 2.0, "n": 2}))
    code = main(["oracle", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_missing_config_file(tmp_path):
    assert main(["census", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"sides": [4, 4], "p": 0.5, "q": 1.0, "samples": 20, "n": 2,
         "seed": 1}))
    assert main(["census", "--config", str(cfg_path), "--seed", "9",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["census", "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == 0
    man_a = json.load(open(tmp_path / "a" / "manifest.json"))
    man_b = json.load(open(tmp_path / "b" / "manifest.json"))
    assert man_a["config"]["seed"] == 9
    assert man_a["config_hash"] == man_b["config_hash"]
    assert man_a["chain_hash"] != man_b["chain_hash"]


def test_run_decay_subcommand(tmp_path):
    cfg = {"p": 0.3, "q": 1.0, "n_schedule": [2, 3], "samples": 2000,
           "box_factor": 5, "seed": 2}
    run("decay", cfg, str(tmp_path / "d"))
    doc = json.load(open(tmp_path / "d" / "rep000" / "decay.json"))
    assert doc["n"] == [2, 3]
    assert all(v is None or v > 0 for v in doc["a_origin"])


def test_run_surgery_subcommand(tmp_path):
    cfg = {"sides": [8, 8], "p": 0.45, "instances": 5, "q": 2.0,
           "seed": 4, "max_distance": 4}
    run("surgery", cfg, str(tmp_path / "s"))
    doc = json.load(open(tmp_path / "s" / "rep000" / "surgery.json"))
    assert len(doc["instances"]) == 5
    assert all(row["merged_single_cluster"] for row in doc["instances"])
    assert all(row["ratio_ok"] for row in doc["instances"])


def test_run_chenstein_subcommand(tmp_path, capsys):
    cfg = {"sides": [6], "p": 0.5, "q": 1.0, "samples": 3000, "n": 2,
           "seed": 6}
    run("chenstein", cfg, str(tmp_path / "c"))
    out = capsys.readouterr().out
    assert "tv bound" in out and "exact tv" in out
    doc = json.load(open(tmp_path / "c" / "rep000" / "report.json"))
    assert doc["report"]["n"] == 2
    assert doc["exact"]["holds"]


def test_chenstein_replicas_get_their_own_pair_tables(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sides": [6, 6], "p": 0.6, "q": 1.0,
                                    "samples": 300, "n": 2, "seed": 4}))
    assert main(["chenstein", "--config", str(cfg_path), "--out",
                 str(tmp_path / "c"), "--replicas", "2"]) == 0
    docs = [json.load(open(tmp_path / "c" / f"rep00{r}" / "report.json"))
            for r in (0, 1)]
    assert docs[0]["px_field"] != docs[1]["px_field"]
    assert docs[0]["pxy"] != docs[1]["pxy"]


def test_run_decay_honours_boundary(tmp_path, monkeypatch):
    from fkpoisson import experiment
    from fkpoisson.fk import WIRED
    seen = []
    decay_rate = experiment.decay_rate

    def spy(params, *args, **kwargs):
        seen.append(params)
        return decay_rate(params, *args, **kwargs)

    monkeypatch.setattr(experiment, "decay_rate", spy)
    cfg = {"p": 0.3, "q": 1.0, "n_schedule": [2], "samples": 50,
           "boundary": "wired", "seed": 2}
    run("decay", cfg, str(tmp_path / "d"))
    assert [prm.boundary for prm in seen] == [WIRED]


def test_run_surgery_honours_boundary(tmp_path, monkeypatch):
    from fkpoisson import experiment
    from fkpoisson.fk import WIRED
    seen = []
    check = experiment.surgery_mod.weight_ratio_check

    def spy(params, *args, **kwargs):
        seen.append(params)
        return check(params, *args, **kwargs)

    monkeypatch.setattr(experiment.surgery_mod, "weight_ratio_check", spy)
    cfg = {"sides": [6, 6], "p": 0.5, "instances": 3, "boundary": "wired",
           "seed": 5}
    run("surgery", cfg, str(tmp_path / "s"))
    assert [(prm.q, prm.boundary) for prm in seen] == [(2.0, WIRED)] * 3


def test_chenstein_report_flags_a_vacuous_sampled_bound(tmp_path):
    # the 8x8 q = 1 config of the benchmark: b1 alone is large
    cfg = {"sides": [8, 8], "p": 0.6, "q": 1.0, "samples": 2000, "n": 2,
           "seed": 5}
    run("chenstein", cfg, str(tmp_path / "v"))
    bound = json.load(open(tmp_path / "v" / "rep000" / "report.json")
                      )["report"]["tv_bound"]
    assert bound["hi"] >= 2.0 and bound["vacuous"] is True
    cfg = {"sides": [6], "p": 0.5, "q": 1.0, "samples": 3000, "n": 2,
           "seed": 6}
    run("chenstein", cfg, str(tmp_path / "c"))
    bound = json.load(open(tmp_path / "c" / "rep000" / "report.json")
                      )["report"]["tv_bound"]
    assert bound["hi"] < 2.0 and bound["vacuous"] is False


def test_run_coupling_subcommand(tmp_path):
    cfg = {"sides": [5, 5], "p": 0.9, "q": 2.0, "pairs": 60,
           "thinning": 1, "burn_in": 30, "seed": 7,
           "gamma_sides": [1, 3], "separations": [1, 2]}
    run("coupling", cfg, str(tmp_path / "k"))
    inf = open(tmp_path / "k" / "rep000" / "influence.csv").read()
    mix = open(tmp_path / "k" / "rep000" / "mixing.csv").read()
    assert inf.startswith("gamma,distance,")
    assert mix.startswith("separation,")
    assert len(inf.splitlines()) >= 4


def test_run_wulff_subcommand(tmp_path):
    cfg = {"sides": [14, 14], "p": 0.7, "q": 1.0, "samples": 40, "n": 4,
           "seed": 8, "shape_side": 1.0, "delta": 0.5}
    run("wulff", cfg, str(tmp_path / "w"))
    doc = json.load(open(tmp_path / "w" / "rep000" / "wulff.json"))
    rows = [json.loads(line) for line in
            open(tmp_path / "w" / "rep000" / "wulff.jsonl")]
    assert len(rows) == 40
    assert doc["f_width"] >= 1
    assert 0.0 <= doc["event_rate"] <= 1.0


def test_run_coupling_outcome_dump(tmp_path):
    cfg = {"sides": [5, 5], "p": 0.9, "q": 2.0, "pairs": 30,
           "thinning": 1, "burn_in": 20, "seed": 9, "gamma_sides": [1],
           "separations": [1], "dump_outcomes": 5}
    run("coupling", cfg, str(tmp_path / "k"))
    rows = [json.loads(line) for line in
            open(tmp_path / "k" / "rep000" / "outcomes.jsonl")]
    assert len(rows) == 5
    assert all("black_cluster" in r and "k" in r for r in rows)


def test_run_threads_deterministic(tmp_path):
    cfg = {"sides": [5, 5], "p": 0.55, "q": 1.0, "samples": 30, "n": 2,
           "seed": 1}
    m1 = run("census", cfg, str(tmp_path / "t1"), replicas=2, threads=2)
    m2 = run("census", cfg, str(tmp_path / "t2"), replicas=2, threads=1)
    assert m1["chain_hash"] == m2["chain_hash"]


def read_fkc(path):
    from fkpoisson.fk import config_from_bytes
    blob = open(path, "rb").read()
    out = []
    off = 0
    while off < len(blob):
        ln = int.from_bytes(blob[off:off + 4], "little")
        out.append(config_from_bytes(blob[off + 4:off + 4 + ln])[0])
        off += 4 + ln
    return out


def test_sample_and_census_draw_the_same_states(tmp_path):
    # census rows can be checked against the states `sample` writes only
    # because both subcommands draw the same states from one config: the
    # same chain at q = 2, the same direct draws at q = 1
    from fkpoisson.census import census_from_states
    for q in (2.0, 1.0):
        cfg = {"sides": [7, 6], "p": 0.62, "q": q, "samples": 6,
               "thinning": 2, "burn_in": 15, "seed": 41}
        run("sample", cfg, str(tmp_path / f"s{q}"))
        run("census", dict(cfg, n=2), str(tmp_path / f"c{q}"))
        configs = read_fkc(tmp_path / f"s{q}" / "rep000" / "samples.fkc")
        ref = census_from_states(configs[0].box,
                                 np.array([c.state for c in configs]), 2)
        rows = [json.loads(line) for line in
                open(tmp_path / f"c{q}" / "rep000" / "census.jsonl")]
        assert rows == [{"sample": int(i), "size": int(z),
                         "mass_center": [int(v) for v in c],
                         "touches_boundary": bool(t)}
                        for i, z, c, t in zip(ref.sample_id, ref.size,
                                              ref.center, ref.touches)]


@pytest.mark.parametrize("subcommand, config", [
    ("sample", _SAMPLE),
    ("census", dict(_WULFF, samples=3)),
    ("chenstein", _CHENSTEIN),
    ("oracle", {"sides": [2, 2], "p": 0.5, "q": 2.0, "n": 1}),
    ("surgery", {"sides": [4, 4], "p": 0.5, "instances": 1}),
    ("coupling", _COUPLING),
    ("wulff", dict(_WULFF, shape_side=1.0)),
    ("decay", {"p": 0.5, "q": 1.0, "n_schedule": [2], "samples": 5}),
])
def test_manifest_config_reruns(tmp_path, subcommand, config):
    """The normalized config a manifest records is a valid config of its
    subcommand, and rerunning it writes the same outputs."""
    first = run(subcommand, config, str(tmp_path / "a"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(first["config"]))
    assert main([subcommand, "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == 0
    again = json.load(open(tmp_path / "b" / "manifest.json"))
    assert again["config"] == first["config"]
    assert again["outputs"] == first["outputs"]
    assert again["chain_hash"] == first["chain_hash"]


def test_run_sample_roundtrip(tmp_path):
    from fkpoisson.fk import config_from_bytes
    cfg = {"sides": [3, 3], "p": 0.5, "q": 2.0, "samples": 4,
           "thinning": 2, "burn_in": 10, "seed": 5}
    run("sample", cfg, str(tmp_path / "s"))
    blob = open(tmp_path / "s" / "rep000" / "samples.fkc", "rb").read()
    count = 0
    off = 0
    while off < len(blob):
        ln = int.from_bytes(blob[off:off + 4], "little")
        off += 4
        config, params, meta = config_from_bytes(blob[off:off + ln])
        off += ln
        assert config.box.sides == (3, 3)
        assert meta["sweep_index"] == count
        count += 1
    assert count == 4
