"""Traced run: the workload's real ``experiment.run`` calls, with a timing
wrapper around the public functions of lattice, fk, census, chenstein,
oracle and experiment.

``install`` wraps each timed function where it is defined and wherever
another fkpoisson module imported it by name, so every call the program
makes is timed, by whatever route it comes, and spans nest through the
call stack: the exact px field that ``exact_bound_instance`` computes is
a child of that call's span.  Nothing here repeats the program's steps,
so after a change to the program the spans show what the program does
then; a call it no longer makes stops appearing.

Spans are kept in memory and written as JSON lines when the run ends.
Each records workload, repetition, layer, call, start, end (seconds from
``install``), the span that caused it, the units of work the call did
(the denominators of the per-layer rates) and, for a call that returns a
Census, its row count.

``harness.py`` imports this module after putting the checkout's ``src``
on the path.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from functools import cached_property

from fkpoisson import census, chenstein, experiment, fk, lattice, oracle

# Every public function defined in these modules is timed, except those
# in SKIP: they run once per cluster, where a wrapper would cost about as
# much as the call and add that cost to the calls that make them.
WHOLE = (fk, census, chenstein, oracle)
SKIP = {"census.mass_center"}
# Methods timed, per module and class.  Every cached table of Box is timed
# too: they are built lazily, inside whichever call first needs them.
METHODS = {
    lattice: {"Box": ("__init__",)},
    census: {"Census": ("to_jsonl", "px_field", "counts_per_sample")},
    oracle: {"ExactDistribution": ("to_table",)},
}


def _n_configs(a, r):
    return a["dist"].n_configs


# Units of work per call, from the call's bound arguments and its result;
# a call not named here counts 1.
UNITS = {
    "fk.sweep": lambda a, r: a["config"].box.n_sites,
    "census.census_from_cluster_sets": lambda a, r: r.n_samples,
    "census.census_q1_d2": lambda a, r: r.n_samples,
    "census.Census.to_jsonl": lambda a, r: a["self"].n_rows,
    "chenstein.estimate_pxy": lambda a, r: r.n_samples,
    "chenstein.compute_b3_stratified": lambda a, r: a["box"].n_sites,
    "oracle.enumerate_measure": lambda a, r: r.n_configs,
    "oracle.exact_px_field": _n_configs,
    "oracle.exact_pxy_matrix": _n_configs,
    "oracle.exact_point_process_law": _n_configs,
    "oracle.conjecture7_check": lambda a, r: 1 << a["box"].n_bonds,
}

# name: (calls, scale).  value = scale * time / units over the spans of
# the calls, where a span's time leaves out the calls of other rates that
# it makes, so no time counts for two rates: the rows of a census exclude
# the labeling that feeds them, and the bound instance excludes the exact
# laws it asks oracle for.  A name ending in "." takes every call under
# it; Box tables count no units, so the box rate is per Box built.
RATES = {
    "lattice.box_build_ms": ("lattice.Box.", 1e3),
    "fk.sweep_us_per_site": ("fk.sweep", 1e6),
    "fk.serialize_us_per_config": ("fk.config_to_bytes", 1e6),
    "census.label_ms_per_config": ("census.label_clusters", 1e3),
    "census.rows_ms_per_sample": ("census.census_from_cluster_sets", 1e3),
    "census.jsonl_us_per_row": ("census.Census.to_jsonl", 1e6),
    "census.tiled_us_per_sample": ("census.census_q1_d2", 1e6),
    "chenstein.pxy_ms_per_sample": ("chenstein.estimate_pxy", 1e3),
    "chenstein.b1_b2_ms": ("chenstein.compute_b1_b2", 1e3),
    "chenstein.b3_ms_per_site": ("chenstein.compute_b3_stratified", 1e3),
    "chenstein.poisson_ms": ("chenstein.poisson_count_test", 1e3),
    "chenstein.bound_instance_ms": ("chenstein.exact_bound_instance", 1e3),
    "oracle.enumerate_us_per_config": ("oracle.enumerate_measure", 1e6),
    "oracle.px_us_per_config": ("oracle.exact_px_field", 1e6),
    "oracle.pxy_us_per_config": ("oracle.exact_pxy_matrix", 1e6),
    "oracle.law_us_per_config": ("oracle.exact_point_process_law", 1e6),
    "oracle.conjecture7_us_per_config": ("oracle.conjecture7_check", 1e6),
}

# span fields, in the order they are kept
FIELDS = ("id", "parent", "rep", "name", "start", "end", "units", "rows")
ID, PARENT, REP, NAME, START, END, UNITS_, ROWS = range(len(FIELDS))


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn, units=None):
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, \
            self._t0
        sig = inspect.signature(fn) if units else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.rep, name,
                    clock() - t0, None, 1, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock() - t0
                stack.pop()
            if units is not None:
                span[UNITS_] = units(sig.bind(*args, **kwargs).arguments,
                                     result)
            if isinstance(result, census.Census):
                span[ROWS] = result.n_rows
            return result
        return timed

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = dict(zip(FIELDS, s))
                layer, call = rec.pop("name").split(".", 1)
                fh.write(json.dumps({"workload": self.workload,
                                     "layer": layer, "call": call,
                                     **rec}) + "\n")

    def metrics(self, reps: int, refs: list[float]) -> dict:
        """The per-layer metrics of ``reps`` traced repetitions; ``refs``
        are the reference-loop times taken between them."""
        spans = self.spans
        rate_of = {}
        for s in spans:
            if s[NAME] not in rate_of:
                rate_of[s[NAME]] = next(
                    (m for m, (calls, _) in RATES.items()
                     if s[NAME] == calls or (calls.endswith(".")
                                             and s[NAME].startswith(calls))),
                    None)
        seconds = dict.fromkeys(RATES, 0.0)
        units = dict.fromkeys(RATES, 0)
        for s in spans:
            rate = rate_of[s[NAME]]
            if rate is None:
                continue
            took = s[END] - s[START]
            seconds[rate] += took
            units[rate] += s[UNITS_]
            p = s[PARENT]
            while p is not None and rate_of[spans[p][NAME]] is None:
                p = spans[p][PARENT]
            if p is not None:  # the enclosing rated call did not do this
                seconds[rate_of[spans[p][NAME]]] -= took
        out = {m: scale * seconds[m] / units[m] if units[m] else 0.0
               for m, (_, scale) in RATES.items()}
        out["fk.sweeps"] = sum(s[NAME] == "fk.sweep" for s in spans) / reps
        out["census.rows"] = sum(
            s[ROWS] for s in self._rows_spans()) / reps
        out["oracle.configs"] = sum(
            s[UNITS_] for s in spans
            if s[NAME] == "oracle.enumerate_measure") / reps
        # the time experiment.run spends outside every timed call it makes
        own = 0.0
        for s in spans:
            if s[NAME] == "experiment.run":
                own += s[END] - s[START]
            elif s[PARENT] is not None and \
                    spans[s[PARENT]][NAME] == "experiment.run":
                own -= s[END] - s[START]
        out["experiment.other_ms"] = 1e3 * own / reps
        out["host.reference_ms"] = 1e3 * statistics.median(refs)
        return out

    def _rows_spans(self) -> list[list]:
        """Spans that returned a Census not returned again by an enclosing
        span (census_sampled returns the census its callees built)."""
        spans = self.spans
        out = []
        for s in spans:
            if s[ROWS] is None:
                continue
            p = s[PARENT]
            while p is not None and spans[p][ROWS] is None:
                p = spans[p][PARENT]
            if p is None:
                out.append(s)
        return out


def install(workload: str) -> Tracer:
    """Wrap the timed functions for the rest of this process."""
    tr = Tracer(workload)
    wrapped = {}  # id(original) -> wrapper
    for mod in WHOLE:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            full = f"{layer}.{name}"
            if name.startswith("_") or full in SKIP or \
                    not inspect.isfunction(fn) or \
                    fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = tr.wrap(full, fn, UNITS.get(full))
    wrapped[id(experiment.run)] = tr.wrap("experiment.run", experiment.run)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fkpoisson" or mod_name.startswith("fkpoisson."):
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, name, wrapped[id(value)])

    for mod, classes in METHODS.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        for cls_name, names in classes.items():
            cls = getattr(mod, cls_name)
            for name in names:
                full = f"{layer}.{cls_name}.{name}"
                setattr(cls, name, tr.wrap(full, getattr(cls, name),
                                           UNITS.get(full)))
    for name, prop in vars(lattice.Box).items():
        if isinstance(prop, cached_property):
            prop.func = tr.wrap(f"lattice.Box.{name}", prop.func,
                                lambda a, r: 0)
    return tr
