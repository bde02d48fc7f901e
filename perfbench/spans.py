"""Spans around the calls into each layer, for the traced run only.

``Tracer.install`` replaces each public function of a layer where its caller
looks it up: the attribute in the calling module (``arczeta.verifier.
count_branch_image``), a method on its class (``RatFunc.taylor``), or the
benchmark's own bindings in ``workloads.lib``.  ``uninstall`` puts the
originals back, so untraced rounds run the program untouched.  Spans stay in
memory until ``write``.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracle
import workloads

from arczeta import cli, presburger, ratseries, verifier


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_arcs(a: dict, result, counts: Counter) -> None:
    b, p = a["b"], a["p"]
    if "d" not in a:  # geometric search: one window per extension degree d <= m
        counts["counting.arcs"] += sum(oracle.window_arcs(b.m, p**d, a["n"]) for d in range(1, b.m + 1))
        counts["counting.image_rows"] += result
        return
    q = p ** a["d"]
    ns = range(a["n_max"] + 1) if "n_max" in a else (a["n"],)
    for n in ns:
        counts["counting.arcs"] += oracle.window_arcs(b.m, q, n) if a["window"] else q ** (n + 1)
    counts["counting.image_rows"] += sum(r.count for r in result.rows) if "n_max" in a else result


def _count_lift(a: dict, result, counts: Counter) -> None:
    counts["liftable.nodes"] += result.nodes
    counts["liftable.counted"] += result.count
    counts["liftable.certified"] += int(result.certified)


def _count_specialize(a: dict, result, counts: Counter) -> None:
    counts["ratseries.den_degree"] += sum(b for _, b in a["x"].geom)


def _atoms(f) -> int:
    if isinstance(f, (presburger.Cmp, presburger.Cong)):
        return 1
    if isinstance(f, presburger.Not):
        return _atoms(f.arg)
    if isinstance(f, (presburger.And, presburger.Or)):
        return sum(_atoms(g) for g in f.args)
    if isinstance(f, (presburger.Exists, presburger.Forall)):
        return _atoms(f.body)
    return 0


def _count_qe(a: dict, result, counts: Counter) -> None:
    counts["presburger.qe_out_atoms"] += _atoms(result)


def _count_rows(a: dict, result, counts: Counter) -> None:
    counts["verifier.rows"] += len(result.rows)


def _count_pieces(a: dict, result, counts: Counter) -> None:
    counts["ranges.pieces"] += len(result.pieces)


LAYER_UNITS = {
    "cli.self_ms": "ms",
    "verifier.self_s": "s",
    "verifier.rows": "count",
    "branch.series_s": "s",
    "ratseries.specialize_s": "s",
    "ratseries.specialize_calls": "count",
    "ratseries.specialize_max_ms": "ms",
    "ratseries.den_degree": "count",
    "ratseries.taylor_s": "s",
    "ratseries.normalize_s": "s",
    "ratseries.poles_s": "s",
    "ratseries.render_s": "s",
    "presburger.qe_s": "s",
    "presburger.qe_calls": "count",
    "presburger.qe_out_atoms": "count",
    "presburger.self_s": "s",
    "ranges.decompose_s": "s",
    "ranges.pieces": "count",
    "ranges.sum_s": "s",
    "counting.count_s": "s",
    "counting.calls": "count",
    "counting.arcs": "count",
    "counting.arcs_per_s": "1/s",
    "counting.image_rows": "count",
    "counting.yield": "ratio",
    "counting.igusa_s": "s",
    "liftable.count_s": "s",
    "liftable.calls": "count",
    "liftable.nodes": "count",
    "liftable.nodes_per_s": "1/s",
    "liftable.yield": "ratio",
    "liftable.certified_ratio": "ratio",
    "run.cpu_s": "s",
    "run.trace_overhead_s": "s",
}


# (owner, attribute, span name, counter)
def _bindings():
    lib = workloads.lib
    out = [
        (lib, "cli", "cli", None),
        (lib, "run_plan", "verifier", _count_rows),
        (cli, "verify_igusa", "verifier", _count_rows),
        (lib, "rs_specialize", "ratseries.specialize", _count_specialize),
        (verifier, "rs_specialize", "ratseries.specialize", _count_specialize),
        (ratseries.RatFunc, "taylor", "ratseries.taylor", None),
        (cli, "rs_normalize", "ratseries.normalize", None),
        (cli, "rs_poles_in_L", "ratseries.poles", None),
        (cli, "rs_text", "ratseries.render", None),
        (cli, "rs_to_json", "ratseries.render", None),
        (cli, "rs_latex", "ratseries.render", None),
        (cli, "eliminate_quantifiers", "presburger.qe", _count_qe),
        (cli, "parse_presburger", "presburger.other", None),
        (cli, "simplify", "presburger.other", None),
        (cli, "to_text", "presburger.other", None),
        (cli, "to_iterated_ranges", "ranges.decompose", _count_pieces),
        (cli, "weighted_sum", "ranges.sum", None),
        (lib, "count_branch_image", "counting.count", _count_arcs),
        (lib, "count_branch_report", "counting.count", _count_arcs),
        (verifier, "count_branch_image", "counting.count", _count_arcs),
        (verifier, "count_branch_image_geometric", "counting.count", _count_arcs),
        (cli, "igusa_monomial", "counting.igusa", None),
        (verifier, "igusa_monomial", "counting.igusa", None),
        (verifier, "measure_ord_locus", "counting.igusa", None),
        (verifier, "count_liftable", "liftable.count", _count_lift),
    ]
    for owner in (lib, cli, verifier):
        for fn in ("characteristic_sequence", "p_ar", "p_geom"):
            out.append((owner, fn, "branch.series", None))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, t0, t1, tracer.request)
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(_args(fn, args, kwargs), result, tracer.counts)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in _bindings():
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, t0, t1, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1, "request": req}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals per round of the op list (see README for units)."""
        dur: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        child = defaultdict(float)
        longest: dict[str, float] = defaultdict(float)
        for sid, parent, name, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, parent, name, t0, t1, _ in self.spans:
            d = t1 - t0
            dur[name] += d
            self_t[name.split(".")[0]] += d - child[sid]
            longest[name] = max(longest[name], d)
        c = self.counts
        r = max(rounds, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "cli.self_ms": 1000 * self_t["cli"] / r,
            "verifier.self_s": self_t["verifier"] / r,
            "verifier.rows": c["verifier.rows"] / r,
            "branch.series_s": dur["branch.series"] / r,
            "ratseries.specialize_s": dur["ratseries.specialize"] / r,
            "ratseries.specialize_calls": c["ratseries.specialize.calls"] / r,
            "ratseries.specialize_max_ms": 1000 * longest["ratseries.specialize"],
            "ratseries.den_degree": c["ratseries.den_degree"] / r,
            "ratseries.taylor_s": dur["ratseries.taylor"] / r,
            "ratseries.normalize_s": dur["ratseries.normalize"] / r,
            "ratseries.poles_s": dur["ratseries.poles"] / r,
            "ratseries.render_s": dur["ratseries.render"] / r,
            "presburger.qe_s": dur["presburger.qe"] / r,
            "presburger.qe_calls": c["presburger.qe.calls"] / r,
            "presburger.qe_out_atoms": c["presburger.qe_out_atoms"] / r,
            "presburger.self_s": self_t["presburger"] / r,
            "ranges.decompose_s": dur["ranges.decompose"] / r,
            "ranges.pieces": c["ranges.pieces"] / r,
            "ranges.sum_s": dur["ranges.sum"] / r,
            "counting.count_s": dur["counting.count"] / r,
            "counting.calls": c["counting.count.calls"] / r,
            "counting.arcs": c["counting.arcs"] / r,
            "counting.arcs_per_s": ratio(c["counting.arcs"], dur["counting.count"]),
            "counting.image_rows": c["counting.image_rows"] / r,
            "counting.yield": ratio(c["counting.image_rows"], c["counting.arcs"]),
            "counting.igusa_s": dur["counting.igusa"] / r,
            "liftable.count_s": dur["liftable.count"] / r,
            "liftable.calls": c["liftable.count.calls"] / r,
            "liftable.nodes": c["liftable.nodes"] / r,
            "liftable.nodes_per_s": ratio(c["liftable.nodes"], dur["liftable.count"]),
            "liftable.yield": ratio(c["liftable.counted"], c["liftable.nodes"]),
            "liftable.certified_ratio": ratio(c["liftable.certified"], c["liftable.count.calls"]),
        }
