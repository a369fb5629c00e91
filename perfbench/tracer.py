"""Per-layer tracing of ossprim, wrapped from outside the library.

Each spanned function is wrapped at the name its caller looks up: a layer
reached as ``prng.derive_key`` from ``nsprp`` is wrapped by replacing the
``prng`` global of ``nsprp`` with a proxy module, so calls inside ``prng``
itself stay unwrapped and cost nothing.  Names that callers in several layers
share (a ``from`` import such as ``merge.sample``, a module global such as
``fastpath.gauss_draw_even``, a method called across layers) are patched in
place on their owner.  Every patch is undone when the tracer is uninstalled.

A span records its name, start, end, parent span and op id in flat arrays;
nothing is written until the run ends.  SHA-256 calls are only counted, at
the ``hashlib`` binding ``prng`` uses: there are millions per run.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import workloads
from ossprim import fastpath, gf2, hypergeom, merge, nsprp, oss, prng

LAYERS = ("prng", "hypergeom", "merge", "nsprp", "fastpath", "gf2", "oss")

# (caller module, the global it reaches a layer by, that layer, functions spanned)
PROXIED = (
    (workloads, "nsprp", "nsprp", (
        "make_prp_key", "make_scale_prp_key", "prp_forward", "prp_inverse",
        "prp_permute", "permuted_prp_forward", "permuted_prp_inverse",
        "prp_forward_batch", "prp_inverse_batch")),
    (workloads, "oss", "oss", ("oss_gen", "oss_p", "oss_p_inv", "oss_d")),
    (nsprp, "prng", "prng", ("derive_key", "prf_eval")),
    (nsprp, "merge_mod", "merge", (
        "merge_forward", "merge_inverse", "merge_permute",
        "permuted_merge_eval", "permuted_merge_inverse")),
    (nsprp, "fastpath", "fastpath", ("prp_forward_batch", "prp_inverse_batch", "mix64_np")),
    (merge, "prng", "prng", ("_expand", "_finalize", "punctured_tree_eval", "puncture_nodes", "mix64")),
    (oss, "nsprp", "nsprp", ("prp_forward", "prp_inverse", "make_scale_prp_key")),
    (oss, "prng", "prng", ("derive_key", "bit_stream")),
    (oss, "gf2", "gf2", ("random_full_column_rank", "random_vector", "solve_coordinates")),
)

# (owner, attribute, span name): patched in place
IN_PLACE = (
    (merge, "sample", "hypergeom.sample"),
    (hypergeom, "sample", "hypergeom.sample"),
    (fastpath, "gauss_draw_even", "fastpath.gauss_draw_even"),
    (oss, "AffineCoset", "gf2.AffineCoset"),
    (gf2.AffineCoset, "point", "gf2.AffineCoset.point"),
    (prng.BitStream, "bits", "prng.BitStream.bits"),
    (prng.PrfKey, "fast_words", "prng.PrfKey.fast_words"),
)

WALKS = ("merge.merge_forward", "merge.merge_inverse")
PERMUTED_WALKS = ("merge.permuted_merge_eval", "merge.permuted_merge_inverse")
QUERIES = ("oss.oss_p", "oss.oss_p_inv", "oss.oss_d")


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces while installed."""
    return ([(caller, attr) for caller, attr, _, _ in PROXIED]
            + [(owner, attr) for owner, attr, _ in IN_PLACE]
            + [(prng, "hashlib"), (merge, "_draw_left"), (oss.OssInstance, "coset")])


class _Proxy:
    """Stands in for a module at one caller's global: the replaced names are
    attributes of the proxy, every other lookup goes to the real module."""

    def __init__(self, real, replaced: dict):
        self.__dict__.update(replaced)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = [-1]
        self.counts = {"prng.sha256": 0, "hypergeom.iters": 0, "merge.walk_levels": 0,
                       "merge.walk_draws": 0, "fastpath.lanes": 0, "oss.coset_lookups": 0}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span; ``hook(args, result)`` runs after it returns."""
        nid = self._name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, op_id, clock = self._stack, self._op_id, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op_id[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def call_op(self, i: int, fn, *args):
        """Run one workload op under a root ``bench.op`` span."""
        self._op_id[0] = i
        return self.spanned("bench.op", fn)(*args)

    # -- hooks: counts derived from call arguments and results ----------------

    def _hooks(self) -> dict:
        counts = self.counts

        def draw(args, x):
            counts["hypergeom.iters"] += x - args[0].support_min + 1

        def walk(args, _):
            counts["merge.walk_levels"] += (args[0].n - 1).bit_length()

        def lanes(args, _):
            counts["fastpath.lanes"] += len(args[1])

        def dual_lookup(args, _):
            counts["oss.coset_lookups"] += 1  # oss_d reads A(y) from the coset source

        return {"hypergeom.sample": draw, "merge.merge_forward": walk,
                "merge.merge_inverse": walk, "fastpath.gauss_draw_even": lanes,
                "oss.oss_d": dual_lookup}

    def _counted_globals(self) -> list[tuple[object, str, object]]:
        counts, stack, names = self.counts, self._stack, self.name
        walk_ids = {self._name_id(w) for w in WALKS}
        real_sha = prng.hashlib.sha256
        draw_left = merge._draw_left
        coset = oss.OssInstance.coset

        def sha256(*args):
            counts["prng.sha256"] += 1
            return real_sha(*args)

        def counted_draw_left(*args):
            if stack[-1] >= 0 and names[stack[-1]] in walk_ids:
                counts["merge.walk_draws"] += 1
            return draw_left(*args)

        def counted_coset(inst, y):
            counts["oss.coset_lookups"] += 1
            return coset(inst, y)

        return [(prng, "hashlib", _Proxy(prng.hashlib, {"sha256": sha256})),
                (merge, "_draw_left", counted_draw_left),
                (oss.OssInstance, "coset", counted_coset)]

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Patch every traced name; restore all of them on exit."""
        try:
            for owner, attr, new in self._counted_globals():
                self._patch(owner, attr, new)
            hooks = self._hooks()
            for owner, attr, span in IN_PLACE:
                self._patch(owner, attr, self.spanned(span, getattr(owner, attr), hooks.get(span)))
            for caller, attr, layer, funcs in PROXIED:
                real = getattr(caller, attr)
                wrapped = {f: self.spanned(f"{layer}.{f}", getattr(real, f), hooks.get(f"{layer}.{f}"))
                           for f in funcs}
                self._patch(caller, attr, _Proxy(real, wrapped))
            yield self
        finally:
            while self._undo:
                owner, attr, orig = self._undo.pop()
                setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path: str, **meta) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, span_names=np.array(self.span_names), **meta, **self.arrays())


def layer_metrics(tr: Tracer, evals: int, ops: int) -> tuple[dict, dict]:
    """Per-layer metrics {name: (value, unit)} and each layer's self-time share.

    A span's self time is its duration minus its children's; a layer's self
    time sums its spans'.  Shares are of the total op time, the rest being the
    harness itself (``bench``).  A ratio whose base is zero reads 0; its base
    counts are reported beside it.
    """
    a = tr.arrays()
    names, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    nspan = len(tr.span_names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    layer_ids = {name: i for i, name in enumerate(LAYERS + ("bench",))}
    span_layer = np.array([layer_ids[s.split(".")[0]] for s in tr.span_names], dtype=np.int64)
    layer_of = span_layer[names]
    layer_self = np.bincount(layer_of, weights=self_t, minlength=len(layer_ids))
    calls_arr = np.bincount(names, minlength=nspan)
    incl_arr = np.bincount(names, weights=dur, minlength=nspan)
    calls = {s: int(calls_arr[i]) for i, s in enumerate(tr.span_names)}
    incl = {s: float(incl_arr[i]) for i, s in enumerate(tr.span_names)}
    c = tr.counts

    def n(span):
        return calls.get(span, 0)

    def t(span):
        return incl.get(span, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    total = t("bench.op")
    share = {layer: ratio(float(layer_self[layer_ids[layer]]), total) for layer in layer_ids}
    ms_self = {layer: 1e3 * float(layer_self[layer_ids[layer]]) for layer in layer_ids}

    parent_name = np.full(len(names), -1, dtype=np.int64)
    parent_name[has_parent] = names[parent[has_parent]]
    perm_ids = [tr._ids[w] for w in PERMUTED_WALKS if w in tr._ids]
    sample_id = tr._ids.get("hypergeom.sample", -2)
    permuted_draws = int(np.count_nonzero((names == sample_id) & np.isin(parent_name, perm_ids)))
    permuted_walks = sum(n(w) for w in PERMUTED_WALKS)

    fast = layer_of == layer_ids["fastpath"]
    parent_layer = np.full(len(names), -1, dtype=np.int64)
    parent_layer[has_parent] = layer_of[parent[has_parent]]
    outer_fast = fast & (parent_layer != layer_ids["fastpath"])
    fast_calls = int(np.count_nonzero(outer_fast))
    fast_time = float(dur[outer_fast].sum())

    draws = n("hypergeom.sample")
    walks = sum(n(w) for w in WALKS)
    queries = sum(n(q) for q in QUERIES)
    built = n("gf2.random_full_column_rank")
    m = {
        "prng.sha256_calls": (c["prng.sha256"], "count"),
        "prng.sha256_per_eval": (ratio(c["prng.sha256"], evals), "calls/eval"),
        "prng.derive_key_calls": (n("prng.derive_key"), "count"),
        "prng.derive_key_per_eval": (ratio(n("prng.derive_key"), evals), "calls/eval"),
        "prng.punctured_evals": (n("prng.punctured_tree_eval"), "count"),
        "prng.punctured_evals_per_eval": (ratio(n("prng.punctured_tree_eval"), evals), "calls/eval"),
        "prng.self_ms_per_eval": (ratio(ms_self["prng"], evals), "ms/eval"),
        "prng.self_share": (share["prng"], "ratio"),
        "hypergeom.draws": (draws, "count"),
        "hypergeom.draws_per_eval": (ratio(draws, evals), "draws/eval"),
        "hypergeom.iters": (c["hypergeom.iters"], "count"),
        "hypergeom.iters_per_draw": (ratio(c["hypergeom.iters"], draws), "iters/draw"),
        "hypergeom.us_per_draw": (ratio(1e6 * t("hypergeom.sample"), draws), "us/draw"),
        "hypergeom.self_share": (share["hypergeom"], "ratio"),
        "merge.walks": (walks, "count"),
        "merge.walk_levels": (c["merge.walk_levels"], "count"),
        "merge.walk_draws": (c["merge.walk_draws"], "count"),
        "merge.memo_hit_ratio": (1.0 - ratio(c["merge.walk_draws"], c["merge.walk_levels"])
                                 if c["merge.walk_levels"] else 0.0, "ratio"),
        "merge.self_ms_per_eval": (ratio(ms_self["merge"], evals), "ms/eval"),
        "merge.permuted_walks": (permuted_walks, "count"),
        "merge.permuted_draws": (permuted_draws, "count"),
        "merge.permuted_draws_per_walk": (ratio(permuted_draws, permuted_walks), "draws/walk"),
        "merge.permute_ms_per_op": (ratio(1e3 * t("merge.merge_permute"), ops), "ms/op"),
        "merge.self_share": (share["merge"], "ratio"),
        "nsprp.self_ms_per_eval": (ratio(ms_self["nsprp"], evals), "ms/eval"),
        "nsprp.permute_ms_per_op": (ratio(1e3 * t("nsprp.prp_permute"), ops), "ms/op"),
        "nsprp.self_share": (share["nsprp"], "ratio"),
        "fastpath.lane_draws": (c["fastpath.lanes"], "count"),
        "fastpath.lane_draws_per_point": (ratio(c["fastpath.lanes"], evals), "lanes/point"),
        "fastpath.ns_per_lane_draw": (ratio(1e9 * t("fastpath.gauss_draw_even"), c["fastpath.lanes"]), "ns/lane"),
        "fastpath.calls": (fast_calls, "count"),
        "fastpath.us_per_call": (ratio(1e6 * fast_time, fast_calls), "us/call"),
        "fastpath.self_share": (share["fastpath"], "ratio"),
        "gf2.cosets_built": (built, "count"),
        "gf2.cosets_built_per_query": (ratio(built, queries), "builds/query"),
        "gf2.self_ms_per_query": (ratio(ms_self["gf2"], queries), "ms/query"),
        "gf2.self_share": (share["gf2"], "ratio"),
        "oss.queries": (queries, "count"),
        "oss.coset_lookups": (c["oss.coset_lookups"], "count"),
        "oss.coset_hit_ratio": (1.0 - ratio(built, c["oss.coset_lookups"])
                                if c["oss.coset_lookups"] else 0.0, "ratio"),
        "oss.self_ms_per_query": (ratio(ms_self["oss"], queries), "ms/query"),
        "oss.self_share": (share["oss"], "ratio"),
        "bench.self_share": (share["bench"], "ratio"),
        "trace.spans": (len(names), "count"),
        "trace.evals": (evals, "count"),
    }
    return m, {layer: share[layer] for layer in LAYERS}


def check_layers(workload: str, layer: str, m: dict, shares: dict) -> list[str]:
    """The emphasis and bypass assertions of the traced run; failures as text."""
    bad = []
    top = max(shares, key=shares.get)
    if top != layer:
        bad.append(f"{workload}: largest self share is {top} ({shares[top]:.3f}), "
                   f"not {layer} ({shares[layer]:.3f})")
    if workload in ("scale-batch", "oss-paper") and m["hypergeom.draws"][0]:
        bad.append(f"{workload}: {m['hypergeom.draws'][0]} exact hypergeometric draws")
    if workload != "prp-permuted" and m["prng.punctured_evals"][0]:
        bad.append(f"{workload}: {m['prng.punctured_evals'][0]} punctured evaluations")
    if workload == "scale-batch":
        batch_calls = m["fastpath.calls"][0]
        if m["prng.sha256_calls"][0] > batch_calls:
            bad.append(f"scale-batch: {m['prng.sha256_calls'][0]} SHA-256 calls for "
                       f"{batch_calls} batch calls (hashing per point)")
    return bad
