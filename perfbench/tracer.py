"""Layer-boundary tracing of ssetkit from outside the package.

``Tracer.install`` wraps the public functions of every layer module, plus a
few methods on the classes the hot paths run through, at every name that
binds them: a function copied into another module by ``from .intmat import
solve`` is wrapped there too.  ``Tracer.restore`` puts every original back.

Each wrapper records a span (id, name, start, end, parent id) and derives
self time from the nesting as it goes: a frame's self time is its duration
less the durations of the wrapped calls made inside it.  The calls that run
hundreds of thousands of times per task (the Δ operations and the
face/degeneracy/act methods of ``FiniteSSet``) are counted and timed the
same way but keep no span each, so that the spans of a pass fit in memory.
Counts are computed from arguments and results after the call's clock has
stopped, and their cost is kept out of the caller's self time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = (
    "delta", "sset", "build", "simplicial_chains", "intmat", "groups", "chain",
    "excision", "tower", "function_complex", "quasicat", "serialize", "nerve",
    "dold_kan",
)

CLASS_METHODS = (
    ("sset", "FiniteSSet", ("__init__", "face", "degeneracy", "act")),
    ("intmat", "IntMat", ("__matmul__",)),
    ("chain", "ChainComplex", ("__post_init__",)),
    ("groups", "PresentedGroup", ("normal_form",)),
)

HOT_METHODS = {"sset.FiniteSSet.face", "sset.FiniteSSet.degeneracy", "sset.FiniteSSet.act"}

# Inclusive-time groups: the time of the outermost call into any member.
GROUPS = {
    "sset.construct": ("sset.FiniteSSet.__init__",),
    "build.product": ("build.product",),
    "build.quotient": ("build.quotient",),
    "build.pushout": ("build.pushout",),
    "build.pullback": ("build.sset_pullback",),
    "simplicial_chains": (
        "simplicial_chains.chain_basis", "simplicial_chains.normalized_chains",
        "simplicial_chains.reduced_normalized_chains",
        "simplicial_chains.chain_map_of", "simplicial_chains.reduced_chain_map_of",
    ),
    "intmat.snf": ("intmat.smith_normal_form",),
    "intmat.matmul": ("intmat.IntMat.__matmul__",),
    "intmat.solve": ("intmat.solve",),
    "intmat.kernel": ("intmat.kernel_basis",),
    "groups.normal_form": ("groups.PresentedGroup.normal_form",),
    "groups.exact_at": ("groups.exact_at",),
    "chain.validate": ("chain.ChainComplex.__post_init__",),
    "chain.homology": ("chain.homology",),
    "chain.presentation": ("chain.homology_presentation",),
    "chain.quasi_iso": ("chain.quasi_iso",),
    "excision.suspension": (
        "excision.reduced_suspension", "excision.reduced_suspension_data",
        "excision.unreduced_suspension",
    ),
    "excision.mv": ("excision.mayer_vietoris",),
    "excision.check": ("excision.excision_check",),
    "tower.eval": ("tower.eval",),
    "tower.structure_map": ("tower.structure_map",),
    "function_complex.enumerate": ("function_complex.enumerate_maps",),
    "quasicat.horn_fillers": ("quasicat.horn_fillers",),
    "serialize.parse": (
        "serialize.sset_from_record", "serialize.map_from_record",
        "serialize.chain_from_record", "serialize.preorder_from_record",
    ),
    "serialize.dump": (
        "serialize.canonical_dumps", "serialize.sset_to_record",
        "serialize.map_to_record", "serialize.chain_to_record",
        "serialize.group_to_record", "serialize.verdict_to_record",
    ),
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("delta.calls", "count"), ("delta.self_s", "s"),
    ("sset.face_calls", "count"), ("sset.degeneracy_calls", "count"),
    ("sset.act_calls", "count"), ("sset.self_s", "s"), ("sset.construct_s", "s"),
    ("build.product_s", "s"), ("build.quotient_s", "s"), ("build.pushout_s", "s"),
    ("build.pullback_s", "s"), ("build.nondeg_out", "count"),
    ("build.elements_materialized", "count"), ("build.useful_ratio", "ratio"),
    ("simplicial_chains.s", "s"), ("simplicial_chains.rank_total", "count"),
    ("simplicial_chains.boundary_nnz", "count"),
    ("intmat.snf_calls", "count"), ("intmat.snf_s", "s"), ("intmat.snf_cells", "count"),
    ("intmat.snf_nnz", "count"), ("intmat.matmul_calls", "count"),
    ("intmat.matmul_s", "s"), ("intmat.matmul_madds", "count"),
    ("intmat.solve_s", "s"), ("intmat.kernel_s", "s"),
    ("groups.normal_form_s", "s"), ("groups.exact_at_calls", "count"),
    ("groups.exact_at_s", "s"),
    ("chain.complex_calls", "count"), ("chain.validate_s", "s"),
    ("chain.homology_calls", "count"), ("chain.homology_s", "s"),
    ("chain.presentation_s", "s"), ("chain.mapping_cone_calls", "count"),
    ("chain.quasi_iso_s", "s"),
    ("excision.suspension_s", "s"), ("excision.suspension_cells", "count"),
    ("excision.mv_s", "s"), ("excision.check_s", "s"),
    ("tower.eval_s", "s"), ("tower.structure_map_s", "s"),
    ("tower.stage_rank_total", "count"),
    ("function_complex.enumerate_s", "s"), ("function_complex.maps_found", "count"),
    ("quasicat.horn_fillers_calls", "count"), ("quasicat.horn_fillers_s", "s"),
    ("quasicat.fill_ratio", "ratio"),
    ("serialize.parse_s", "s"), ("serialize.dump_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def level_size(X, k: int) -> int:
    """Number of k-simplices of X, degenerate ones included: each
    nondegenerate m-simplex has C(k, m) degeneracies in dimension k."""
    return sum(n * comb(k, m) for m, n in enumerate(X.counts()) if m <= k)


def nnz(M) -> int:
    return sum(1 for row in M.entries for x in row if x)


class Tracer:
    """Spans, self times and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.sizes: list[dict] = []
        self._groups = {g: [0, 0.0] for g in GROUPS}
        self._group_of = {k: self._groups[g] for g, keys in GROUPS.items() for k in keys}
        self._ids = itertools.count(1)
        self._stack: list[list] = [[0.0, 0]]
        self._top_level = 0.0
        self._patched: list[tuple] = []
        self._after = {
            "build.product": self._count_product,
            "build.pushout": self._count_pushout,
            "build.sset_pullback": self._count_pullback,
            "sset.FiniteSSet.__init__": self._count_space,
            "simplicial_chains.normalized_chains": self._count_chains,
            "simplicial_chains.reduced_normalized_chains": self._count_chains,
            "intmat.smith_normal_form": self._count_snf,
            "intmat.IntMat.__matmul__": self._count_matmul,
            "excision.reduced_suspension_data": self._count_suspension,
            "excision.unreduced_suspension": self._count_suspension,
            "tower.reduced_chains_evaluator": self._wrap_evaluator,
            "tower.l1_mock_evaluator": self._wrap_evaluator,
            "tower.eval": self._count_stage,
            "function_complex.enumerate_maps": self._count_maps,
            "quasicat.horn_fillers": self._count_fillers,
        }

    # -- wrappers ------------------------------------------------------------

    def wrap(self, key: str, fn, hot: bool = False):
        layer = key.split(".", 1)[0]
        stack = self._stack
        calls = self.calls
        layer_self = self.layer_self
        perf = time.perf_counter

        if hot:
            def hot_wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    calls[key] += 1
                    layer_self[layer] += dur - frame[0]
                    stack[-1][0] += dur

            return hot_wrapper

        group = self._group_of.get(key)
        after = self._after.get(key)
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            frame = [0.0, sid]
            stack.append(frame)
            if group is not None:
                group[0] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                layer_self[layer] += dur - frame[0]
                if group is not None:
                    group[0] -= 1
                    if group[0] == 0:
                        group[1] += dur
                spans.append((sid, key, t0, t1, parent[1]))
                parent[0] += dur
            if after is not None:
                result = after(args, result)
                parent[0] += perf() - t1  # counting time is not the caller's
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public callables wherever they are bound."""
        import ssetkit.cli  # noqa: F401  (loads every layer module)

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "ssetkit" or n.startswith("ssetkit.")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["ssetkit." + layer]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self.wrap(f"{layer}.{name}", fn, hot=layer == "delta")
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(sys.modules["ssetkit." + layer], cls_name)
            for meth in methods:
                key = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self.wrap(key, cls.__dict__[meth], key in HOT_METHODS))
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, name, wrappers[val])

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- tasks ---------------------------------------------------------------

    def begin_task(self, name: str) -> None:
        self.sizes.append({
            "task": name, "spaces": Counter(), "snf": Counter(), "snf_nnz": 0,
            "matmul": Counter(), "matmul_nnz": 0,
        })
        self._stack.append([0.0, 0])

    def end_task(self) -> None:
        self._top_level += self._stack.pop()[0]

    # -- counts --------------------------------------------------------------

    def _count_space(self, args, result):
        X = args[0]
        self.sizes[-1]["spaces"][str(list(X.counts()))] += 1
        return result

    def _add_build(self, elements: int, out) -> None:
        self.counts["build.elements_materialized"] += elements
        self.counts["build.nondeg_out"] += sum(out.counts())

    def _count_product(self, args, result):
        X, Y = args[0], args[1]
        top = max(X.top_dim + Y.top_dim, -1)
        self._add_build(
            sum(level_size(X, k) * level_size(Y, k) for k in range(top + 1)),
            result.space,
        )
        return result

    def _count_pushout(self, args, result):
        U, V = args[0].target, args[1].target
        top = max(U.top_dim, V.top_dim)
        self._add_build(
            sum(level_size(U, k) + level_size(V, k) for k in range(top + 1)),
            result.space,
        )
        return result

    def _count_pullback(self, args, result):
        A, B = args[0].source, args[1].source
        top = max(A.top_dim + B.top_dim, -1)
        self._add_build(
            sum(level_size(A, k) + level_size(B, k) for k in range(top + 1)),
            result.space,
        )
        return result

    def _count_chains(self, args, result):
        self.counts["simplicial_chains.rank_total"] += sum(result.ranks)
        self.counts["simplicial_chains.boundary_nnz"] += sum(nnz(b) for b in result.boundaries)
        return result

    def _count_snf(self, args, result):
        M = args[0]
        n = nnz(M)
        self.counts["intmat.snf_cells"] += M.rows * M.cols
        self.counts["intmat.snf_nnz"] += n
        sizes = self.sizes[-1]
        sizes["snf"][f"{M.rows}x{M.cols}"] += 1
        sizes["snf_nnz"] += n
        return result

    def _count_matmul(self, args, result):
        A, B = args
        self.counts["intmat.matmul_madds"] += A.rows * A.cols * B.cols
        sizes = self.sizes[-1]
        sizes["matmul"][f"{A.rows}x{A.cols}x{B.cols}"] += 1
        sizes["matmul_nnz"] += nnz(A) + nnz(B)
        return result

    def _count_suspension(self, args, result):
        space = getattr(result, "space", result)
        self.counts["excision.suspension_cells"] += sum(space.counts())
        return result

    def _wrap_evaluator(self, args, F):
        return type(F)(
            F.name, self.wrap("tower.eval", F.eval),
            self.wrap("tower.structure_map", F.structure_map),
        )

    def _count_stage(self, args, result):
        self.counts["tower.stage_rank_total"] += sum(result.ranks)
        return result

    def _count_maps(self, args, result):
        self.counts["function_complex.maps_found"] += len(result)
        return result

    def _count_fillers(self, args, result):
        self.counts["quasicat.filled"] += bool(result)
        return result

    # -- results -------------------------------------------------------------

    def metrics(self, pass_wall: float) -> dict[str, float]:
        """Every per-layer metric but the overhead ratio."""
        calls, counts = self.calls, self.counts

        def incl(group: str) -> float:
            return self._groups[group][1]

        elements = counts["build.elements_materialized"]
        fillers = calls["quasicat.horn_fillers"]
        return {
            "delta.calls": sum(n for k, n in calls.items() if k.startswith("delta.")),
            "delta.self_s": self.layer_self["delta"],
            "sset.face_calls": calls["sset.FiniteSSet.face"],
            "sset.degeneracy_calls": calls["sset.FiniteSSet.degeneracy"],
            "sset.act_calls": calls["sset.FiniteSSet.act"],
            "sset.self_s": self.layer_self["sset"],
            "sset.construct_s": incl("sset.construct"),
            "build.product_s": incl("build.product"),
            "build.quotient_s": incl("build.quotient"),
            "build.pushout_s": incl("build.pushout"),
            "build.pullback_s": incl("build.pullback"),
            "build.nondeg_out": counts["build.nondeg_out"],
            "build.elements_materialized": elements,
            "build.useful_ratio": counts["build.nondeg_out"] / elements if elements else 0.0,
            "simplicial_chains.s": incl("simplicial_chains"),
            "simplicial_chains.rank_total": counts["simplicial_chains.rank_total"],
            "simplicial_chains.boundary_nnz": counts["simplicial_chains.boundary_nnz"],
            "intmat.snf_calls": calls["intmat.smith_normal_form"],
            "intmat.snf_s": incl("intmat.snf"),
            "intmat.snf_cells": counts["intmat.snf_cells"],
            "intmat.snf_nnz": counts["intmat.snf_nnz"],
            "intmat.matmul_calls": calls["intmat.IntMat.__matmul__"],
            "intmat.matmul_s": incl("intmat.matmul"),
            "intmat.matmul_madds": counts["intmat.matmul_madds"],
            "intmat.solve_s": incl("intmat.solve"),
            "intmat.kernel_s": incl("intmat.kernel"),
            "groups.normal_form_s": incl("groups.normal_form"),
            "groups.exact_at_calls": calls["groups.exact_at"],
            "groups.exact_at_s": incl("groups.exact_at"),
            "chain.complex_calls": calls["chain.ChainComplex.__post_init__"],
            "chain.validate_s": incl("chain.validate"),
            "chain.homology_calls": calls["chain.homology"],
            "chain.homology_s": incl("chain.homology"),
            "chain.presentation_s": incl("chain.presentation"),
            "chain.mapping_cone_calls": calls["chain.mapping_cone"],
            "chain.quasi_iso_s": incl("chain.quasi_iso"),
            "excision.suspension_s": incl("excision.suspension"),
            "excision.suspension_cells": counts["excision.suspension_cells"],
            "excision.mv_s": incl("excision.mv"),
            "excision.check_s": incl("excision.check"),
            "tower.eval_s": incl("tower.eval"),
            "tower.structure_map_s": incl("tower.structure_map"),
            "tower.stage_rank_total": counts["tower.stage_rank_total"],
            "function_complex.enumerate_s": incl("function_complex.enumerate"),
            "function_complex.maps_found": counts["function_complex.maps_found"],
            "quasicat.horn_fillers_calls": fillers,
            "quasicat.horn_fillers_s": incl("quasicat.horn_fillers"),
            "quasicat.fill_ratio": counts["quasicat.filled"] / fillers if fillers else 0.0,
            "serialize.parse_s": incl("serialize.parse"),
            "serialize.dump_s": incl("serialize.dump"),
            "cli.self_s": pass_wall - self._top_level,
        }
