"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes that laminar looks up at call
time (``bounds._dual_min_scaled``, ``_kernels.scan_topk``, ...) with
timing wrappers, so nothing under ``src/`` has to change.  A name bound
with ``from ... import`` lives in the importing module too, so such
names are wrapped there as well, under the same span name.

Spans nest: each open span accumulates the time of the spans that
start and end inside it, and a span's self time is its duration minus
that child time.  Totals, self times and call counts are kept per span
name in memory and returned by ``Tracer.report``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  "Class.method" attributes wrap a
# classmethod looked up through its class.
SPANS = (
    ("laminar.cli", "cmd_obf", "cli.obf"),
    ("laminar.cli", "cmd_construct", "cli.construct"),
    ("laminar.cli", "cmd_verify", "cli.verify"),
    ("laminar.cli", "cmd_search", "cli.search"),
    ("laminar.bounds", "obf_table", "bounds.obf_table"),
    ("laminar._kernels", "scan_topk", "_kernels.scan_topk"),
    ("laminar.bounds", "_dual_min_scaled", "bounds.exact_lp"),
    ("laminar.bounds", "frontier_update", "bounds.frontier_update"),
    ("laminar.bounds", "load_cache", "bounds.load_cache"),
    ("laminar.bounds", "_append_cache", "bounds.append_cache"),
    ("laminar.setfam", "family_from_text", "setfam.family_from_text"),
    ("laminar.setfam", "is_t_laminar", "setfam.is_t_laminar"),
    ("laminar.construct", "is_t_laminar", "setfam.is_t_laminar"),
    ("laminar._kernels", "find_violation", "_kernels.find_violation"),
    ("laminar.setfam", "incidence_matrix", "setfam.incidence_matrix"),
    ("laminar.setfam", "contains_config", "setfam.contains_config"),
    ("laminar.setfam", "unique_chain_check", "setfam.unique_chain_check"),
    ("laminar.construct", "fano_tower", "construct.fano_tower"),
    ("laminar.geometry", "affine_plane", "geometry.affine_plane"),
    ("laminar.construct", "affine_plane", "geometry.affine_plane"),
    ("laminar.geometry", "circle_geometry", "geometry.circle_geometry"),
    ("laminar.construct", "circle_geometry", "geometry.circle_geometry"),
    ("laminar.geometry", "is_design", "geometry.is_design"),
    ("laminar._kernels", "cover_counts", "_kernels.cover_counts"),
    ("laminar.geometry", "design_to_text", "geometry.design_to_text"),
    ("laminar.search", "CompatGraph.build", "search.compat_graph"),
    ("laminar.search", "_max_clique", "search.max_clique"),
)


def _pairs_scanned(args, result) -> int:
    """Row pairs find_violation compared before it returned."""
    f = args[0].shape[0]
    if result is None:
        return f * (f - 1) // 2
    i, j = result
    return i * (f - 1) - i * (i - 1) // 2 + (j - i)


# span -> (counter, increment computed from the call's arguments and result)
COUNTERS = {
    "bounds.frontier_update": (
        "bounds.frontier_changes", lambda args, res: int(res.ks != args[0].ks)),
    "bounds.load_cache": ("bounds.cache_lines_loaded", lambda args, res: len(res)),
    "bounds.append_cache": ("bounds.cache_lines_written", lambda args, res: len(args[1])),
    "_kernels.find_violation": ("_kernels.find_violation_pairs", _pairs_scanned),
    # contains_config's four dense F x F int64 column-type matrices
    "setfam.contains_config": (
        "setfam.contains_config_bytes", lambda args, res: 4 * args[0].shape[0] ** 2 * 8),
    "search.compat_graph": ("search.compat_vertices", lambda args, res: len(res.vertices)),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [total s, self s, calls]
        self.counts: dict[str, int] = defaultdict(int)
        self.lp_steps: set[int] = set()  # distinct n given to the exact LP
        self._stack: list[list[float]] = []
        # span -> function(args, result) run after each call of it
        self._hooks = {span: self._adder(key, inc) for span, (key, inc) in COUNTERS.items()}
        self._hooks["bounds.exact_lp"] = lambda args, res: self.lp_steps.add(args[0])

    def _adder(self, key: str, inc):
        counts = self.counts

        def add(args, result):
            counts[key] += inc(args, result)

        return add

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """fn, timed under the span called name."""
        st = self.stats.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st[0] += dt
                st[1] += dt - frame[0]
                st[2] += 1
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self):
        """Wrap every attribute in SPANS for the rest of the process."""
        for module_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                bound = getattr(owner, attr)
                setattr(owner, attr, staticmethod(self.wrap(name, bound)))
            else:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def report(self) -> dict:
        used = {k: v for k, v in self.stats.items() if v[2]}
        return {
            "total": {k: v[0] for k, v in used.items()},
            "self": {k: v[1] for k, v in used.items()},
            "calls": {k: v[2] for k, v in used.items()},
            "counts": dict(self.counts),
            "lp_steps": len(self.lp_steps),
        }
