#!/usr/bin/env python3
"""End-to-end benchmark of the `laminar` command line, with a traced pass.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {bound,lower,search} --seed N \\
        --seconds S --trace {0,1} [--scale {full,small}]

Each pass of a workload (see workloads.py) runs its commands, each in a
fresh single-threaded worker process started from a private directory
under `.perfbench_work/` with `LAMINAR_CACHE` pointing inside it, so no
cache or file of the caller's is seen.  Passes repeat until the next
one would end after S seconds (at least one pass; with --trace 1, at
least one untraced and one traced pass, alternating); then the last
untraced pass repeats its check sequence while that still fits.

Every command's output is checked; a wrong exit code, a wrong pinned
value or an exception is a failed operation.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
run: setup_s (process start to laminar imported), build_s and check_s
(the workload's build and check commands), peak_rss_mb.  With
--trace 1 they are per-layer spans and counts from the traced passes,
plus the traced end-to-end times and the tracing overhead (traced
minus untraced).  Lines before it give an environment header, every
metric with its unit, per-command medians and the error rate; the full
record, spans included, is written to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS, Mismatch, file_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# A run stops starting passes after this many seconds, and kills a
# command that would run past LIMIT_S + 15, so it always exits within
# the 180 s a run is allowed.
LIMIT_S = 150.0

SINGLE_THREAD = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "NUMBA_NUM_THREADS",
    )
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0



def _total(span):
    return lambda tr: tr["total"].get(span, 0.0)


def _self(span):
    return lambda tr: tr["self"].get(span, 0.0)


def _calls(span):
    return lambda tr: tr["calls"].get(span, 0)


def _count(name):
    return lambda tr: tr["counts"].get(name, 0)


def _evals_per_step(tr):
    steps = tr["lp_steps"]
    return tr["calls"].get("bounds.exact_lp", 0) / steps if steps else 0.0


END_TO_END_UNITS = {"setup_s": "s", "build_s": "s", "check_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, value from one traced pass's merged spans).
# Span names are listed in tracer.SPANS; metric names drop the leading
# underscore of `_kernels`, since a metric name starts with a letter.
PER_LAYER = {
    "kernels.scan_topk_s": ("s", _total("_kernels.scan_topk")),
    "kernels.scan_topk_calls": ("count", _calls("_kernels.scan_topk")),
    "bounds.exact_lp_s": ("s", _total("bounds.exact_lp")),
    "bounds.exact_lp_evals": ("count", _calls("bounds.exact_lp")),
    "bounds.exact_lp_evals_per_step": ("count/step", _evals_per_step),
    "bounds.frontier_update_s": ("s", _total("bounds.frontier_update")),
    "bounds.frontier_changes": ("count", _count("bounds.frontier_changes")),
    "bounds.load_cache_s": ("s", _total("bounds.load_cache")),
    "bounds.cache_lines_loaded": ("count", _count("bounds.cache_lines_loaded")),
    "bounds.append_cache_s": ("s", _total("bounds.append_cache")),
    "bounds.cache_lines_written": ("count", _count("bounds.cache_lines_written")),
    "bounds.obf_table_s": ("s", _total("bounds.obf_table")),
    "bounds.obf_table_self_s": ("s", _self("bounds.obf_table")),
    "cli.obf_report_s": ("s", _self("cli.obf")),
    "setfam.family_from_text_s": ("s", _total("setfam.family_from_text")),
    "setfam.is_t_laminar_s": ("s", _total("setfam.is_t_laminar")),
    "kernels.find_violation_s": ("s", _total("_kernels.find_violation")),
    "kernels.find_violation_pairs": ("count", _count("_kernels.find_violation_pairs")),
    "setfam.incidence_matrix_s": ("s", _total("setfam.incidence_matrix")),
    "setfam.contains_config_s": ("s", _total("setfam.contains_config")),
    "setfam.contains_config_bytes": ("B", _count("setfam.contains_config_bytes")),
    "setfam.unique_chain_check_s": ("s", _total("setfam.unique_chain_check")),
    "construct.fano_tower_s": ("s", _total("construct.fano_tower")),
    "geometry.affine_plane_s": ("s", _total("geometry.affine_plane")),
    "geometry.circle_geometry_s": ("s", _total("geometry.circle_geometry")),
    "geometry.is_design_s": ("s", _total("geometry.is_design")),
    "geometry.is_design_self_s": ("s", _self("geometry.is_design")),
    "kernels.cover_counts_s": ("s", _total("_kernels.cover_counts")),
    "geometry.design_to_text_s": ("s", _total("geometry.design_to_text")),
    "search.compat_graph_s": ("s", _total("search.compat_graph")),
    "search.compat_vertices": ("count", _count("search.compat_vertices")),
    "search.max_clique_s": ("s", _total("search.max_clique")),
}
TRACE_SUMMARY_UNITS = {"trace.build_s": "s", "trace.check_s": "s", "trace.overhead_s": "s"}
COMPUTED = ("kernels.find_violation_pairs", "setfam.contains_config_bytes",
            "bounds.exact_lp_evals_per_step")


def _merge(reports: list[dict]) -> dict:
    out = {"total": {}, "self": {}, "calls": {}, "counts": {}, "lp_steps": 0}
    for rep in reports:
        for key in ("total", "self", "calls", "counts"):
            for name, v in rep[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["lp_steps"] += rep["lp_steps"]
    return out


class Run:
    """State of one benchmark run: passes, samples, failures, memo of checks."""

    def __init__(self, workload: str, seed: int, scale: str, run_dir: Path, env: dict):
        self.workload = workload
        self.rng = random.Random(seed)  # every seeded input is drawn from this
        self.scale = SCALES[scale]
        self.run_dir = run_dir
        self.env = env
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.memo: dict = {}
        self.digests: dict[str, str] = {}
        self.lib_env: dict | None = None
        self.timed_out = False
        self.check_wall = 0.0  # longest check sequence, wall clock
        self.spare_check = None  # check sequence of the last untraced pass

    def run_pass(self, traced: bool):
        ctx = Pass(self, len(self.passes), traced)
        build, checks_per_pass = WORKLOADS[self.workload]
        self.passes.append(ctx.record)
        try:
            with ctx.sample("build"):
                check = build(ctx, self.scale)
            if check is None:
                return
            for _ in range(1 if traced else checks_per_pass):
                self.run_check(ctx, check)
            if not traced:
                self.spare_check = (ctx, check)
        except _Stop:
            self.timed_out = True

    def run_check(self, ctx: "Pass", check):
        t0 = time.monotonic()
        with ctx.sample("check"):
            check()
        self.check_wall = max(self.check_wall, time.monotonic() - t0)

    def top_up(self, seconds: float):
        """More check sequences on the last untraced pass, while they fit."""
        if self.spare_check is None:
            return
        ctx, check = self.spare_check
        try:
            while time.monotonic() - self.start + self.check_wall <= seconds:
                self.run_check(ctx, check)
        except _Stop:
            self.timed_out = True

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)


class _Stop(Exception):
    """A command hit the run's time limit; no further command is started."""


class Pass:
    """The view of one pass that a workload function drives (see workloads.py)."""

    def __init__(self, run: Run, index: int, traced: bool):
        self.run = run
        self.traced = traced
        self.dir = run.run_dir / f"pass-{index}"
        self.dir.mkdir()
        self.env = dict(run.env, LAMINAR_CACHE=self.path("laminar-obf.cache"))
        self.record = {"traced": traced, "build": [], "check": [], "ops": [],
                       "rss_kb": 0, "traces": []}
        self._role: str | None = None
        self._acc = 0.0

    rng = property(lambda self: self.run.rng)
    memo = property(lambda self: self.run.memo)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    @contextlib.contextmanager
    def sample(self, role: str):
        """Sum the seconds of the commands inside into one `role` sample."""
        self._role, self._acc = role, 0.0
        yield
        self.record[role].append(self._acc)
        self._role = None

    def once(self, key: str, fn):
        """fn() on the first pass of the run; later passes reuse its result."""
        if key not in self.run.memo:
            self.run.memo[key] = fn()
        return self.run.memo[key]

    def same_as_first(self, key: str, path: str):
        """The file must be byte-identical to the one the first pass wrote."""
        digest = file_digest(path)
        first = self.run.digests.setdefault(key, digest)
        if digest != first:
            raise Mismatch(f"{path} differs from the first pass's output")

    def fail(self, message: str):
        self.run.fail(message)

    def op(self, argv: list[str], check):
        run = self.run
        i = len(self.record["ops"])
        result_path = self.dir / f"op-{i}.json"
        remaining = LIMIT_S + 15.0 - (time.monotonic() - run.start)
        label = " ".join(Path(a).name if os.sep in a else a for a in argv[:2])
        run.attempted += 1
        with open(self.dir / f"op-{i}.err", "wb") as err:
            t0 = time.monotonic()
            try:
                subprocess.run(
                    [sys.executable, str(WORKER), str(ROOT / "src"), str(result_path),
                     "1" if self.traced else "0", *argv],
                    cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=err, timeout=max(remaining, 1.0),
                )
            except subprocess.TimeoutExpired:
                run.fail(f"{label}: killed at the run's time limit")
                raise _Stop from None
        try:
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, json.JSONDecodeError):
            tail = (self.dir / f"op-{i}.err").read_text(errors="replace")[-400:]
            run.fail(f"{label}: worker left no result\n{tail}")
            return
        run.setup.append(res["ready"] - t0)
        run.lib_env = run.lib_env or res["env"]
        self.record["ops"].append((label, res["seconds"]))
        self.record["rss_kb"] = max(self.record["rss_kb"], res["maxrss_kb"])
        if res["trace"] is not None:
            self.record["traces"].append(res["trace"])
        if self._role is not None:
            self._acc += res["seconds"]
        try:
            check(res)
        except (Mismatch, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            run.fail(f"{label} (pass {len(run.passes)}): {type(exc).__name__}: {exc}")


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _metrics(run: Run, trace: bool) -> dict:
    plain = [p for p in run.passes if not p["traced"]]
    build = [x for p in plain for x in p["build"]]
    check = [x for p in plain for x in p["check"]]
    if not trace:
        values = {
            "setup_s": _median(run.setup),
            "build_s": _median(build),
            "check_s": _median(check),
            "peak_rss_mb": _median([p["rss_kb"] / 1024 for p in plain]),
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    traced = [p for p in run.passes if p["traced"]]
    merged = [_merge(p["traces"]) for p in traced]
    out = {name: {"value": _median([fn(tr) for tr in merged]), "unit": unit}
           for name, (unit, fn) in PER_LAYER.items()}
    t_build = _median([x for p in traced for x in p["build"]])
    t_check = _median([x for p in traced for x in p["check"]])
    summary = {
        "trace.build_s": t_build,
        "trace.check_s": t_check,
        "trace.overhead_s": (t_build + t_check) - (_median(build) + _median(check)),
    }
    out.update({k: {"value": summary[k], "unit": u} for k, u in TRACE_SUMMARY_UNITS.items()})
    return out


def _report(run: Run, header: dict, metrics: dict):
    print("# env " + json.dumps(header, sort_keys=True))
    for name, m in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    ops: dict[str, list[float]] = {}
    for p in run.passes:
        if not p["traced"]:
            for label, secs in p["ops"]:
                ops.setdefault(label, []).append(secs)
    for label, secs in ops.items():
        print(f"command '{label}': median {_median(secs):.4f} s over {len(secs)}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"error_rate = {rate:.4g} ({run.failed} failed of {run.attempted} commands)")
    print(f"passes = {len(run.passes)}, setup samples = {len(run.setup)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laminar" / "cli.py").is_file():
        print(f"perfbench: no laminar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LAMINAR_") and k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    env["PYTHONHASHSEED"] = "0"

    # on SIGTERM, unwind so that subprocess.run kills and reaps the
    # running worker and the private directory is removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        run = Run(args.workload, args.seed, args.scale, run_dir, env)
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(run.passes) % 2 == 1
            t0 = time.monotonic()
            run.run_pass(traced)
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - run.start
            need_traced = args.trace and not any(p["traced"] for p in run.passes)
            if run.timed_out or elapsed + longest > LIMIT_S:
                break
            if not need_traced and elapsed + longest > args.seconds:
                break
        if not run.timed_out:
            run.top_up(min(args.seconds, LIMIT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    header.update(run.lib_env or {})
    metrics = _metrics(run, bool(args.trace))
    _report(run, header, metrics)
    results = work / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump({"env": header, "metrics": metrics, "failures": run.failures,
                   "setup": run.setup, "passes": run.passes}, fh, indent=1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
