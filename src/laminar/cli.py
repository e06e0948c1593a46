"""Command-line surface: constructions, verification, search, bounds.

Subcommands
  obf        build/extend the cached bound table and report obf(N)
  construct  generate towers, planes, circle geometries, greedy packings
  verify     check a family file for t-laminarity (three equivalent ways)
  search     exact maximum-family search on small ground sets
  summary    reconcile construction ratios against the bound table

Exit codes: 0 success / property holds, 1 property fails, 2 usage or
input error, 3 resource/budget exceeded, 4 data corruption.  Reports go
to stdout, progress and diagnostics to stderr.  The environment
variable LAMINAR_CACHE overrides the default bound-table cache path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds, construct, geometry, search, setfam

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CORRUPT = 4

DEFAULT_CACHE = "laminar-obf.cache"


def _log(msg: str):
    print(msg, file=sys.stderr)


def _cache_path(arg: str | None) -> str:
    return arg or os.environ.get("LAMINAR_CACHE") or DEFAULT_CACHE


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# obf


def cmd_obf(args) -> int:
    path = _cache_path(args.cache)
    n = args.N
    if n < 2:
        _log("N must be >= 2")
        return EXIT_USAGE

    def progress(step: int):
        _log(f"obf progress: n={step}/{n}")

    try:
        table = bounds.obf_table(
            n, cache_path=path, progress=progress, progress_every=1000
        )
    except bounds.CacheError as exc:
        _log(f"cache verification failed: {exc}")
        return EXIT_CORRUPT
    if n == 2:
        report = {"N": 2, "obf_N": "1/1", "ratio_decimal": "1"}
        print(json.dumps(report) if args.json else "obf(2) = 1")
        return EXIT_OK
    rep = bounds.upper_limit_report(table, n)
    doc = {
        "N": n,
        "obf_N": _rat(rep.obf_n),
        "ratio_decimal": rep.ratio_decimal,
        "tail": _rat(rep.tail),
        "upper_limit_decimal": rep.upper_limit_decimal,
        "critical": list(table.critical),
        "frontier_log": [[s, list(c)] for s, c in table.frontier_log],
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"N = {n}")
        print(f"obf(N) = {_rat(rep.obf_n)}")
        print(f"obf(N)/C(N,2) = {rep.ratio_decimal} (exact {_rat(rep.ratio)})")
        print(f"tail sum beyond N = {_rat(rep.tail)}")
        print(f"upper limit = {rep.upper_limit_decimal} (exact {_rat(rep.upper_limit)})")
        print("critical halfspaces:", " ".join(map(str, table.critical)))
        log = " ".join(f"{s}:{','.join(map(str, c))}" for s, c in table.frontier_log)
        print("frontier log:", log)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _write_family(path: str, fam: setfam.Family, t: int, comments: list[str]):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(setfam.family_to_text(fam, t=t, comments=comments))
    _log(f"wrote {path}")


def cmd_construct(args) -> int:
    kind = args.kind
    out = args.out
    try:
        if kind in ("fano-tower", "circle-tower"):
            builder = construct.fano_tower if kind == "fano-tower" else construct.circle_tower
            t = 2 if kind == "fano-tower" else 3
            kwargs = {"materialize": args.materialize}
            if kind == "fano-tower" and args.materialize and args.r >= 2:
                kwargs["large_ok"] = True
            report, fam = builder(args.r, **kwargs)
            print(json.dumps(report.to_json(), indent=2) if args.json else report)
            if fam is not None:
                path = out or f"{kind}-r{args.r}.family"
                _write_family(path, fam, t, [f"tower kind={kind} r={args.r} n={report.n}"])
            return EXIT_OK
        if kind in ("affine", "projective", "circle"):
            gen = {
                "affine": geometry.affine_plane,
                "projective": geometry.projective_plane,
                "circle": geometry.circle_geometry,
            }[kind]
            design = gen(args.q)
            if not geometry.is_design(design):
                _log("generated block system failed validation")
                return EXIT_CORRUPT
            path = out or f"{kind}-q{args.q}.design"
            with open(path, "w", encoding="ascii") as fh:
                fh.write(geometry.design_to_text(design))
            _log(f"wrote {path}")
            summary = {
                "kind": kind,
                "q": args.q,
                "t": design.t,
                "v": design.v,
                "lambda": design.lam,
                "blocks": design.block_count(),
            }
            print(json.dumps(summary, indent=2) if args.json else summary)
            return EXIT_OK
        if kind == "packing":
            if args.k is None:
                _log("packing needs --k (block size)")
                return EXIT_USAGE
            design = geometry.greedy_packing(args.n, args.k, args.t, args.seed)
            if not geometry.is_packing(design):
                _log("greedy packing failed validation")
                return EXIT_CORRUPT
            path = out or f"packing-n{args.n}-k{args.k}-t{args.t}.design"
            with open(path, "w", encoding="ascii") as fh:
                fh.write(geometry.design_to_text(design))
            _log(f"wrote {path}")
            summary = {"kind": kind, "n": args.n, "k": args.k, "t": args.t,
                       "blocks": design.block_count()}
            print(json.dumps(summary, indent=2) if args.json else summary)
            return EXIT_OK
        _log(f"unknown construct kind {kind!r}")
        return EXIT_USAGE
    except construct.CapExceeded as exc:
        _log(str(exc))
        return EXIT_BUDGET
    except ValueError as exc:
        _log(str(exc))
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# verify


def _load_family(path: str) -> tuple[setfam.Family, int | None]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return setfam.family_from_json(json.loads(text))
    fam, t, _comments = setfam.family_from_text(text)
    return fam, t


def cmd_verify(args) -> int:
    try:
        fam, file_t = _load_family(args.file)
    except (OSError, setfam.FamilyParseError, json.JSONDecodeError, ValueError) as exc:
        _log(f"cannot read {args.file}: {exc}")
        return EXIT_USAGE
    t = args.t if args.t is not None else file_t
    if t is None:
        _log("no t given and none recorded in the file")
        return EXIT_USAGE

    laminar = setfam.is_t_laminar(fam, t)
    avoided = not setfam.contains_config(
        setfam.incidence_matrix(fam), setfam.forbidden_matrix(t)
    )
    chained = setfam.unique_chain_check(fam, t)
    if not laminar == avoided == chained:
        raise AssertionError(
            f"equivalent laminarity checks disagree: {laminar} {avoided} {chained}"
        )
    if laminar:
        print(f"t-laminar (t={t}): {len(fam)} sets, all three checks agree")
        return EXIT_OK
    a, b = setfam.laminarity_witness(fam, t)
    ia = fam.sets.index(a) + 1
    ib = fam.sets.index(b) + 1
    shared = [p for p in a.members if p in b][:t]
    w = next(p for p in b.members if p not in a)
    x = next(p for p in a.members if p not in b)
    print(f"NOT t-laminar (t={t})")
    print(f"witness sets #{ia} and #{ib}: {{{','.join(map(str, a.members))}}}"
          f" vs {{{','.join(map(str, b.members))}}}")
    print(f"forbidden submatrix rows ({ia},{ib}),"
          f" columns w={w} x={x} shared={','.join(map(str, shared))}")
    return EXIT_PROPERTY_FAILS


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    res = search.max_laminar_exact(args.n, args.t, budget_seconds=args.budget)
    doc = {
        "n": args.n,
        "t": args.t,
        "size": res.size,
        "exact": res.exact,
    }
    if args.json:
        doc["family"] = setfam.family_to_json(res.family, t=args.t)
        print(json.dumps(doc, indent=2))
    else:
        marker = "exact" if res.exact else "lower bound (budget exhausted)"
        print(f"max t-laminar size on [{args.n}] (t={args.t}): {res.size} [{marker}]")
        print(setfam.family_to_text(res.family, t=args.t), end="")
    return EXIT_OK if res.exact else EXIT_BUDGET


# ---------------------------------------------------------------------------
# summary


def cmd_summary(args) -> int:
    path = _cache_path(args.cache)
    doc: dict = {"construction": {}, "bound": None}
    lower = None
    tower_lines = []
    for r in range(3):
        rep, _ = construct.fano_tower(r)
        tower_lines.append(
            f"  tower r={r}: n={rep.n} count={rep.count_geq_t}"
            f" ratio={bounds.rat_to_decimal(rep.ratio, 12)}"
        )
        doc["construction"][f"tower_r{r}"] = rep.to_json()
        lower = rep.ratio if lower is None else max(lower, rep.ratio)
    series = bounds.projective_series(4)
    doc["construction"]["projective_series_4"] = {
        "value": _rat(series.value),
        "decimal": series.decimal,
    }
    upper = None
    if os.path.exists(path):
        try:
            table = bounds.obf_table(2, cache_path=path)
        except bounds.CacheError as exc:
            _log(f"cache verification failed: {exc}")
            return EXIT_CORRUPT
        n = table.n_max
        rep = bounds.upper_limit_report(table, n)
        upper = rep.upper_limit
        doc["bound"] = {
            "N": n,
            "obf_N": _rat(rep.obf_n),
            "ratio_decimal": rep.ratio_decimal,
            "tail": _rat(rep.tail),
            "upper_limit_decimal": rep.upper_limit_decimal,
            "critical": list(table.critical),
        }
    if args.json:
        doc["bracket"] = [
            bounds.rat_to_decimal(lower, 12),
            bounds.rat_to_decimal(upper, 12) if upper is not None else None,
        ]
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print("construction side:")
    for line in tower_lines:
        print(line)
    print(f"  nested-plane series (4 terms): {series.decimal}")
    if upper is None:
        print("bound side: no cache at", path)
        print(f"bracket: [{bounds.rat_to_decimal(lower, 12)}, ?]")
    else:
        b = doc["bound"]
        print(f"bound side: N={b['N']} obf={b['obf_N']} ratio={b['ratio_decimal']}")
        print(f"  tail={b['tail']} upper limit={b['upper_limit_decimal']}")
        print(
            f"bracket: [{bounds.rat_to_decimal(lower, 12)},"
            f" {bounds.rat_to_decimal(upper, 12)}]"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="laminar",
        description="t-laminar family constructions and exact LP bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("obf", help="build/extend the bound table")
    sp.add_argument("--N", "--n", dest="N", type=int, required=True)
    sp.add_argument("--cache", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_obf)

    sp = sub.add_parser("construct", help="generate designs and tower families")
    sp.add_argument(
        "kind",
        choices=["fano-tower", "circle-tower", "affine", "projective", "circle", "packing"],
    )
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--n", type=int, default=7)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--materialize", action="store_true")
    sp.add_argument("--out", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="check a family file for t-laminarity")
    sp.add_argument("file")
    sp.add_argument("--t", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("search", help="exact maximum-family search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--budget", type=float, default=60.0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("summary", help="reconcile constructions against the bound")
    sp.add_argument("--cache", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_summary)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
