"""Command-line surface: constructions, verification, search, bounds.

Subcommands
  obf        build the bound table in memory, report obf(N)
  construct  generate towers, planes and circle geometries
  verify     check a family file for t-laminarity (three equivalent ways)
  search     exact maximum-family search on small ground sets
  summary    reconcile construction ratios against the bound table at --N

Exit codes: 0 success / property holds, 1 property fails, 2 usage or
input error, 3 resource/budget exceeded, 4 data corruption, 141 stdout
closed early (a broken pipe).  Reports go to stdout, progress and
diagnostics to stderr.  `obf` and `summary` build the bound table cold
in memory and write no file.

Two readers, both built from the `_COMMANDS` table, turn argv into a
command's fields.  `parse` reads plain
argv itself: the command, then its exact flags with their values as
separate tokens, and its positionals.  Everything else (`-h`, usage
errors, `--opt=value`, flag prefixes, negative values, `--`) goes to
`_argparse`, argparse's parser of every command.  Every command runs in
a fresh process, where importing argparse and its first parse (gettext,
locale, its regular expressions, one help formatter per argument) cost
more than a small `verify`, so plain argv never imports it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import bounds, construct, geometry, search, setfam

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CORRUPT = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command its pipe killed


def _log(msg: str):
    print(msg, file=sys.stderr)


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _bound_doc(table: bounds.BoundTable, n: int) -> tuple[bounds.UpperLimitReport, dict]:
    """The upper-limit report at n and its six report fields."""
    rep = bounds.upper_limit_report(table, n)
    return rep, {
        "N": n,
        "obf_N": _rat(rep.obf_n),
        "ratio_decimal": rep.ratio_decimal,
        "tail": _rat(rep.tail),
        "upper_limit_decimal": rep.upper_limit_decimal,
        "critical": list(table.frontier_at(n).critical),
    }


# ---------------------------------------------------------------------------
# obf


def cmd_obf(args) -> int:
    n = args.N
    if n < 2:
        _log("N must be >= 2")
        return EXIT_USAGE

    def progress(step: int):
        _log(f"obf progress: n={step}/{n}")

    table = bounds.obf_table(n, progress)
    rep, doc = _bound_doc(table, n)
    # the table always holds obf(3), whose segment starts at 3
    frontier_log = [(s, c) for s, c in table.frontier_log if s <= n]
    doc["frontier_log"] = [[s, list(c)] for s, c in frontier_log]
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"N = {n}")
        print(f"obf(N) = {_rat(rep.obf_n)}")
        print(f"obf(N)/C(N,2) = {rep.ratio_decimal} (exact {_rat(rep.ratio)})")
        print(f"tail sum beyond N = {_rat(rep.tail)}")
        print(f"upper limit = {rep.upper_limit_decimal} (exact {_rat(rep.upper_limit)})")
        print("critical halfspaces:", " ".join(map(str, doc["critical"])))
        log = " ".join(f"{s}:{','.join(map(str, c))}" for s, c in frontier_log)
        print("frontier log:", log)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _write(path: str, text: str):
    # bytes: a file opened in text mode with encoding="ascii" imports the
    # codec, which costs a fresh process more than encoding the text
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii"))
    _log(f"wrote {path}")


def cmd_construct(args) -> int:
    kind = args.kind
    out = args.out
    try:
        if kind in ("fano-tower", "circle-tower"):
            builder = construct.fano_tower if kind == "fano-tower" else construct.circle_tower
            report, fam = builder(args.r, materialize=args.materialize)
            print(json.dumps(report.to_json(), indent=2) if args.json else report)
            if fam is not None:
                path = out or f"{kind}-r{args.r}.family"
                comments = [f"tower kind={kind} r={args.r} n={report.n}"]
                _write(path, setfam.family_to_text(fam, t=report.t, comments=comments))
            return EXIT_OK
        # the kinds left are the designs.  Each cap is the largest prime
        # power whose whole command (generate, validate, write) took at
        # most 20 s and 1 GB peak RSS on a 2-core x86-64 host, which
        # leaves slower hosts room under 60 s and 2 GB; the next prime
        # power took more
        gen, cap = {
            "affine": (geometry.affine_plane, 199),  # 17 s, 864 MB; 211: 22 s, 1.06 GB
            "projective": (geometry.projective_plane, 53),  # 13 s, 38 MB; 59: 23 s
            "circle": (geometry.circle_geometry, 41),  # 16 s, 906 MB; 43: 1.18 GB
        }[kind]
        # before any field is built: a larger order runs out of memory
        # or takes hours, and trial division of a huge q alone is slow
        if args.q > cap:
            raise construct.CapExceeded(f"{kind} order q={args.q} exceeds the cap {cap}")
        design = gen(args.q)
        if not geometry.is_design(design):
            _log("generated block system failed validation")
            return EXIT_CORRUPT
        path = out or f"{kind}-q{args.q}.design"
        _write(path, geometry.design_to_text(design))
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
    except construct.CapExceeded as exc:
        _log(str(exc))
        return EXIT_BUDGET
    except geometry.GeometryError as exc:
        _log(f"construction failed its own check: {exc}")
        return EXIT_CORRUPT
    except ValueError as exc:
        _log(str(exc))
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# verify


def _load_family(path: str) -> tuple[setfam.Family, int | None]:
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii")
    if "\r" in text:  # the universal newlines of a text-mode read
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if path.endswith(".json") or text.lstrip().startswith("{"):
        doc = json.loads(text)
        if "family" in doc:  # a `laminar search --json` report
            doc = doc["family"]
        return setfam.family_from_json(doc)
    fam, t, _comments = setfam.family_from_text(text)
    return fam, t


def _paths_line(paths: dict) -> str:
    """The stderr line naming the paths verify_t_laminar's checks took."""
    pairs = paths["pairs"]
    if pairs is None:
        listing = "scanned every pair in blocks"
    else:
        listing = f"listed shared pairs ({pairs.rows} t-subset rows, {pairs.within} within groups)"
    return f"verify: checks 1-2 {listing}; check 3: {paths['chain_rows']} t-subset rows"


def cmd_verify(args) -> int:
    try:
        fam, file_t = _load_family(args.file)
    except (OSError, setfam.FamilyParseError, json.JSONDecodeError, ValueError,
            KeyError, TypeError) as exc:
        _log(f"cannot read {args.file}: {exc}")
        return EXIT_USAGE
    t = args.t if args.t is not None else file_t
    if t is None:
        _log("no t given and none recorded in the file")
        return EXIT_USAGE
    if t < 1:
        _log("t must be >= 1")
        return EXIT_USAGE

    # the checks run on [largest point used]: no member holds a larger
    # point, so a larger header n changes no verdict, but it would size
    # the packed words and check 3's binomials
    n = int(fam.points.max(initial=0)) + 1
    if n < fam.n:
        fam = setfam.Family(n, fam.points, fam.offsets)
    paths: dict = {}
    try:
        hit = setfam.verify_t_laminar(fam, t, paths)
    except setfam.ChecksDisagree as exc:
        _log(str(exc))
        return EXIT_CORRUPT
    finally:
        if paths:
            _log(_paths_line(paths))
    if hit is None:
        print(f"t-laminar (t={t}): {len(fam)} sets, all three checks agree")
        return EXIT_OK
    i, j = hit
    a, b = (set((fam.points[fam.offsets[k] : fam.offsets[k + 1]] + 1).tolist()) for k in (i, j))
    ia, ib = i + 1, j + 1

    def points(pts) -> str:
        return ",".join(map(str, sorted(pts)))

    print(f"NOT t-laminar (t={t})")
    print(f"witness sets #{ia} and #{ib}: {{{points(a)}}} vs {{{points(b)}}}")
    print(f"forbidden submatrix rows ({ia},{ib}), columns w={min(b - a)}"
          f" x={min(a - b)} shared={points(sorted(a & b)[:t])}")
    return EXIT_PROPERTY_FAILS


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    if args.n < 1 or args.t < 1:
        _log("n and t must be >= 1")
        return EXIT_USAGE
    # a NaN deadline never passes, so the search would ignore it
    if not (math.isfinite(args.budget) and args.budget >= 0):
        _log("budget must be a finite number of seconds >= 0")
        return EXIT_USAGE
    try:
        res = search.max_laminar_exact(args.n, args.t, budget_seconds=args.budget)
    except search.CapExceeded as exc:
        _log(str(exc))
        return EXIT_BUDGET
    doc = {
        "n": args.n,
        "t": args.t,
        "size": res.size,
        "exact": res.exact,
        "nodes": res.nodes,
        "forced": res.forced,
    }
    if args.json:
        doc["family"] = setfam.family_to_json(res.family, t=args.t)
        print(json.dumps(doc, indent=2))
    else:
        marker = "exact" if res.exact else "lower bound (budget exhausted)"
        line = f"max t-laminar size on [{args.n}] (t={args.t}): {res.size} [{marker}]"
        # the summary is a comment line, so the output is a family file
        print(setfam.family_to_text(res.family, t=args.t, comments=[line]), end="")
    return EXIT_OK if res.exact else EXIT_BUDGET


# ---------------------------------------------------------------------------
# summary


def cmd_summary(args) -> int:
    if args.N is not None and args.N < 2:
        _log("N must be >= 2")
        return EXIT_USAGE
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
    if args.N is not None:
        rep, doc["bound"] = _bound_doc(bounds.obf_table(args.N), args.N)
        upper = rep.upper_limit
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
        print("bound side: none; --N N builds the bound table to N")
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
# argument parsing


class _Command:
    """One subcommand as data: its positionals (name -> choices, or None
    for any value), its options (flag -> (dest, type, default), with type
    None for a store-true flag; aliases share a dest) and its required
    flags.  Its handler is this module's `cmd_<name>`, looked up when the
    command runs.  A plain class: a NamedTuple costs each fresh process
    about 0.3 ms to define."""

    def __init__(self, help: str, positionals: dict, options: dict, required: tuple = ()):
        self.help, self.positionals, self.options, self.required = (
            help, positionals, options, required)


_JSON = {"--json": ("json", None, False)}

_COMMANDS = {
    "obf": _Command(
        "build the bound table", {},
        {"--N": ("N", int, None), "--n": ("N", int, None), **_JSON}, ("--N",)),
    "construct": _Command(
        "generate designs and tower families",
        {"kind": ("fano-tower", "circle-tower", "affine", "projective", "circle")},
        {"--r": ("r", int, 0), "--q": ("q", int, 2),
         "--materialize": ("materialize", None, False), "--out": ("out", str, None), **_JSON}),
    "verify": _Command(
        "check a family file for t-laminarity", {"file": None}, {"--t": ("t", int, None)}),
    "search": _Command(
        "exact maximum-family search", {},
        {"--n": ("n", int, None), "--t": ("t", int, 2), "--budget": ("budget", float, 60.0),
         **_JSON}, ("--n",)),
    "summary": _Command(
        "reconcile constructions against the bound", {}, {"--N": ("N", int, None), **_JSON}),
}


def _argparse(argv: list[str]):
    """argv read by argparse's parser of every command in `_COMMANDS`:
    the namespace, or the exit code after argparse printed the help (0)
    or a usage error (2)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="laminar", description="t-laminar family constructions and exact LP bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help, description=cmd.help)
        for dest, choices in cmd.positionals.items():
            sp.add_argument(dest, choices=choices)
        aliases: dict[str, list[str]] = {}
        for flag, (dest, _, _) in cmd.options.items():
            aliases.setdefault(dest, []).append(flag)
        for flags in aliases.values():
            dest, kind, default = cmd.options[flags[0]]
            how = {"action": "store_true"} if kind is None else {"type": kind, "default": default}
            sp.add_argument(*flags, dest=dest, required=flags[0] in cmd.required, **how)
        sp.set_defaults(func=globals()[f"cmd_{name}"])
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code


def parse(argv: list[str]):
    """argv as `laminar COMMAND [ARGS]`, as the fields the command's
    handler takes, or an exit code.  Plain argv is read here: a command,
    then exact flags, each value in the next token (one not starting
    with "-" that the flag's type takes), and the command's positionals
    inside their choices, with every required argument given.  Any
    other argv, help and usage errors included, goes to argparse."""
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return _argparse(argv)
    fields = {dest: default for dest, _, default in cmd.options.values()}
    todo = list(cmd.positionals.items())
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok in cmd.options:
            dest, kind, _ = cmd.options[tok]
            if kind is None:
                fields[dest] = True
                continue
            tok = next(tokens, "-")
            if tok.startswith("-"):
                return _argparse(argv)
            try:
                fields[dest] = kind(tok)
            except ValueError:
                return _argparse(argv)
        elif tok.startswith("-") or not todo or todo[0][1] and tok not in todo[0][1]:
            return _argparse(argv)
        else:
            fields[todo.pop(0)[0]] = tok
    if todo or any(fields[cmd.options[flag][0]] is None for flag in cmd.required):
        return _argparse(argv)
    return SimpleNamespace(command=argv[0], func=globals()[f"cmd_{argv[0]}"], **fields)


def main(argv: list[str] | None = None) -> int:
    # The objects left by importing numpy and laminar outlive the command.
    # Frozen, no garbage-collection pass traverses them again: one
    # generation-1 pass over them costs about 1 ms, a fifth of a small
    # `verify`, and where it falls depends on how much the imports allocate.
    gc.freeze()
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        code = args if isinstance(args, int) else args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`laminar ... | head`).  With fd 1 on
        # the null device, the interpreter's last flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
