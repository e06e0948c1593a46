"""The three benchmark workloads and the checks on their outputs.

Every workload is a sequence of `laminar` commands.  Its "build"
commands compute a result and write it; its "check" commands read a
stored result back and check it.  `run.py` times the two groups
separately, so a change that speeds up one side and slows the other
shows up in one of the two end-to-end metrics.  A pass runs the build
commands once and the check sequence a few times; the check sequence
is cheap, so `run.py` also repeats it in time a run would leave idle.

  bound   build: `obf --N 10000 --json` into an empty private cache.
          check: the same command three times, reloading that cache.
          The upper-bound side users wait for (bounds, _kernels.scan_topk).
  lower   build: `construct fano-tower --r 1 --materialize`, then
          `construct affine --q 49` and `construct circle --q 9`.
          check: `verify` the tower, then `verify` a copy with one
          crossing set appended, which must exit 1 naming the first
          crossing pair.  Each pass draws its set from the seed's stream.
          The lower-bound side (geometry, construct, setfam and the
          non-prefilter kernels); no bounds work.
  search  build: `search --n 9 --t 2 --json`, which must return an
          exact 49.  check: `verify` the family it found, three times.
          The only workload for the pure-Python clique search.

Outputs are checked against pinned exact values and, for written
files, by independent re-validation in plain numpy, so a wrong answer
counts as a failed operation rather than a fast one.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Sizes of every command, with the exact values their outputs must show."""

    obf_n: int
    obf_value: str
    critical: tuple[int, ...]
    frontier_starts: tuple[int, ...]
    tower_r: int
    tower_n: int
    tower_sets: int
    affine_q: int
    affine_blocks: int
    circle_q: int
    circle_blocks: int
    search_n: int
    search_size: int


SCALES = {
    "full": Scale(
        obf_n=10000,
        obf_value="20797920301/301",
        critical=(1, 2, 3, 7, 43, 1807),
        frontier_starts=(2, 3, 7, 42, 43, 1802, 1803, 1804, 1805, 1806, 1807),
        tower_r=1,
        tower_n=49,
        tower_sets=1625,
        affine_q=49,
        affine_blocks=2450,
        circle_q=9,
        circle_blocks=738,
        search_n=9,
        search_size=49,
    ),
    # the smoke-test sizes: same commands, seconds instead of minutes
    "small": Scale(
        obf_n=200,
        obf_value="577121/21",
        critical=(1, 2, 3, 7, 43),
        frontier_starts=(2, 3, 7, 42, 43),
        tower_r=0,
        tower_n=7,
        tower_sets=29,
        affine_q=7,
        affine_blocks=56,
        circle_q=3,
        circle_blocks=30,
        search_n=6,
        search_size=20,
    ),
}


class Mismatch(Exception):
    """An operation's output differs from its pinned or re-derived value."""


def expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# independent re-validation of written files


def _read_sets(path) -> tuple[dict, list[tuple[int, ...]]]:
    """Header fields and point lists of a family/design text file."""
    header: dict | None = None
    sets = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = dict(kv.split("=", 1) for kv in line.split())
                continue
            sets.append(tuple(int(x) for x in line.split()))
    expect(header is not None, f"{path}: no header line")
    return header, sets


def _masks(sets) -> np.ndarray:
    out = np.zeros(len(sets), dtype=np.uint64)
    for i, pts in enumerate(sets):
        m = 0
        for p in pts:
            m |= 1 << (p - 1)
        out[i] = m
    return out


def first_crossing(masks: np.ndarray, t: int) -> tuple[int, int] | None:
    """First pair (i < j) sharing >= t points with neither containing the other."""
    for i in range(len(masks) - 1):
        inter = masks[i] & masks[i + 1 :]
        bad = (
            (np.bitwise_count(inter) >= t)
            & (inter != masks[i])
            & (inter != masks[i + 1 :])
        )
        hit = np.flatnonzero(bad)
        if hit.size:
            return i, i + 1 + int(hit[0])
    return None


def check_laminar_family(path, n: int, count: int) -> list[tuple[int, ...]]:
    header, sets = _read_sets(path)
    expect(header.get("n") == str(n), f"{path}: header n={header.get('n')}, want {n}")
    expect(len(sets) == count, f"{path}: {len(sets)} sets, want {count}")
    expect(all(len(s) >= 2 for s in sets), f"{path}: a member has fewer than 2 points")
    expect(all(1 <= s[0] and s[-1] <= n for s in sets), f"{path}: point outside 1..{n}")
    masks = _masks(sets)
    expect(len(set(masks.tolist())) == count, f"{path}: duplicate members")
    expect(first_crossing(masks, 2) is None, f"{path}: not 2-laminar")
    return sets


def check_design(path, t: int, v: int, k: int, blocks: int):
    """Every t-subset of [v] lies in exactly one block of size k."""
    header, sets = _read_sets(path)
    expect(header.get("n") == str(v), f"{path}: v={header.get('n')}, want {v}")
    expect(len(sets) == blocks, f"{path}: {len(sets)} blocks, want {blocks}")
    pts = np.asarray(sets, dtype=np.int64) - 1
    expect(pts.shape == (blocks, k), f"{path}: blocks must all have size {k}")
    expect(bool((np.diff(pts, axis=1) > 0).all()), f"{path}: points not increasing")
    expect(bool((pts >= 0).all() and (pts < v).all()), f"{path}: point outside 1..{v}")
    idx = np.asarray(list(combinations(range(k), t)), dtype=np.int64)
    sub = pts[:, idx]  # blocks x C(k,t) x t, increasing along the last axis
    # colex rank of {a_0 < a_1 < ...} is sum_i C(a_i, i+1)
    ranks = sum(_binom(sub[..., i], i + 1) for i in range(t)).ravel()
    counts = np.bincount(ranks, minlength=comb(v, t))
    expect(bool((counts == 1).all()), f"{path}: some {t}-subset not covered exactly once")


def _binom(x: np.ndarray, r: int) -> np.ndarray:
    out = np.ones_like(x)
    for i in range(r):
        out = out * (x - i)
    return out // factorial(r)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# workloads


def _expect_exit(res: dict, code: int):
    expect(res["error"] is None, f"exception: {res['error']}")
    expect(res["code"] == code, f"exit code {res['code']}, want {code}")


def _check_obf(res: dict, s: Scale):
    _expect_exit(res, 0)
    doc = json.loads(res["stdout"])
    expect(doc["N"] == s.obf_n, f"N={doc['N']}")
    expect(doc["obf_N"] == s.obf_value, f"obf({s.obf_n}) = {doc['obf_N']}, want {s.obf_value}")
    expect(tuple(doc["critical"]) == s.critical, f"critical set {doc['critical']}")
    starts = tuple(step for step, _ in doc["frontier_log"])
    expect(starts == s.frontier_starts, f"frontier changes at {starts}")


def bound(ctx, s: Scale):
    argv = ["obf", "--N", str(s.obf_n), "--json"]
    check = lambda res: _check_obf(res, s)  # noqa: E731
    ctx.op(argv, check)

    def reloads():
        for _ in range(3):
            ctx.op(argv, check)

    return reloads


def crossing_set(sets: list[tuple[int, ...]], n: int, rng: random.Random) -> tuple[int, ...]:
    """A random subset of [n], not in the family, that crosses some member."""
    masks = _masks(sets)
    present = set(masks.tolist())
    while True:
        size = rng.randint(3, min(8, n - 1))
        cand = tuple(sorted(rng.sample(range(1, n + 1), size)))
        m = _masks([cand])
        if int(m[0]) not in present and first_crossing(np.concatenate([masks, m]), 2):
            return cand


_WITNESS = re.compile(r"witness sets #(\d+) and #(\d+): \{([\d,]+)\} vs \{([\d,]+)\}")


def _check_witness(res: dict, sets: list[tuple[int, ...]], extra: tuple[int, ...]):
    _expect_exit(res, 1)
    lines = res["stdout"].splitlines()
    expect(lines[:1] == ["NOT t-laminar (t=2)"], f"verdict {lines[:1]}")
    m = _WITNESS.search(res["stdout"])
    expect(m is not None, "no witness line")
    got = (int(m.group(1)), int(m.group(2)))
    i, j = first_crossing(_masks(sets + [extra]), 2)
    expect(got == (i + 1, j + 1), f"witness #{got[0]},#{got[1]}, want #{i + 1},#{j + 1}")
    a = tuple(map(int, m.group(3).split(",")))
    b = tuple(map(int, m.group(4).split(",")))
    expect((a, b) == (sets[i], extra), "witness sets do not match the file")


def _check_design(ctx, res: dict, kind: str, t: int, v: int, k: int, blocks: int):
    _expect_exit(res, 0)
    doc = json.loads(res["stdout"])
    got = (doc["kind"], doc["t"], doc["v"], doc["lambda"], doc["blocks"])
    expect(got == (kind, t, v, 1, blocks), f"{kind} summary {got}")
    path = ctx.path(f"{kind}.design")
    ctx.once(kind, lambda: check_design(path, t, v, k, blocks))
    ctx.same_as_first(kind, path)


def lower(ctx, s: Scale):
    tower = ctx.path("tower.family")

    def check_tower(res):
        _expect_exit(res, 0)
        count = json.loads(res["stdout"])["count_geq_t"]
        expect(count == s.tower_sets, f"tower count {count}, want {s.tower_sets}")
        ctx.once("tower", lambda: check_laminar_family(tower, s.tower_n, s.tower_sets))
        ctx.same_as_first("tower", tower)

    aq, cq = s.affine_q, s.circle_q
    ctx.op(["construct", "fano-tower", "--r", str(s.tower_r), "--materialize",
            "--out", tower, "--json"], check_tower)
    ctx.op(["construct", "affine", "--q", str(aq), "--out", ctx.path("affine.design"),
            "--json"],
           lambda res: _check_design(ctx, res, "affine", 2, aq * aq, aq, s.affine_blocks))
    ctx.op(["construct", "circle", "--q", str(cq), "--out", ctx.path("circle.design"),
            "--json"],
           lambda res: _check_design(ctx, res, "circle", 3, cq * cq + 1, cq + 1,
                                     s.circle_blocks))
    sets = ctx.memo.get("tower")
    if sets is None:
        ctx.fail("no valid tower family; the verify commands were not run")
        return None
    # a new draw on every pass, so a run's median covers several crossing
    # positions (the scans in verify stop at the first violation)
    extra = crossing_set(sets, s.tower_n, ctx.rng)
    corrupt = ctx.path("corrupt.family")
    with open(tower, encoding="ascii") as src, open(corrupt, "w", encoding="ascii") as dst:
        dst.write(src.read() + " ".join(map(str, extra)) + "\n")
    verdict = f"t-laminar (t=2): {s.tower_sets} sets, all three checks agree\n"

    def check():
        ctx.op(["verify", tower, "--t", "2"], lambda res: _check_verdict(res, verdict))
        ctx.op(["verify", corrupt, "--t", "2"], lambda res: _check_witness(res, sets, extra))

    return check


def _check_verdict(res: dict, verdict: str):
    _expect_exit(res, 0)
    expect(res["stdout"] == verdict, f"verdict {res['stdout']!r}")


def search(ctx, s: Scale):
    found = ctx.path("found.json")

    def check_search(res):
        _expect_exit(res, 0)
        doc = json.loads(res["stdout"])
        expect(doc["exact"] is True, "search ran out of budget")
        expect(doc["size"] == s.search_size, f"size {doc['size']}, want {s.search_size}")
        fam = doc["family"]
        sets = [tuple(x) for x in fam["sets"]]
        expect(fam["n"] == s.search_n and len(sets) == s.search_size, "family shape")
        expect(all(len(x) >= 2 for x in sets), "a member has fewer than 2 points")
        masks = _masks(sets)
        expect(len(set(masks.tolist())) == len(sets), "duplicate members")
        expect(first_crossing(masks, 2) is None, "found family is not 2-laminar")
        with open(found, "w", encoding="ascii") as fh:
            json.dump(fam, fh)

    ctx.op(["search", "--n", str(s.search_n), "--t", "2", "--json"], check_search)
    verdict = f"t-laminar (t=2): {s.search_size} sets, all three checks agree\n"

    def verifies():
        for _ in range(3):
            ctx.op(["verify", found, "--t", "2"], lambda res: _check_verdict(res, verdict))

    return verifies


# workload -> (function that runs the build commands of one pass and
# returns the pass's check sequence, or None if it cannot run; check
# sequences per untraced pass).  A check sequence repeats a short
# command three times: single reloads and verifies land in one of the
# host's fast or slow phases, so their medians jump between the two.
WORKLOADS = {"bound": (bound, 1), "lower": (lower, 2), "search": (search, 2)}
