import argparse
import gc
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

from conftest import int_masks, of_masks, random_family
import laminar
from laminar import _kernels, cli, construct, geometry, search, setfam
from laminar.cli import main
from laminar.setfam import family_from_text, family_to_text, is_t_laminar


# the start of verify's stderr line for a family whose pairs are all
# tested in blocks
BLOCKED = "verify: checks 1-2 scanned every pair in blocks"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser of cli._COMMANDS, the reference cli.parse
    must read argv as."""
    parser = argparse.ArgumentParser(prog="laminar")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for dest, choices in cmd.positionals.items():
            sp.add_argument(dest, choices=choices)
        aliases: dict[str, list[str]] = {}
        for flag, (dest, _, _) in cmd.options.items():
            aliases.setdefault(dest, []).append(flag)
        for flags in aliases.values():
            dest, kind, default = cmd.options[flags[0]]
            how = {"action": "store_true"} if kind is None else {"type": kind, "default": default}
            sp.add_argument(*flags, dest=dest, required=flags[0] in cmd.required, **how)
        sp.set_defaults(func=getattr(cli, f"cmd_{name}"))
    return parser


def documented_argvs() -> list[list[str]]:
    """Every `laminar` argv that README.md shows and CI runs, shell
    variables left as words: parsing opens no file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = re.findall(r"^laminar ([^#>\n]*)", fh.read(), re.M)
    with open(os.path.join(root, ".github", "workflows", "tests.yml")) as fh:
        ci = re.findall(r"python -m laminar\.cli ([^|>\n]*)", fh.read())
    return [shlex.split(line) for line in dict.fromkeys(line.strip() for line in readme + ci)]


# the usage corners: cli.parse, which reads only the named command's
# table entry, must read each as the full argparse parser does
USAGE_CORPUS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "--N", "5"], ["-x", "obf"],
    ["obf", "-h"], ["construct", "-h"], ["verify", "-h"], ["search", "-h"], ["summary", "-h"],
    ["obf"], ["obf", "--bad"], ["obf", "--N", "5", "extra"], ["obf", "--N", "x"],
    ["obf", "--n", "5", "--json"], ["construct", "nope"], ["construct", "affine", "--q", "3"],
    ["verify"], ["verify", "a", "b"], ["verify", "a", "--t", "3"], ["search", "--n"],
    ["search", "--n", "9", "--budget", "1.5"], ["summary", "--cache", "c", "--json"],
    ["summary", "--N", "5", "--json"], ["summary", "--N"], ["summary", "--n", "5"],
]

# the commands of the benchmark harness (perfbench/workloads.py)
HARNESS_ARGVS = [
    ["obf", "--N", "10000", "--json"],
    ["construct", "fano-tower", "--r", "1", "--materialize", "--out", "tower.family", "--json"],
    ["construct", "affine", "--q", "49", "--out", "affine.design", "--json"],
    ["construct", "circle", "--q", "9", "--out", "circle.design", "--json"],
    ["verify", "tower.family", "--t", "2"], ["search", "--n", "9", "--t", "2", "--json"],
]

# the other argvs cli.parse must read as argparse does, each once: the
# harness's commands, every documented command, and the option forms
ORACLE_CORPUS = [list(argv) for argv in dict.fromkeys(map(tuple, [
    *HARNESS_ARGVS,
    *documented_argvs(),
    # the edges of the plain reader: empty values, a "-" value, digit
    # separators, NaN, a repeated flag, a flag before the positional
    ["verify", "", "--t", "2"], ["construct", "affine", "--out", ""],
    ["construct", "affine", "--out", "-"], ["obf", "--N", "1_000"],
    ["search", "--n", "3", "--budget", "nan"], ["obf", "--json", "--N", "7", "--N", "8"],
    ["construct", "--json", "affine", "--q", "3"],
    # --opt=value, prefixes, negative values, repeats, help after an error
    ["obf", "--N=50"], ["obf", "--N="], ["search", "--n", "3", "--budget=-inf"],
    ["construct", "fano-tower", "--mat"], ["obf", "--c", "x", "--N", "3"], ["--he"],
    ["construct", "affine", "--q", "-3"], ["verify", "f", "--t", "-1"],
    ["construct", "affine", "--q", "-1.5"], ["search", "--n", "3", "--budget", "-.5"],
    ["search", "--n", "3", "--budget", "-inf"], ["obf", "-5"], ["obf", "--N", "-5"],
    ["search", "--n", "5", "--n", "6"], ["construct", "--q", "3", "affine", "--json", "--json"],
    ["obf", "--json=1", "--N", "3"], ["obf", "--help=x"], ["obf", "--N", "--json"], ["obf", "--N"],
    ["obf", "--N", "5", "-h"], ["-x", "obf", "-h"], ["obf", "--bad", "-h"], ["obf", "--N", "x", "-h"],
    ["-h", "frobnicate"], ["frobnicate", "-h"], ["construct", "Affine"], ["verify", "F.family"],
    ["verify", "-"], ["verify", "-x y"],
    ["verify", "--", "-f"], ["verify", "--", "a", "b"], ["construct", "--", "affine"],
    ["obf", "--N", "5", "--", "x"], ["--", "obf"], ["obf", "--"], [""], ["obf", "--N", " 7 "],
]))]


class TestObfCommand:
    def test_small_run_json(self, capsys):
        code, out, _ = run(["obf", "--N", "50", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["critical"] == [1, 2, 3, 7, 43]
        assert doc["obf_N"].count("/") == 1
        assert doc["frontier_log"][0] == [2, [1, 2]]

    def test_obf_n2(self, capsys):
        """N = 2 prints the report every N prints, its frontier log
        clipped to the segments that start at or before N."""
        code, out, _ = run(["obf", "--N", "2"], capsys)
        assert code == 0 and out.splitlines() == [
            "N = 2",
            "obf(N) = 1/1",
            "obf(N)/C(N,2) = 1 (exact 1/1)",
            "tail sum beyond N = 1/1",
            "upper limit = 2 (exact 2/1)",
            "critical halfspaces: 1 2",
            "frontier log: 2:1,2",
        ]
        code, out, _ = run(["obf", "--N", "2", "--json"], capsys)
        assert code == 0 and json.loads(out) == {
            "N": 2,
            "obf_N": "1/1",
            "ratio_decimal": "1",
            "tail": "1/1",
            "upper_limit_decimal": "2",
            "critical": [1, 2],
            "frontier_log": [[2, [1, 2]]],
        }

    def test_progress_on_stderr(self, capsys):
        code, out, err = run(["obf", "--N", "1000", "--json"], capsys)
        assert code == 0 and json.loads(out)["N"] == 1000
        assert err == "obf progress: n=1000/1000\n"

    def test_runs_write_no_file_and_keep_no_state(self, tmp_path, capsys, monkeypatch):
        """`obf` and `summary` build the table in memory: a larger run
        before a smaller one in the same directory leaves the smaller
        one's report as a cold run prints it, and no file behind."""
        monkeypatch.setenv("LAMINAR_CACHE", str(tmp_path / "env.cache"))
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        cold.mkdir()
        warm.mkdir()
        monkeypatch.chdir(cold)
        code, want, _ = run(["obf", "--N", "100", "--json"], capsys)
        assert code == 0
        monkeypatch.chdir(warm)
        for argv in (["obf", "--N", "2000"], ["summary", "--N", "2000", "--json"]):
            assert run(argv, capsys)[0] == 0
        code, out, _ = run(["obf", "--N", "100", "--json"], capsys)
        assert code == 0 and out == want
        assert json.loads(out)["critical"] == [1, 2, 3, 7, 43]
        # obf and summary report the same bound, at N = 2 too
        for n in ("2", "100"):
            code, out, _ = run(["obf", "--N", n, "--json"], capsys)
            assert code == 0
            obf_doc = json.loads(out)
            del obf_doc["frontier_log"]
            code, out, _ = run(["summary", "--N", n, "--json"], capsys)
            assert code == 0 and json.loads(out)["bound"] == obf_doc, n
        assert sorted(os.listdir(tmp_path)) == ["cold", "warm"]
        assert os.listdir(cold) == [] and os.listdir(warm) == []

    @pytest.mark.parametrize(
        "argv", [["obf", "--N", "10", "--cache", "x"], ["summary", "--cache", "x"]],
        ids=lambda argv: argv[0])
    def test_cache_flag_is_refused_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --cache x\n")
        assert os.listdir(tmp_path) == []


class TestConstructCommand:
    def test_fano_tower_r0_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            ["construct", "fano-tower", "--r", "0", "--materialize"], capsys
        )
        assert code == 0
        fam, t, _ = family_from_text(open("fano-tower-r0.family").read())
        assert len(fam) == 29 and t == 2

    def test_circle_design_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "c3.design")
        code, out, _ = run(
            ["construct", "circle", "--q", "3", "--out", out_path, "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["blocks"] == 30

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["affine", "--q", "49"],
             "5d928fd34ecd769a09b5df94c6614e4ee18ad312f20960880ec815957b1df2b9"),
            (["circle", "--q", "9"],
             "095da9ac90c335255a76047e82441e823e494ad92cb052c559089a9f750f9e19"),
            (["fano-tower", "--r", "1", "--materialize"],
             "df40f4b4e0a29631abf66521746a8b8d524a2467f548f595834bdd201cd8c8fb"),
            (["projective", "--q", "7"],
             "0a055d7bf4ad2921cafe3e3643ad313329a6af4576fac01ad67e9242a0abef81"),
        ],
        ids=["affine-49", "circle-9", "fano-tower-1", "projective-7"],
    )
    def test_written_files_pinned(self, argv, digest, tmp_path, capsys):
        """The files construct writes, byte for byte."""
        out_path = tmp_path / "out"
        code, _, _ = run(["construct", *argv, "--out", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_affine_bad_q_exit_2(self, capsys):
        code, _, err = run(["construct", "affine", "--q", "6"], capsys)
        assert code == 2 and "prime power" in err

    def test_tower_over_budget_exit_3(self, capsys):
        code, _, err = run(
            ["construct", "circle-tower", "--r", "2", "--materialize"], capsys
        )
        assert code == 3 and "cap" in err

    def test_fano_tower_over_cap_exit_3(self, capsys):
        code, _, err = run(
            ["construct", "fano-tower", "--r", "3", "--materialize"], capsys
        )
        assert code == 3 and "exceeds the cap" in err

    @pytest.mark.parametrize("kind", ["affine", "projective", "circle"])
    def test_order_over_cap_exit_3(self, kind, tmp_path, capsys, monkeypatch):
        # q = 1009 is prime: affine_plane alone would broadcast 8 GB
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run(["construct", kind, "--q", "1009"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == "" and os.listdir(tmp_path) == []
        assert re.fullmatch(f"{kind} order q=1009 exceeds the cap \\d+\n", err)

    @pytest.mark.parametrize("kind", ["projective", "circle"])
    def test_bad_q_exit_2(self, kind, capsys):
        code, _, err = run(["construct", kind, "--q", "10"], capsys)
        assert code == 2 and "prime power" in err

    @pytest.mark.parametrize("argv", [
        ["packing", "--n", "7", "--k", "3"], ["affine", "--q", "3", "--seed", "1"],
        ["affine", "--q", "3", "--n", "7"], ["affine", "--q", "3", "--k", "3"],
        ["circle", "--q", "3", "--t", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_no_packing_kind_or_its_flags_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        # every block system construct writes is a design: a greedy
        # packing kind and its four flags are usage errors
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["construct", *argv], capsys)
        assert code == 2 and out == "" and err.startswith("usage: laminar")
        assert os.listdir(tmp_path) == []

    def test_failed_construction_check_exit_4(self, tmp_path, capsys, monkeypatch):
        real = geometry._unique_rows
        monkeypatch.setattr(geometry, "_unique_rows", lambda rows: real(rows)[1:])
        out_path = tmp_path / "c3.design"
        code, out, err = run(["construct", "circle", "--q", "3", "--out", str(out_path)], capsys)
        assert code == 4 and out == "" and not out_path.exists()
        assert err.count("\n") == 1 and "block count 29 != 30" in err

    def test_tower_count_mismatch_exit_4(self, tmp_path, capsys, monkeypatch):
        real = construct._nested_csr

        def drop_first(packing, fam):  # one member fewer
            points, offsets = real(packing, fam)
            return points[offsets[1]:], offsets[1:] - offsets[1]

        monkeypatch.setattr(construct, "_nested_csr", drop_first)
        out_path = tmp_path / "t.family"
        code, out, err = run(
            ["construct", "fano-tower", "--r", "1", "--materialize", "--out", str(out_path)],
            capsys,
        )
        assert code == 4 and out == "" and not out_path.exists()
        assert err.count("\n") == 1 and "materialized tower count mismatch" in err

    def test_tower_report_without_materialize(self, capsys):
        code, out, _ = run(["construct", "fano-tower", "--r", "2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["count_geq_t"] == 3981251

    @pytest.mark.parametrize("kind,r", [("fano-tower", 11), ("circle-tower", 10)])
    def test_largest_printable_tower_level(self, kind, r, capsys):
        builder = construct.fano_tower if kind == "fano-tower" else construct.circle_tower
        code, out, _ = run(["construct", kind, "--r", str(r), "--json"], capsys)
        assert code == 0 and json.loads(out) == builder(r)[0].to_json()
        code, out, _ = run(["construct", kind, "--r", str(r)], capsys)
        assert code == 0 and out == f"{builder(r)[0]}\n"

    @pytest.mark.parametrize(
        "kind,r", [("fano-tower", 12), ("circle-tower", 11), ("fano-tower", 40)])
    def test_unprintable_tower_level_exit_3(self, kind, r, capsys):
        start = time.perf_counter()
        code, out, err = run(["construct", kind, "--r", str(r), "--json"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "too large to report" in err


class TestVerifyCommand:
    def test_tower_file_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["construct", "fano-tower", "--r", "0", "--materialize"], capsys)
        code, out, _ = run(["verify", "fano-tower-r0.family", "--t", "2"], capsys)
        assert code == 0 and "all three checks agree" in out

    def test_violating_file_exit_1_with_witness(self, tmp_path, capsys):
        path = str(tmp_path / "bad.family")
        open(path, "w").write("n=4 t=2\n1 2 3\n1 2 4\n")
        code, out, _ = run(["verify", path], capsys)
        assert code == 1
        assert "witness sets #1 and #2" in out
        assert "w=4 x=3 shared=1,2" in out

    def test_same_file_t3_passes(self, tmp_path, capsys):
        path = str(tmp_path / "ok3.family")
        open(path, "w").write("n=4\n1 2 3\n1 2 4\n")
        code, _, _ = run(["verify", path, "--t", "3"], capsys)
        assert code == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "broken.family")
        for text, message in (
            ("n=3\n3 1\n", "line 2"),
            ("n=3\n1 4\n", "point 4 outside 1..3"),
            ("n=3\n1 2\n1 2\n", "duplicate blocks in family"),
            ("n=0\n", "ground-set size must be positive"),
            ("n=-8\n", "ground-set size must be positive"),
            ('{"n": 3, "sets": [[1, 100000000000000000000]]}', "point outside 1..3"),
            ('{"n": 3, "sets": [[1, 2.0]]}', "cannot be interpreted as an integer"),
        ):
            open(path, "w").write(text)
            code, out, err = run(["verify", path, "--t", "2"], capsys)
            assert (code, out) == (2, "") and message in err, text

    @pytest.mark.parametrize("doc", [
        '{"n": 1e400, "t": 2, "sets": [[1, 2]]}', '{"n": 3, "t": 1e400, "sets": [[1, 2]]}',
        '{"n": 3.9, "t": 2, "sets": [[1, 2]]}', '{"n": 3, "t": 2.5, "sets": [[1, 2]]}',
    ], ids=["n-1e400", "t-1e400", "n-3.9", "t-2.5"])
    def test_json_non_integer_n_or_t_exit_2(self, doc, tmp_path, capsys):
        # int() rounded 3.9 and 2.5 down and overflowed on 1e400 (inf)
        path = tmp_path / "f.json"
        path.write_text(doc)
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read {path}: ") and "must be an integer" in err

    def test_missing_t_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "not.family")
        open(path, "w").write("n=3\n1 2\n")
        code, _, _ = run(["verify", path], capsys)
        assert code == 2

    def test_json_family_input(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        open(path, "w").write(json.dumps({"n": 3, "t": 2, "sets": [[1, 2], [1, 3]]}))
        code, _, _ = run(["verify", path], capsys)
        assert code == 0

    def test_disagreeing_checks_exit_4(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "ok.family")
        open(path, "w").write("n=4 t=2\n1 2\n1 2 3\n")
        real = setfam.unique_chain_check
        monkeypatch.setattr(setfam, "unique_chain_check", lambda f, t: not real(f, t))
        code, out, err = run(["verify", path], capsys)
        assert code == 4 and out == ""
        assert "pairwise=True config-free=True unique-chain=False" in err

    def test_witness_pair_in_family_order(self, tmp_path, capsys):
        path = str(tmp_path / "bad.family")
        open(path, "w").write("n=5 t=2\n4 5\n1 2\n1 2 3\n2 3 4\n1 2 4\n")
        code, out, _ = run(["verify", path], capsys)
        assert code == 1
        assert "witness sets #3 and #4: {1,2,3} vs {2,3,4}" in out
        assert "rows (3,4), columns w=4 x=1 shared=2,3" in out

    def test_json_without_sets_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        open(path, "w").write(json.dumps({"n": 3, "t": 2}))
        code, _, err = run(["verify", path], capsys)
        assert code == 2 and "cannot read" in err

    def test_t_below_one_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "f.family")
        open(path, "w").write("n=3\n1 2\n")
        code, _, err = run(["verify", path, "--t", "0"], capsys)
        assert code == 2 and "t must be >= 1" in err

    def test_t_far_above_n_is_vacuous(self, tmp_path, capsys):
        # no two members of [n] share n + 1 points: the checks run at
        # t = n + 1 and list nothing, while the verdict names the t given
        _, tower = construct.fano_tower(1, materialize=True)
        path = tmp_path / "tower.family"
        path.write_text(family_to_text(tower))
        empty = "listed shared pairs (0 t-subset rows, 0 within groups)"
        for t in (50, 10**8):
            assert run(["verify", str(path), "--t", str(t)], capsys) == (
                0,
                f"t-laminar (t={t}): 1625 sets, all three checks agree\n",
                f"verify: checks 1-2 {empty}; check 3: 0 t-subset rows\n",
            )
        path.write_text("n=3\n1 2\n2 3\n")
        assert run(["verify", str(path), "--t", str(10**12)], capsys) == (
            0,
            f"t-laminar (t={10**12}): 2 sets, all three checks agree\n",
            f"{BLOCKED}; check 3: 0 t-subset rows\n",
        )

    def test_agrees_with_library_on_random_fixtures(self, tmp_path, capsys):
        rng = random.Random(2718)
        for i in range(100):
            fam = random_family(rng)
            t = rng.choice([1, 2, 3])
            path = str(tmp_path / f"fix{i}.family")
            open(path, "w").write(family_to_text(fam, t=t))
            code, _, _ = run(["verify", path], capsys)
            assert (code == 0) == is_t_laminar(fam, t)


    def test_dropped_shared_pairs_exit_4(self, tmp_path, capsys, monkeypatch):
        # the pairwise and config checks test one listing of the shared
        # pairs; if it loses every pair, the chain check still sees the
        # crossing
        _, tower = construct.fano_tower(1, materialize=True)
        crossed = of_masks(49, int_masks(tower) + (0b111 | 1 << 48,))
        path = str(tmp_path / "crossed.family")
        open(path, "w").write(family_to_text(crossed, t=2))
        monkeypatch.setattr(_kernels.PairChunks, "__iter__", lambda self: iter(()))
        code, out, err = run(["verify", path], capsys)
        assert code == 4 and out == ""
        assert "pairwise=True config-free=True unique-chain=False" in err

    def test_stderr_names_the_paths(self, tmp_path, capsys):
        # the tower lists its shared pairs; the 49 sets of a search on 9
        # points are too few to repay listing, so they are scanned in
        # blocks
        _, tower = construct.fano_tower(1, materialize=True)
        path = tmp_path / "tower.family"
        path.write_text(family_to_text(tower, t=2))
        code, _, err = run(["verify", str(path)], capsys)
        assert (code, err) == (0, (
            "verify: checks 1-2 listed shared pairs (4704 t-subset rows, 7056 within"
            " groups); check 3: 4704 t-subset rows\n"
        ))
        code, out, _ = run(["search", "--n", "9", "--t", "2", "--json"], capsys)
        found = tmp_path / "found.json"
        found.write_text(out)
        assert run(["verify", str(found)], capsys) == (
            0,
            "t-laminar (t=2): 49 sets, all three checks agree\n",
            f"{BLOCKED}; check 3: 108 t-subset rows\n",
        )

    def test_tower_verify_leaves_numpy_ma_unimported(self, tmp_path):
        # every command runs in a fresh process, where importing
        # numpy.ma (as np.unique does) costs more than the whole check,
        # and so does argparse's first parse (argparse, gettext, locale)
        # or opening a file as ascii text (encodings.ascii)
        path = str(tmp_path / "tower.family")
        _, tower = construct.fano_tower(1, materialize=True)
        open(path, "w").write(family_to_text(tower, t=2))
        src = os.path.dirname(os.path.dirname(laminar.__file__))
        script = (
            "import sys\n"
            "from laminar import cli\n"
            f"code = cli.main(['verify', {path!r}])\n"
            "cold = ('numpy.ma', 'argparse', 'gettext', 'locale', 'encodings.ascii')\n"
            "print(code, [name for name in cold if name in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.splitlines() == [
            "t-laminar (t=2): 1625 sets, all three checks agree", "0 []",
        ], done.stderr

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_endings_read_alike(self, newline, tmp_path, capsys):
        path = tmp_path / "f.family"
        _, tower = construct.fano_tower(0, materialize=True)
        path.write_bytes(family_to_text(tower, t=2).replace("\n", newline).encode("ascii"))
        code, out, _ = run(["verify", str(path)], capsys)
        assert (code, out) == (0, "t-laminar (t=2): 29 sets, all three checks agree\n")
        path.write_bytes("n=3\n\n1 2\n3 1\n".replace("\n", newline).encode("ascii"))
        code, out, err = run(["verify", str(path), "--t", "2"], capsys)
        assert (code, out) == (2, "") and "line 4" in err

    @pytest.mark.parametrize("n, sets", [(10**30, [[1, 2]]), (10**8, [[1, 2], [3, 4]])],
                             ids=["1e30", "1e8"])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_header_n_far_above_the_points(self, n, sets, form, tmp_path, capsys):
        """The checks run on [largest point used], so a header n that
        dwarfs the members sizes nothing and the verdict stands."""
        if form == "text":
            path = tmp_path / "f.family"
            path.write_text(f"n={n} t=2\n" + "".join(f"{a} {b}\n" for a, b in sets))
        else:
            path = tmp_path / "f.json"
            path.write_text(json.dumps({"n": n, "t": 2, "sets": sets}))
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, out) == (0, f"t-laminar (t=2): {len(sets)} sets, all three checks agree\n")
        assert "Traceback" not in err

    def test_header_n_far_above_a_crossing_pair(self, tmp_path, capsys):
        path = tmp_path / "f.family"
        path.write_text(f"n={10**30} t=2\n1 2 3\n2 3 4\n")
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 1 and out.splitlines() == [
            "NOT t-laminar (t=2)",
            "witness sets #1 and #2: {1,2,3} vs {2,3,4}",
            "forbidden submatrix rows (1,2), columns w=4 x=1 shared=2,3",
        ]


class TestSearchCommand:
    def test_small_exact(self, capsys):
        code, out, _ = run(["search", "--n", "3", "--t", "2"], capsys)
        assert code == 0 and ": 4 [exact]" in out

    def test_witness_is_parseable(self, capsys):
        code, out, _ = run(["search", "--n", "4", "--t", "2"], capsys)
        fam_text = out.split("\n", 1)[1]
        fam, t, _ = family_from_text(fam_text)
        assert len(fam) == 8 and is_t_laminar(fam, 2)

    def test_json_output(self, capsys):
        # n = 8: the greedy seed stays below floor(obf(8)) = 38, so the search runs
        code, out, _ = run(["search", "--n", "8", "--t", "2", "--json"], capsys)
        doc = json.loads(out)
        assert doc["size"] == 37 and doc["exact"]
        assert set(doc) == {"n", "t", "size", "exact", "nodes", "forced", "family"}
        assert doc["forced"] == 29  # the 28 pairs and [8]
        assert doc["nodes"] >= 1

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "8", "--t", "2"],
             "70638a3bc8c7acda86b2a897384c79ecda2cd4f7f5fee34b3ce8660415f466e4"),
            (["--n", "8", "--t", "2", "--json"],
             "ff9b9a981ccdeafe461f80f9f08453bd416d318299eb2438b3cf7b7762d0c824"),
            (["--n", "9", "--t", "2"],
             "f18025c6156225090c6f6ec3a2495f816a1fe4aa94799664d1a8b2178ac62ca7"),
            (["--n", "9", "--t", "2", "--json"],
             "964c825e2326ffff27acf8740b22bc2e64533699381508e8daf63727c053cfb2"),
            (["--n", "8", "--t", "3"],
             "e3a92768d63a32fd6a8498872761abafb8043194594a21c508b6f90acd1041c9"),
            (["--n", "8", "--t", "3", "--json"],
             "ec874a109711dad49a95c5d5e0fb026610564da376c00ae0932f981a82c95928"),
        ],
        ids=["8-2-text", "8-2-json", "9-2-text", "9-2-json", "8-3-text", "8-3-json"],
    )
    def test_output_pinned(self, argv, digest, capsys):
        """search's stdout byte for byte, member order included: n = 8 at
        t = 2 runs the clique search (223 branch nodes); at n = 9 the
        greedy seed meets the bound."""
        code, out, _ = run(["search", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_output_verifies(self, json_flag, tmp_path, capsys):
        code, out, _ = run(["search", "--n", "6", "--t", "2"] + json_flag, capsys)
        assert code == 0
        path = tmp_path / ("found.json" if json_flag else "found.family")
        path.write_text(out)
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, err) == (0, f"{BLOCKED}; check 3: 42 t-subset rows\n")
        assert out == "t-laminar (t=2): 20 sets, all three checks agree\n"

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_bad_budget_exit_2(self, budget, capsys):
        # small n: without the check the search would finish, not hang
        code, out, err = run(["search", "--n", "6", "--budget", budget], capsys)
        assert code == 2 and out == ""
        assert err == "budget must be a finite number of seconds >= 0\n"

    def test_zero_budget_exit_3(self, tmp_path, capsys):
        # n = 8: the greedy seed (37) stays below floor(obf(8)) = 38
        code, out, _ = run(["search", "--n", "8", "--budget", "0", "--json"], capsys)
        assert code == 3
        doc = json.loads(out)
        assert not doc["exact"] and doc["forced"] == 29  # the 28 pairs and [8]
        sets = {tuple(s) for s in doc["family"]["sets"]}
        assert {(a, b) for a in range(1, 9) for b in range(a + 1, 9)} <= sets
        assert tuple(range(1, 9)) in sets
        path = tmp_path / "found.json"
        path.write_text(out)
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, err) == (0, f"{BLOCKED}; check 3: 83 t-subset rows\n")
        assert out.startswith("t-laminar (t=2):")

    def test_zero_budget_meets_the_bound_exit_0(self, capsys):
        # the greedy seed holds floor(obf(9)) = 49 sets: exact without search
        code, out, _ = run(["search", "--n", "9", "--budget", "0", "--json"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["exact"] and doc["size"] == 49 and doc["nodes"] == 0

    def test_n_above_cap_exit_3_before_building(self, monkeypatch, capsys):
        def build(*args):
            raise AssertionError("compatibility graph built")

        monkeypatch.setattr(search.CompatGraph, "build", build)
        code, out, err = run(["search", "--n", "16", "--budget", "0"], capsys)
        assert code == 3 and out == ""
        assert err == f"search on n=16 points exceeds the cap {search.MAX_SEARCH_N}\n"

    @pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--n", "0"), ("--t", "0")])
    def test_bad_n_or_t_exit_2(self, flag, value, capsys):
        argv = ["search", "--n", "5", "--t", "2"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "n and t must be >= 1\n"


class TestSummaryCommand:
    def test_without_cache(self, capsys):
        """Without --N, summary builds no table and has no bound side."""
        code, out, _ = run(["summary"], capsys)
        assert code == 0
        assert "bound side: none" in out and "tower r=2" in out
        assert out.rstrip().endswith(", ?]")
        code, out, _ = run(["summary", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] is None and doc["bracket"][1] is None

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    def test_cache_without_values_is_left_alone(self, content, tmp_path, capsys,
                                                monkeypatch):
        """A cache file left by an older version, in the working directory
        or named by LAMINAR_CACHE, is neither read nor written by summary."""
        cache = tmp_path / "obf.cache"
        cache.write_text(content)
        monkeypatch.setenv("LAMINAR_CACHE", str(cache))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["summary"], capsys)
        assert code == 0 and cache.read_text() == content
        assert "bound side: none" in out and out.rstrip().endswith(", ?]")
        code, out, _ = run(["summary", "--json"], capsys)
        assert code == 0 and cache.read_text() == content
        doc = json.loads(out)
        assert doc["bound"] is None and doc["bracket"][1] is None
        assert os.listdir(tmp_path) == ["obf.cache"]

    def test_with_cache(self, capsys):
        """With --N, summary builds the table cold to N."""
        code, out, _ = run(["summary", "--N", "100"], capsys)
        assert code == 0
        assert "bound side: N=100 " in out
        assert "bracket: [1.38180306817," in out

    def test_json_bracket(self, capsys):
        code, out, _ = run(["summary", "--N", "100", "--json"], capsys)
        doc = json.loads(out)
        assert doc["bound"]["N"] == 100
        assert doc["bracket"][0].startswith("1.38180")

    def test_bound_is_obf_report(self, capsys):
        """The bound side carries obf's report fields at N."""
        code, out, _ = run(["summary", "--N", "100", "--json"], capsys)
        assert code == 0
        bound = json.loads(out)["bound"]
        code, out, _ = run(["obf", "--N", "100", "--json"], capsys)
        doc = json.loads(out)
        del doc["frontier_log"]
        assert code == 0 and bound == doc

    def test_n2_bound_side(self, capsys):
        """At N = 2 the critical set is that of Theta_2, not that of obf(3),
        which the table always holds."""
        code, out, _ = run(["summary", "--N", "2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["bound"] == {
            "N": 2, "obf_N": "1/1", "ratio_decimal": "1", "tail": "1/1",
            "upper_limit_decimal": "2", "critical": [1, 2],
        }

    @pytest.mark.parametrize("n", ["1", "-5"])
    def test_n_below_2_exit_2(self, n, capsys):
        code, out, err = run(["summary", "--N", n], capsys)
        assert code == 2 and out == "" and err == "N must be >= 2\n"


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_commands_run_on_a_frozen_heap(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_search", lambda args: seen.append(gc.get_freeze_count()))
        main(["search", "--n", "3"])
        assert seen[0] > 0 and gc.get_freeze_count() == 0
        assert main(["frobnicate"]) == 2 and gc.get_freeze_count() == 0

    @staticmethod
    def parses_as_argparse(argv, capsys):
        """cli.parse reads argv into argparse's fields, or exits with
        argparse's code, writing to the stream argparse writes to."""
        def fields(namespace) -> dict:  # by repr, so that a NaN equals itself
            return {dest: repr(value) for dest, value in vars(namespace).items()}

        try:
            expected, code = fields(argparse_oracle().parse_args(argv)), None
        except SystemExit as exc:
            expected, code = None, exc.code
        want = capsys.readouterr()
        got = cli.parse(argv)
        out = capsys.readouterr()
        if code is None:
            assert fields(got) == expected and (out.out, out.err) == ("", "")
        else:
            assert got == code
            assert (bool(out.out), bool(out.err)) == (bool(want.out), bool(want.err))
            assert (out.out or out.err).startswith("usage: laminar")

    @pytest.mark.parametrize("argv", USAGE_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_lazy_parser_matches_full(self, argv, capsys):
        """cli.parse, which looks up argv[0]'s command alone, prints, exits
        and parses as argparse's parser of every command does."""
        self.parses_as_argparse(argv, capsys)

    @pytest.mark.parametrize("argv", ORACLE_CORPUS, ids=lambda argv: shlex.join(argv) or "(none)")
    def test_parser_matches_argparse(self, argv, capsys):
        self.parses_as_argparse(argv, capsys)

    def test_plain_argv_leaves_argparse_unimported(self, capsys):
        """Every command runs in a fresh process, where argparse's import
        and first parse cost more than a small `verify`: the harness's
        commands and every documented argv that argparse reads into a
        namespace are read without it."""

        def namespace(argv) -> bool:
            try:
                argparse_oracle().parse_args(argv)
            except SystemExit:
                return False
            return True

        plain = HARNESS_ARGVS + [argv for argv in documented_argvs() if namespace(argv)]
        capsys.readouterr()
        assert len(plain) > 20
        src = os.path.dirname(os.path.dirname(laminar.__file__))
        script = (
            "import json, sys\n"
            "from laminar import cli\n"
            f"for argv in json.loads({json.dumps(plain)!r}):\n"
            "    assert not isinstance(cli.parse(argv), int), argv\n"
            "print('argparse' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.stdout, done.stderr) == ("False\n", "")

    @pytest.mark.parametrize(
        "argv", [["obf", "--N", "100", "--json"], ["search", "--n", "8", "--json"]],
        ids=["obf", "search"])
    def test_closed_stdout_exit_141(self, argv):
        """A reader that closes the pipe early (`| head`) ends the command
        with 128 + SIGPIPE and no traceback, not with 1, "property fails"."""
        src = os.path.dirname(os.path.dirname(laminar.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "laminar.cli", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_obf_n1_exit_2(self, capsys):
        code, _, _ = run(["obf", "--N", "1"], capsys)
        assert code == 2
