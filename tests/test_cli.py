import json
import os
import random

import pytest

from conftest import random_family
from laminar import geometry, setfam
from laminar.cli import main
from laminar.setfam import family_from_text, family_to_text, is_t_laminar


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestObfCommand:
    def test_small_run_json(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        code, out, _ = run(["obf", "--N", "50", "--cache", cache, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["critical"] == [1, 2, 3, 7, 43]
        assert doc["obf_N"].count("/") == 1
        assert doc["frontier_log"][0] == [2, [1, 2]]

    def test_cache_idempotent(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        run(["obf", "--N", "60", "--cache", cache], capsys)
        first = open(cache).read()
        code, out, _ = run(["obf", "--N", "60", "--cache", cache], capsys)
        assert code == 0
        assert open(cache).read() == first

    def test_corrupt_cache_exit_4(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        run(["obf", "--N", "20", "--cache", cache], capsys)
        lines = open(cache).read().splitlines()
        lines[1] = "3\t7/1"
        open(cache, "w").write("\n".join(lines) + "\n")
        code, _, err = run(["obf", "--N", "20", "--cache", cache], capsys)
        assert code == 4
        assert "line 2" in err

    def test_decreasing_cache_exit_4(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        run(["obf", "--N", "60", "--cache", cache], capsys)
        lines = open(cache).read().splitlines()
        # swap the values of obf(40) and obf(41)
        v40, v41 = lines[38].split("\t")[1], lines[39].split("\t")[1]
        lines[38], lines[39] = f"40\t{v41}", f"41\t{v40}"
        open(cache, "w").write("\n".join(lines) + "\n")
        code, _, err = run(["obf", "--N", "60", "--cache", cache], capsys)
        assert code == 4
        assert "line 40: obf(41)" in err and "below obf(40)" in err

    def test_env_cache_path(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "env.cache")
        monkeypatch.setenv("LAMINAR_CACHE", cache)
        code, _, _ = run(["obf", "--N", "10"], capsys)
        assert code == 0 and os.path.exists(cache)

    def test_obf_n2(self, tmp_path, capsys):
        code, out, _ = run(
            ["obf", "--N", "2", "--cache", str(tmp_path / "c")], capsys
        )
        assert code == 0 and "obf(2) = 1" in out


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

    @pytest.mark.parametrize("kind", ["projective", "circle"])
    def test_bad_q_exit_2(self, kind, capsys):
        code, _, err = run(["construct", kind, "--q", "10"], capsys)
        assert code == 2 and "prime power" in err

    def test_packing_kind(self, tmp_path, capsys):
        out_path = str(tmp_path / "p.design")
        code, out, _ = run(
            ["construct", "packing", "--n", "7", "--k", "3", "--t", "2",
             "--seed", "1", "--out", out_path, "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["blocks"] >= 5

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_packing_t_below_one_exit_2(self, t, tmp_path, capsys):
        out_path = tmp_path / "p.design"
        code, _, err = run(
            ["construct", "packing", "--n", "5", "--k", "2", "--t", t, "--out", str(out_path)],
            capsys,
        )
        assert code == 2 and "t must be >= 1" in err
        assert not out_path.exists()

    def test_failed_construction_check_exit_4(self, tmp_path, capsys, monkeypatch):
        real = geometry._unique_rows
        monkeypatch.setattr(geometry, "_unique_rows", lambda rows, base: real(rows, base)[1:])
        out_path = tmp_path / "c3.design"
        code, out, err = run(["construct", "circle", "--q", "3", "--out", str(out_path)], capsys)
        assert code == 4 and out == "" and not out_path.exists()
        assert err.count("\n") == 1 and "block count 29 != 30" in err

    def test_tower_report_without_materialize(self, capsys):
        code, out, _ = run(["construct", "fano-tower", "--r", "2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["count_geq_t"] == 3981251


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
        open(path, "w").write("n=3\n3 1\n")
        code, _, err = run(["verify", path, "--t", "2"], capsys)
        assert code == 2 and "line 2" in err

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

    def test_agrees_with_library_on_random_fixtures(self, tmp_path, capsys):
        rng = random.Random(2718)
        for i in range(100):
            fam = random_family(rng)
            t = rng.choice([1, 2, 3])
            path = str(tmp_path / f"fix{i}.family")
            open(path, "w").write(family_to_text(fam, t=t))
            code, _, _ = run(["verify", path], capsys)
            assert (code == 0) == is_t_laminar(fam, t)


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
        code, out, _ = run(["search", "--n", "5", "--t", "2", "--json"], capsys)
        doc = json.loads(out)
        assert doc["size"] == 13 and doc["exact"]
        assert set(doc) == {"n", "t", "size", "exact", "nodes", "forced", "family"}
        assert doc["forced"] == 11  # the 10 pairs and [5]
        assert doc["nodes"] >= 1

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_output_verifies(self, json_flag, tmp_path, capsys):
        code, out, _ = run(["search", "--n", "6", "--t", "2"] + json_flag, capsys)
        assert code == 0
        path = tmp_path / ("found.json" if json_flag else "found.family")
        path.write_text(out)
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out == "t-laminar (t=2): 20 sets, all three checks agree\n"

    @pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--n", "0"), ("--t", "0")])
    def test_bad_n_or_t_exit_2(self, flag, value, capsys):
        argv = ["search", "--n", "5", "--t", "2"]
        argv[argv.index(flag) + 1] = value
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "n and t must be >= 1\n"


class TestSummaryCommand:
    def test_without_cache(self, tmp_path, capsys):
        code, out, _ = run(
            ["summary", "--cache", str(tmp_path / "missing.cache")], capsys
        )
        assert code == 0
        assert "no cache" in out and "tower r=2" in out

    def test_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        run(["obf", "--N", "100", "--cache", cache], capsys)
        code, out, _ = run(["summary", "--cache", cache], capsys)
        assert code == 0
        assert "bracket: [1.38180306817," in out

    def test_json_bracket(self, tmp_path, capsys):
        cache = str(tmp_path / "c.cache")
        run(["obf", "--N", "100", "--cache", cache], capsys)
        code, out, _ = run(["summary", "--cache", cache, "--json"], capsys)
        doc = json.loads(out)
        assert doc["bound"]["N"] == 100
        assert doc["bracket"][0].startswith("1.38180")


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_obf_n1_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["obf", "--N", "1", "--cache", str(tmp_path / "c")], capsys)
        assert code == 2
