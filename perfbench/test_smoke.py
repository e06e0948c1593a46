"""Smoke test of the benchmark at tiny sizes (--scale small).

Pins the result schema and the metric names and units against
BENCHMARK.json, and checks that the output checks reject wrong answers
and that the benchmark refuses to run without the laminar sources.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema_and_metric_names(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert "error_rate = 0 " in proc.stdout
    assert proc.stdout.startswith("# env ")


def test_refuses_to_run_without_sources():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = _bench("--workload", "bound", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_checks_reject_wrong_answers():
    s = workloads.SCALES["small"]
    good = {"code": 0, "error": None, "stdout": json.dumps({
        "N": s.obf_n, "obf_N": s.obf_value, "critical": list(s.critical),
        "frontier_log": [[k, []] for k in s.frontier_starts]})}
    workloads._check_obf(good, s)
    bad = dict(good, stdout=good["stdout"].replace(s.obf_value, "577120/21"))
    with pytest.raises(workloads.Mismatch):
        workloads._check_obf(bad, s)
    with pytest.raises(workloads.Mismatch):
        workloads._check_obf(dict(good, code=4), s)

    # the Fano plane is a 2-(7,3,1) design; moving one point breaks it
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "fano.design"
        path.write_text("n=7 t=2\n" + "".join(" ".join(map(str, b)) + "\n" for b in fano))
        workloads.check_design(path, 2, 7, 3, 7)
        path.write_text(path.read_text().replace("3 5 6", "3 5 7"))
        with pytest.raises(workloads.Mismatch):
            workloads.check_design(path, 2, 7, 3, 7)


def test_crossing_set_is_seeded_and_crosses():
    sets = [(1, 2), (1, 2, 3), (4, 5), (1, 2, 3, 4, 5, 6, 7)]
    a = workloads.crossing_set(sets, 7, random.Random(5))
    assert a == workloads.crossing_set(sets, 7, random.Random(5))
    assert workloads._masks([a])[0] not in workloads._masks(sets)
    assert workloads.first_crossing(workloads._masks(sets + [a]), 2) is not None


def test_self_time_is_span_minus_children():
    mod = types.SimpleNamespace()
    mod.child = lambda: sum(range(20000))
    mod.parent = lambda: [mod.child() for _ in range(3)]
    tracer = Tracer()
    mod.child = tracer.wrap("child", mod.child)
    mod.parent = tracer.wrap("parent", mod.parent)
    mod.parent()
    rep = tracer.report()
    assert rep["calls"] == {"child": 3, "parent": 1}
    assert rep["self"]["parent"] == pytest.approx(rep["total"]["parent"] - rep["total"]["child"])
    assert rep["self"]["child"] == rep["total"]["child"]
