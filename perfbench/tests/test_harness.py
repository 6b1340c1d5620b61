"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import compare_outputs  # noqa: E402
from run import END_TO_END, LAYERS, report, run_workload  # noqa: E402
from spans import Tracer, by_name, self_times  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def test_self_time_of_nested_spans_on_two_threads():
    tracer = Tracer()

    def eigensolve():
        time.sleep(0.05)

    solve = tracer.wrap("spectral.eigensolve", eigensolve)

    def greens_column():
        time.sleep(0.02)
        solve()
        time.sleep(0.02)

    def run_trials():
        column = tracer.wrap("spectral.greens_column", greens_column,
                             parent=tracer.current())
        workers = [threading.Thread(target=column) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    tracer.wrap("mc.run_trials", run_trials)()
    spans = tracer.spans
    assert len(spans) == 5
    assert len({s.thread for s in spans}) == 3
    own = self_times(spans)
    # On each thread the self times add up to the outermost span: no
    # interval is counted twice or dropped.
    for thread in {s.thread for s in spans}:
        mine = [s for s in spans if s.thread == thread]
        outer = max(mine, key=lambda s: s.end - s.start)
        assert sum(own[s.id] for s in mine) == pytest.approx(
            outer.end - outer.start, abs=1e-9)
    # Worker spans run on other threads, so they do not reduce the self
    # time of the span that started them.
    root = next(s for s in spans if s.name == "mc.run_trials")
    assert own[root.id] == pytest.approx(root.end - root.start, abs=1e-12)
    assert all(s.parent == root.id for s in spans
               if s.name == "spectral.greens_column")

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    agg = by_name(spans)
    calls, solve_self = agg["spectral.eigensolve"]
    assert calls == 2 and solve_self == pytest.approx(total("spectral.eigensolve"))
    assert solve_self >= 0.1
    calls, column_self = agg["spectral.greens_column"]
    assert calls == 2 and column_self >= 0.08
    assert column_self == pytest.approx(
        total("spectral.greens_column") - total("spectral.eigensolve"), abs=1e-9)


def test_compare_outputs_tolerances():
    ref = {"a.csv": "E,count,x\nnp.float64(0.4),3,1.0\n",
           "s.json": json.dumps({"passed": True, "p": 0.5, "n": 2})}
    close = {"a.csv": "E,count,x\n0.4,3,1.0000000001\n",
             "s.json": json.dumps({"passed": True, "p": 0.5000000001, "n": 2})}
    assert compare_outputs(close, ref) == []
    wrong_count = dict(close, **{"a.csv": "E,count,x\n0.4,4,1.0\n"})
    assert len(compare_outputs(wrong_count, ref)) == 1
    wrong_float = dict(close, **{"a.csv": "E,count,x\n0.4,3,1.001\n"})
    assert len(compare_outputs(wrong_float, ref)) == 1
    wrong_flag = dict(close, **{"s.json": json.dumps(
        {"passed": False, "p": 0.5, "n": 2})})
    assert len(compare_outputs(wrong_flag, ref)) == 1
    assert compare_outputs({"a.csv": close["a.csv"]}, ref)


def test_reference_holds_the_seed_counts():
    def counts(name):
        path = BENCH / "reference" / f"{name}.json"
        return json.loads(path.read_text())["seeds"][str(REFERENCE_SEED)]["counts"]

    msa = counts("msa-probe")
    assert msa["spectral.eigh.calls"] == 2020
    assert msa["spectral.lu_factor.calls"] == 3939
    assert msa["spectral.eigensolve.calls"] == 7878
    assert (msa["msa.verdict.certified_regular"],
            msa["msa.verdict.certified_irregular"],
            msa["msa.verdict.indeterminate"]) == (1890, 101, 29)
    assert counts("wegner-count")["spectral.eigh.calls"] == 100
    assert counts("decay-vectors")["spectral.eigh_vectors.calls"] == 3


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_harness_metrics_match_benchmark_json():
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == LAYERS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, capsys):
    tiny = dataclasses.replace(
        WORKLOADS[name], config=dict(WORKLOADS[name].config, trials=1))
    result = run_workload(ROOT, tiny, 0, 0.0, trace, None)
    line = report(result)
    assert json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == (2 if trace else 1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wegner-count",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
