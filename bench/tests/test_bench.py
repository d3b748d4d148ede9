"""Tests of the benchmark itself, at a tiny scale.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = 5


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {name: run.run_workload(name, SEED, seconds=0, trace=True, scale=run.TINY,
                                   out_root=root)
            for name in run.WORKLOADS}


def test_every_metric_is_reported_with_its_unit(traced, capsys):
    spec = run.declared()
    for result in traced.values():
        assert result["failures"] == []
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            metrics = run.report({**result, "trace": trace})
            assert list(metrics) == [m["name"] for m in spec[kind]]
            for m in spec[kind]:
                assert metrics[m["name"]]["unit"] == m["unit"]
                assert isinstance(metrics[m["name"]]["value"], float)
            printed = capsys.readouterr().out
            for m in spec[kind]:
                assert f"  {m['name']} = " in printed


def test_expected_layers_record_calls(traced):
    for name, result in traced.items():
        layers = result["per_layer"]
        for layer in run.WORKLOADS[name].layers:
            assert layers[f"{layer}.self_s"] > 0, (name, layer)
    assert traced["apply-corpus"]["per_layer"]["segmentation.merges"] > 0
    assert traced["oof-calibrate"]["per_layer"]["losses.calls"] > 0
    assert traced["apply-corpus"]["per_layer"]["folds.self_s"] == 0
    assert traced["oof-calibrate"]["per_layer"]["segmentation.self_s"] == 0


def test_self_times_and_start_up_cover_the_traced_pass(traced):
    # At this scale start-up is most of a pass, and the start-up samples
    # are taken a few seconds away from the traced pass, hence the slack.
    for result in traced.values():
        assert 0.7 <= result["per_layer"]["trace.coverage"] <= 1.3


def test_self_times_add_up_to_the_root_spans():
    # root 0..10 calls a 1..4 (which calls b 2..3) and a 5..6
    spans = [[3, 2, "metrics.b", 2.0, 3.0, 1], [2, 1, "core.a", 1.0, 4.0, 1],
             [4, 1, "core.a", 5.0, 6.0, 1], [1, None, "cli.main", 0.0, 10.0, 1]]
    own = tracer.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    layers = tracer.reduce_child({"spans": spans, "calls": {"metrics.b": 1}, "counts": {},
                                  "import_s": 0.5})
    assert layers["cli.self_s"] == 6.0 and layers["core.self_s"] == 3.0
    assert layers["metrics.self_s"] == 1.0
    assert sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) == 10.0


def test_corrupted_match_counts_as_a_failure(tmp_path):
    planted, stages = run.prepare("apply-corpus", SEED, run.TINY, tmp_path)
    p = run.run_pass(stages, tmp_path, "warmup", 0, trace=False)
    assert all(child.ok for _, child in p.children)
    checks = run.WORKLOADS["apply-corpus"].check
    assert [f for _, f in checks(tmp_path / "inputs", tmp_path / "warmup", planted) if f] == []

    matches_path = tmp_path / "warmup" / "matches.json"
    matches = json.loads(matches_path.read_text())
    wrong = next(p["id"] for p in planted["paragraphs"] if p["id"] != matches[0]["paragraph_id"])
    matches[0]["paragraph_id"] = wrong
    matches_path.write_text(json.dumps(matches))
    failures = dict(checks(tmp_path / "inputs", tmp_path / "warmup", planted))
    assert failures["match"] and "q000" in failures["match"]
    assert [name for name, failure in failures.items() if failure] == ["match"]


def test_stage_over_the_memory_cap_is_a_failure(tmp_path):
    assert run.run_child(["--version"], tmp_path).ok
    over = run.run_child(["--version"], tmp_path, cap=64 << 20)
    assert not over.ok and over.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "apply-corpus",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
