"""Self-tests of the benchmark: contract file, smoke runs, failure counting, tracer.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from vttcap.errors import TrainingError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke_run(workload, trace, monkeypatch, capsys):
    """run.main in process, with ``workload`` shrunk to a smoke-test size."""
    monkeypatch.setitem(pipeline.WORKLOADS, workload,
                        pipeline.smoke(pipeline.WORKLOADS[workload]))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_contract_file_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(pipeline.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.per_layer_spec()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload, monkeypatch, capsys):
    report, res = smoke_run(workload, 0, monkeypatch, capsys)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 9, report["stages"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert report["env"]["processes"] == 1


@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_smoke_traced_run_is_complete(workload, monkeypatch, capsys):
    report, res = smoke_run(workload, 1, monkeypatch, capsys)
    assert res["correct"], report["stages"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(spans.per_layer_spec())
    tracing = report["tracing"]
    assert tracing["complete"], tracing
    assert tracing["checked"] >= 15
    assert res["metrics"]["trace.boundaries_wrapped"]["value"] == len(spans.BOUNDARIES)
    assert res["metrics"]["trace.counts_matched"]["value"] == tracing["checked"]
    assert res["metrics"]["model.greedy_decode.calls"]["value"] > 0
    assert res["metrics"]["model.save_checkpoint.bytes"]["value"] > 0


def test_failing_stage_counts_as_failed_operation(tmp_path, monkeypatch):
    def broken_train(*args, **kwargs):
        raise TrainingError("injected")

    monkeypatch.setattr("vttcap.cli.train_xe", broken_train)
    w = pipeline.smoke(pipeline.WORKLOADS["desk"])
    stages, metrics, _ = run.measure(w, 3, 0, tmp_path / "work")
    failed = [s for s in stages if s.failed]
    assert [s.command for s in failed] == ["train"] and failed[0].code == 3
    assert len(stages) == 2 * run.SETUP_REPEATS + 1
    assert "xe_tokens_per_s" not in metrics


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    t = spans.Tracer()
    t.active = True
    with t.span("outer"):
        with t.span("inner"):
            sum(range(10000))
        with t.span("inner"):
            sum(range(10000))
    s = t.summary()["per_name"]
    a = t.arrays()
    dur = a["end"] - a["start"]
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert s["outer"]["s"] == pytest.approx(dur[0])


def test_install_patches_every_importing_namespace():
    import vttcap.model as model
    import vttcap.scst as scst
    import vttcap.training as training

    original = model.greedy_decode
    t = spans.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert training.greedy_decode is model.greedy_decode is scst.greedy_decode
        assert model.greedy_decode is not original
    finally:
        t.uninstall()
    assert training.greedy_decode is original and model.greedy_decode is original
