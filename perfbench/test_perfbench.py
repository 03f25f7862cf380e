"""The benchmark's own tests.  Run from the root of the repository:

    python3 -m pytest perfbench -q

They run each workload on a one-case pool, so they take a few seconds
per workload; the repository's tier-1 suite does not collect them.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, frame_bits  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
REPORTED = ("setup_s", "cases_per_s", "case_ms.p50", "case_ms.tail",
            "fail_ratio", "peak_rss_mb", "answer_kb")


def _one_case_pool(monkeypatch, name, **changes):
    w = dataclasses.replace(workloads.WORKLOADS[name], pool=1, **changes)
    monkeypatch.setitem(workloads.WORKLOADS, name, w)
    return w


def _run(capsys, name, traced):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(int(traced))])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_workload_names_match_benchmark_file():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(name, monkeypatch, capsys):
    _one_case_pool(monkeypatch, name)
    code, lines, result = _run(capsys, name, traced=False)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for metric in REPORTED:
        assert f"  {metric} " in report
    assert "inputs sha256 " in lines[0]


@pytest.mark.parametrize("name", ("cyclic12_rank4", "splitting_oracle"))
def test_traced_smoke_prints_every_layer_metric(name, monkeypatch, capsys,
                                                tmp_path):
    _one_case_pool(monkeypatch, name)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    code, _, result = _run(capsys, name, traced=True)
    assert code == 0
    # failed counts replays that did not reproduce the untraced answer
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1
    spans = json.loads((tmp_path / f"spans-{name}-3.json").read_text())
    assert {s["name"] for s in spans} >= {"case", "parse"}


def test_shifted_certificate_degree_counts_as_failure(monkeypatch, capsys):
    name = "cyclic12_rank4"
    honest = workloads.WORKLOADS[name].solve

    def shifted(case):
        answer, context = honest(case)
        doc = json.loads(answer)
        doc["even_blocks"][0]["degree"] += 1
        return json.dumps(doc), context

    _one_case_pool(monkeypatch, name, solve=shifted)
    code, lines, result = _run(capsys, name, traced=False)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("fail_ratio" in line and "1.0000" in line for line in lines)


def test_crashing_case_counts_as_failure():
    w = workloads.WORKLOADS["splitting_oracle"]
    broken = workloads.Case(0, ('{"kind": "bundle"}',), "{0}")
    out = run.measure(w, [broken], seconds=0)
    assert out["attempted"] == 1 and out["failed"] == 1


def test_inputs_depend_on_the_seed_only():
    w = workloads.WORKLOADS["splitting_oracle"]
    digest = lambda seed: workloads.input_digest(workloads.generate(w, seed, 40))
    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_tail_percentile_keeps_ten_cases_beyond():
    assert run.tail_percentile(range(99)) is None
    assert run.tail_percentile(range(100)) == (90.0, 89)
    assert run.tail_percentile(range(1000)) == (99.0, 989)


def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    times = rec.self_times()
    inner = rec.spans[1][3] - rec.spans[1][2]
    outer = rec.spans[0][3] - rec.spans[0][2]
    assert times["inner"] == inner
    assert abs(times["outer"] - (outer - inner)) < 1e-12


def test_frame_bits_reads_coefficients_only():
    cert = json.dumps({"change_of_frame": [["z^-7+255/2·z12^11", "-z4"]]})
    assert frame_bits(cert) == 8
    assert frame_bits("{2, 1}") == 0
    assert frame_bits("not equivalent") == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "klein_rank8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
