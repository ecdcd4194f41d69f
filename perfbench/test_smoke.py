"""Toy-size smoke test of the benchmark (a few seconds; the figures mean nothing).

    python3 -m pytest -q perfbench/test_smoke.py

It runs ``run.main`` in this process on ``workloads.TOY_SIZES`` and checks
that one command prints every metric of ``spec.py`` for every workload that
has it, that the last line carries exactly the metrics ``BENCHMARK.json``
lists, that ``BENCHMARK.json`` is what ``spec.py`` renders, and that the
benchmark fails cleanly without the fpbits sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def toy_run(monkeypatch, capsys):
    """``run.main`` on toy sizes; returns its exit code and its stdout."""
    monkeypatch.setattr(workloads, "SIZES", workloads.TOY_SIZES)
    for var in run._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)  # restored after the test

    def _run(*args):
        code = run.main(["--seconds", "1", *args])
        return code, capsys.readouterr().out

    return _run


def _printed(stdout: str):
    return {tuple(line.split()[1:3]) for line in stdout.splitlines() if line.startswith("metric ")}


def test_one_command_prints_every_metric(toy_run):
    code, out = toy_run("--seed", "3")
    assert code == 0, out
    printed = _printed(out)
    for m in spec.END_TO_END:
        for workload in m.workloads:
            assert (workload, m.name) in printed
    for m in spec.PER_LAYER:
        for workload in spec.BOTH:
            assert (workload, m.name) in printed
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True
    assert "untyped={}" in out


def test_last_line_has_exactly_the_gated_metrics(toy_run):
    with open(spec.BENCHMARK_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        for workload in spec.BOTH:
            code, out = toy_run("--workload", workload, "--seed", "4", "--trace", trace)
            assert code == 0, out
            result = json.loads(out.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in doc[section]}
            for name, entry in result["metrics"].items():
                assert set(entry) == {"value", "unit"}
                if section == "end_to_end":
                    assert entry["value"] > 0, name


def test_benchmark_json_is_rendered_from_spec():
    with open(spec.BENCHMARK_PATH, encoding="utf-8") as fh:
        assert fh.read() == spec.render()


def test_fails_without_the_sources(tmp_path):
    shutil.copy(spec.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "encode-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
