"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root with::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def invoke(*argv):
    """Run the benchmark in-process: (exit code, fingerprint, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def untraced_part(fingerprint):
    return {key: value for key, value in fingerprint.items()
            if key != "trace"}


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert UNIT.match(unit), unit


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    notes = json.loads((HERE / "workloads.json").read_text())
    assert set(notes["workloads"]) == set(workloads.WORKLOADS)
    assert notes["held_out_seed"] != notes["default_seed"]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_wrappers_restore_the_original_functions():
    wrapped = spans._layer_wrappers()
    before = [(owner, attribute, vars(owner)[attribute])
              for owner, attribute, *__ in wrapped]
    handlers = dict(workloads.HANDLERS)
    tracer = spans.Tracer().install()
    for kind in workloads.HANDLERS:
        tracer.wrap(workloads.HANDLERS, kind, "service.handler")
    try:
        for owner, attribute, original in before:
            assert vars(owner)[attribute] is not original
        assert all(workloads.HANDLERS[kind] is not handlers[kind]
                   for kind in handlers)
    finally:
        tracer.uninstall()
    for owner, attribute, original in before:
        assert vars(owner)[attribute] is original
    assert workloads.HANDLERS == handlers


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.set_op("op-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100000))
        sum(range(100000))
    totals = tracer.totals()
    inner, outer = totals["inner"], totals["outer"]
    assert outer["self_s"] == pytest.approx(outer["busy_s"]
                                            - inner["busy_s"])
    assert inner["self_s"] == inner["busy_s"]
    ids = {span[1]: span for span in tracer.spans}
    assert ids["inner"][4] == ids["outer"][0]
    assert ids["inner"][5] == "op-1"


# ----------------------------------------------------------------------
# determinism: fingerprints repeat, traced == untraced
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload,ops", [
    ("attack-service", "60"),
    ("image-recovery", "2"),
    ("aes-key-extraction", "1"),
])
def test_traced_and_untraced_runs_agree(workload, ops):
    argv = ["--workload", workload, "--seed", "3", "--ops", ops]
    code, plain, result = invoke(*argv, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    code, traced, layers = invoke(*argv, "--trace", "1")
    assert code == 0 and layers["correct"]
    assert untraced_part(traced) == plain
    assert traced["trace"], "a traced run records span counts"
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert set(layers["metrics"]) == set(run.PER_LAYER)


def test_traced_span_counts_repeat():
    argv = ["--workload", "attack-service", "--seed", "4", "--ops", "60",
            "--trace", "1"]
    __, first, __ = invoke(*argv)
    __, second, __ = invoke(*argv)
    assert first == second


# ----------------------------------------------------------------------
# non-vacuity: wrong outputs fail the run
# ----------------------------------------------------------------------

def test_corrupted_oracle_byte_fails_the_run(monkeypatch):
    original = workloads.AesSpectreAttack.two_round_leak
    calls = []

    def corrupted(self, plaintext, retry_budget=None):
        # One wrong answer: a constant XOR on every answer would cancel
        # in the differential filter's output differences.
        leak = original(self, plaintext, retry_budget)
        calls.append(plaintext)
        if len(calls) == 2:
            leak.recovered[:] = [byte ^ 0x5A for byte in leak.recovered]
        return leak

    monkeypatch.setattr(workloads.AesSpectreAttack, "two_round_leak",
                        corrupted)
    code, __, result = invoke("--workload", "aes-key-extraction",
                              "--seed", "3", "--ops", "1")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("kind", ["read_pht", "pathfinder_trace"])
def test_tampered_job_value_fails_the_run(monkeypatch, kind):
    original = workloads.HANDLERS[kind]
    seen = []

    def tampered(ctx, params):
        value = original(ctx, params)
        key = repr(sorted(params.items()))
        if kind == "pathfinder_trace":
            pc, flag = value["branch_outcomes"][0]
            value["branch_outcomes"][0] = (pc, not flag)
        elif key in seen:  # a repeat: serve a value unlike the first run
            value["mispredictions"] = [m + 1
                                       for m in value["mispredictions"]]
        seen.append(key)
        return value

    monkeypatch.setitem(workloads.HANDLERS, kind, tampered)
    code, __, result = invoke("--workload", "attack-service", "--seed", "3",
                              "--ops", "60")
    if kind == "read_pht":
        assert len(set(seen)) < len(seen), "the mix repeated a read_pht job"
    assert code == 1
    assert result["failed"] >= 1
    assert result["metrics"]["accuracy"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "image-recovery", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode not in (0, None)
    assert completed.stdout.strip() == ""


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "no-such-workload", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
