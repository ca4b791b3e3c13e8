"""Tests of the benchmark itself: runs, metric names, checks, spans, comparison."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Hook, Installed, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_traced_tiny_run_reports_every_layer_metric():
    result = _result(_run("--workload", "mixed-planted", "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"))
    assert result["correct"] is True
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    assert result["metrics"]["number.certificate.calls"]["value"] >= 1


def test_every_declared_metric_is_named_once_with_a_unit():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(m["unit"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    traced = layers.per_layer_metrics(Tracer(), 1, 0.0)
    assert {n: u for n, (_, u) in traced.items()} == _declared("per_layer")


def test_missing_library_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "families", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _number(lo, hi, witness=None):
    return SimpleNamespace(value_lo=lo, value_hi=hi, exact=lo == hi, witness_ensemble=witness)


def test_checker_flags_w4_reported_as_5():
    import multischmidt as ms

    w4 = next(c for c in workloads.make_families(ms, 0, tiny=False) if c.label == "W4")
    assert checks.pure_number_problems(w4, _number(6, 6)) == []
    assert checks.pure_number_problems(w4, _number(5, 5))
    assert checks.pure_number_problems(w4, _number(6, 5))  # malformed interval


def test_checker_flags_value_lo_above_planted_maximum():
    import multischmidt as ms

    cases = workloads.make_mixed_planted(ms, 0, tiny=True)
    separable = cases[0]
    assert checks.mixed_problems(separable, _number(1, 1), None) == []
    problems = checks.mixed_problems(separable, _number(2, 2), None)
    assert any(p.startswith(checks.LO_ABOVE_PLANTED) for p in problems)
    # only the documented two-party >= 3x3 rank-2 shape counts as the known defect
    assert not checks.is_known_defect(separable, problems)
    defect_shape = next(c for c in cases if c.expect["defect_class"])
    assert checks.is_known_defect(defect_shape, checks.mixed_problems(defect_shape, _number(3, 3), None))


def test_checker_flags_a_witness_that_does_not_rebuild_rho():
    import multischmidt as ms

    case = workloads.make_mixed_planted(ms, 0, tiny=True)[0]
    bogus = ms.EnsembleCandidate((1.0,), (ms.PureState(case.data.profile, [1, 0, 0, 0]),))
    problems = checks.mixed_problems(case, _number(1, 1, bogus), lambda s: _number(1, 1))
    assert any("rebuilds" in p for p in problems)


def test_self_time_on_a_synthetic_recursive_tree():
    # pure[0,10] > mixed[1,9] > certificate[2,8] > pure[3,5] and pure[6,7]
    ticks = iter([0, 1, 2, 3, 5, 6, 7, 8, 9, 10])
    tr = Tracer(clock=lambda: next(ticks))
    tr.enter("pure"), tr.enter("mixed"), tr.enter("cert")
    tr.enter("pure"), tr.exit(), tr.enter("pure"), tr.exit()
    tr.exit(), tr.exit(), tr.exit()
    assert dict(tr.calls) == {"pure": 3, "mixed": 1, "cert": 1}
    assert tr.self_s["pure"] == (10 - 8) + 2 + 1
    assert tr.self_s["mixed"] == 8 - 6
    assert tr.self_s["cert"] == 6 - 3
    assert sum(tr.self_s.values()) == 10


def test_calibration_scales_by_the_reference_time_around_a_sample():
    cal = calibration.Calibration()
    ref = calibration.REFERENCE_S
    cal.mid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    cal.seconds = [ref, ref, 2 * ref, 2 * ref, 2 * ref, ref]
    # two samples on each side of [2.5, 2.6]: ref, 2ref | 2ref, 2ref
    assert cal.factor(2.5, 2.6) == 0.5
    # a sample taken inside the interval counts too: ref, 2ref | 2ref | 2ref, ref
    assert cal.factor(2.5, 3.5) == 0.5
    # at the end of the run only the samples that exist count: 2ref, 2ref | ref
    assert cal.factor(4.5, 4.6) == 0.5
    cal.sample()
    assert len(cal.seconds) == 7 and cal.seconds[-1] > 0


def test_absent_targets_are_reported_and_wrappers_undone():
    import multischmidt.core as core

    original = core.reduce
    tr = Tracer()
    hooks = (
        Hook("gone", ("multischmidt.core:no_such_function", "multischmidt.nowhere:f")),
        Hook("core.reduce", ("multischmidt.core:reduce",)),
    )
    with Installed(tr, hooks, rebind_in=("multischmidt",)) as installed:
        import multischmidt.number as number

        assert number.reduce is not original
        core.reduce(core.PureState(core.DimensionProfile((2,)), [1, 0]), core.SubsystemSet((1,)))
    assert installed.absent == ["multischmidt.core:no_such_function", "multischmidt.nowhere:f"]
    assert core.reduce is original and number.reduce is original
    assert tr.calls["core.reduce"] == 1


def test_comparison_verdicts():
    ten = list(range(10))
    faster = [100.0 - i * 0.1 for i in ten]
    parent = [120.0 + (i % 3) for i in ten]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(faster, parent, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [100.0, 150.0, 80.0, 130.0, 60.0, 140.0, 90.0, 120.0, 70.0, 110.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
