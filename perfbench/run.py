#!/usr/bin/env python3
"""Benchmark of multischmidt's public API on one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload families --seed 1 --seconds 36 --trace 0

The library is imported from ``src/`` of the checkout; without it the
command exits with code 2 and prints no result. Workloads and the reasons
for them are in workloads.py, output checks in checks.py.

``--trace 0`` measures untraced passes over the workload's inputs until the
time is up (at least one pass) and prints the end-to-end metrics. Every
wall time is calibrated against the shared machine's speed of the moment
(calibration.py); the wall times themselves are in the detail line. An
input's latency is its median over the passes; ``states_per_s`` is the
number of inputs over the sum of those latencies, and the latency
percentiles are taken over them. ``setup_s`` is calibrated the same way.
``--trace 1`` alternates untraced and traced passes, checks that traced
results are identical to untraced ones, and prints the per-layer metrics of
layers.py. Both print, before the last line, a ``perfbench-detail`` line
with the environment, the set-up breakdown and the details behind each
metric (compare.py reads it), and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # this process plus two fresh set-up processes
SETUP_REFERENCE_SAMPLES = 5
TAIL_BEYOND = 10
DIGITS_CAP = 16.0


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import multischmidt from this checkout's src/; (module, seconds)."""
    if not (SRC / "multischmidt" / "__init__.py").is_file():
        raise LibraryMissing(f"no multischmidt package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import multischmidt

    elapsed = time.perf_counter() - t0
    if Path(multischmidt.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"imported multischmidt from {multischmidt.__file__}, not {SRC}")
    return multischmidt, elapsed


def budget_for(ms, seed: int):
    return dataclasses.replace(ms.DEFAULT_BUDGET, seed=seed)


def setup(ms, workload, seed: int, tiny: bool):
    """Build the inputs and make one warm-up call; (cases, gen_s, warmup_s)."""
    t0 = time.perf_counter()
    cases = workload.make(ms, seed, tiny)
    t1 = time.perf_counter()
    getattr(ms, cases[0].api)(cases[0].data, budget_for(ms, seed))
    return cases, t1 - t0, time.perf_counter() - t1


def setup_reference_s() -> float:
    """Median reference time right after set-up, to calibrate set-up time."""
    from calibration import Calibration

    cal = Calibration()
    for _ in range(SETUP_REFERENCE_SAMPLES):
        cal.sample()
    return statistics.median(cal.seconds)


def setup_probe(workload: str, seed: int, tiny: bool) -> dict:
    """Set up once more in a fresh process; its import is cold again."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed)]
    cmd += ["--setup-probe"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- measurement -------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    elapsed: float
    latencies: list  # wall seconds per call, one sample per input
    calibrated: list  # the same, scaled by the calibration around each sample
    results: list  # result objects, or the exception a call raised


def one_pass(ms, cases, budget, cal, min_sample_s: float = 0.0) -> Pass:
    """Call the API once per input; calls shorter than ``min_sample_s`` are
    repeated back to back and their mean is the input's latency sample. The
    reference routine runs between inputs when it is due and after the pass."""
    latencies, intervals, results = [], [], []
    start = time.perf_counter()
    for case in cases:
        cal.sample_if_due()
        call = getattr(ms, case.api)
        calls, t0 = 0, time.perf_counter()
        while True:
            try:
                res = call(case.data, budget)
            except Exception as exc:  # a failed call is counted, not fatal
                res = exc
            calls += 1
            if calls == 1:
                results.append(res)
            t1 = time.perf_counter()
            if t1 - t0 >= min_sample_s or isinstance(res, Exception):
                break
        latencies.append((t1 - t0) / calls)
        intervals.append((t0, t1))
    cal.sample()
    calibrated = [x * cal.factor(*span) for x, span in zip(latencies, intervals)]
    return Pass(time.perf_counter() - start, latencies, calibrated, results)


def fingerprint(res):
    """Everything a result reports, in a comparable form."""
    if isinstance(res, Exception):
        return ("raised", repr(res))
    if hasattr(res, "value_lo"):
        trace = json.dumps(res.branch_trace, sort_keys=True, default=repr)
        return (res.value_lo, res.value_hi, res.exact, trace)
    return (res.values, json.dumps(res.provenance, sort_keys=True, default=repr))


def keep_going(start: float, longest_pass: float, seconds: float) -> bool:
    """Start another pass only if it should end within the time given."""
    return time.perf_counter() - start + longest_pass <= seconds


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    k = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[k]


def tail_percentile(inputs: int) -> float:
    """Highest percentile with at least ten inputs beyond it.

    Below twenty inputs that percentile would not exceed the median, so the
    tail is then the maximum.
    """
    if inputs < 2 * TAIL_BEYOND:
        return 100.0
    return 100.0 * (inputs - TAIL_BEYOND) / inputs


# ---- checks ------------------------------------------------------------------------


def judge(ms, cases, results, budget) -> list[dict]:
    """Check each first-pass result; one verdict per case."""
    pure_cache = {}

    def pure_value(state):
        key = state.amplitudes.tobytes()
        if key not in pure_cache:
            pure_cache[key] = ms.pure_schmidt_number(state, budget)
        return pure_cache[key]

    import checks

    verdicts = []
    for case, res in zip(cases, results):
        if isinstance(res, Exception):
            problems = [f"raised {res!r}"]
        else:
            problems = checks.problems(case, res, pure_value)
        known = checks.is_known_defect(case, problems)
        label = f"{case.label} ({case.api})"
        verdicts.append({"label": label, "problems": problems, "known_defect": known})
    return verdicts


def coeff_digits(ms, cases, results, budget) -> float:
    """-log10 of the largest closed-form coefficient error (W3 and GHZ3).

    Workloads without those coefficient calls make them after the timing.
    """
    import checks
    import workloads

    pairs = [
        (c, r) for c, r in zip(cases, results)
        if c.api == "pure_schmidt_coefficients" and c.label in checks.CLOSED_FORMS
    ]
    if not pairs:
        pairs = [(c, ms.pure_schmidt_coefficients(c.data, budget)) for c in workloads.closed_form_cases(ms)]
    errors = [checks.closed_form_error(c.label, r) for c, r in pairs if not isinstance(r, Exception)]
    if not errors:
        return 0.0
    worst = max(errors)
    return DIGITS_CAP if worst <= 10.0**-DIGITS_CAP else -math.log10(worst)


def quality(results, verdicts, passes: int, mismatches: int) -> dict:
    """Exactness, interval size and pass/fail shares over all calls."""
    n = len(results)
    attempted = n * passes
    exact, sizes = 0, []
    for res in results:
        if isinstance(res, Exception):
            continue
        if hasattr(res, "value_lo"):
            exact += res.exact
            sizes.append(res.value_hi - res.value_lo + 1)
        else:  # a coefficient multiset has one size; exactness is its provenance
            exact += res.exact
            sizes.append(1)
    hard = sum(1 for v in verdicts if v["problems"] and not v["known_defect"])
    any_problem = sum(1 for v in verdicts if v["problems"])
    failed = hard * passes + mismatches
    not_passing = any_problem * passes + mismatches
    return {
        "attempted": attempted,
        "failed": failed,
        "exact_frac": exact / n,
        "interval_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "interval_width_mean": statistics.fmean(sizes) - 1.0 if sizes else 0.0,
        "pass_frac": 1.0 - not_passing / attempted,
        "fail_frac": not_passing / attempted,
    }


# ---- environment -------------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---- the two kinds of run ------------------------------------------------------------


def timed_run(ms, workload, cases, budget, seconds: float) -> dict:
    from calibration import Calibration

    cal = Calibration()
    passes, mismatches = [], 0
    start = time.perf_counter()
    while True:
        p = one_pass(ms, cases, budget, cal, workload.min_sample_s)
        if passes:
            # later passes are only compared with the first, then dropped, so
            # peak_rss_mb does not grow with the number of passes
            mismatches += sum(fingerprint(r) != f for r, f in zip(p.results, reference))
            p.results = None
        else:
            reference = [fingerprint(r) for r in p.results]
        passes.append(p)
        if not keep_going(start, max(p.elapsed for p in passes), seconds):
            break
    first = passes[0]
    latencies = [x for p in passes for x in p.latencies]

    def per_input(kind: str) -> list:
        # an input's latency is its median over the passes, so a pause of the
        # machine that hits it in one pass does not become the tail
        return [statistics.median(getattr(p, kind)[i] for p in passes) for i in range(len(cases))]

    wall, calibrated = per_input("latencies"), per_input("calibrated")
    verdicts = judge(ms, cases, first.results, budget)
    q = quality(first.results, verdicts, len(passes), mismatches)
    tail_q = tail_percentile(len(cases))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = {
        kind: {
            "states_per_s": len(per) / sum(per),
            "latency_p50_ms": 1e3 * statistics.median(per),
            "latency_tail_ms": 1e3 * percentile(per, tail_q),
        }
        for kind, per in (("calibrated", calibrated), ("wall", wall))
    }
    units = {"states_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {
        **{name: (value, units[name]) for name, value in timing["calibrated"].items()},
        "exact_frac": (q["exact_frac"], "ratio"),
        "interval_size_mean": (q["interval_size_mean"], "integer"),
        "pass_frac": (q["pass_frac"], "ratio"),
        "coeff_digits": (coeff_digits(ms, cases, first.results, budget), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "passes": len(passes),
        "tail_percentile": tail_q,
        "latency_samples": len(latencies),
        "latency_inputs": len(cases),
        "wall": timing["wall"],
        "reference_ms": {
            "median": 1e3 * statistics.median(cal.seconds),
            "min": 1e3 * min(cal.seconds),
            "max": 1e3 * max(cal.seconds),
            "samples": len(cal.seconds),
        },
        "fail_frac": q["fail_frac"],
        "interval_width_mean": q["interval_width_mean"],
        "mismatched_repeats": mismatches,
    }
    return {"metrics": metrics, "detail": detail, "verdicts": verdicts, **q}


def traced_run(ms, workload, cases, budget, seconds: float) -> dict:
    import layers
    from calibration import Calibration
    from spans import Installed, Tracer

    cal = Calibration()
    tracer = Tracer()
    untraced, traced, absent = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(ms, cases, budget, cal))
        with Installed(tracer, layers.HOOKS, rebind_in=("multischmidt",)) as installed:
            traced.append(one_pass(ms, cases, budget, cal))
        absent = installed.absent
        longest = max(u.elapsed + t.elapsed for u, t in zip(untraced, traced))
        if not keep_going(start, longest, seconds):
            break
    reference = [fingerprint(r) for r in untraced[0].results]
    runs = untraced + traced
    mismatches = sum(fingerprint(r) != f for p in runs[1:] for r, f in zip(p.results, reference))
    overhead = (
        statistics.median(p.elapsed for p in traced) / statistics.median(p.elapsed for p in untraced)
        - 1.0
    )
    verdicts = judge(ms, cases, untraced[0].results, budget)
    q = quality(untraced[0].results, verdicts, len(runs), mismatches)
    metrics = layers.per_layer_metrics(tracer, len(traced), overhead)
    detail = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_identical": mismatches == 0,
        "absent": absent,
    }
    return {"metrics": metrics, "detail": detail, "verdicts": verdicts, **q}


# ---- entry point -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few small inputs, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy loads BLAS; the machine has 2 cores
        os.environ[var] = "1"
    args = parse_args(argv)
    started_at = time.time()
    try:
        ms, import_s = import_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cases, gen_s, warmup_s = setup(ms, workload, args.seed, args.tiny)
    own = {
        "parts": {"import_s": import_s, "generate_s": gen_s, "warmup_s": warmup_s},
        "reference_s": setup_reference_s(),
    }
    if args.setup_probe:
        print(json.dumps(own))
        return 0

    budget = budget_for(ms, args.seed)
    run = traced_run if args.trace else timed_run
    outcome = run(ms, workload, cases, budget, args.seconds)

    samples = [own] + [
        setup_probe(args.workload, args.seed, args.tiny) for _ in range(SETUP_SAMPLES - 1)
    ]
    from calibration import REFERENCE_S

    setup_parts = {k: statistics.median(s["parts"][k] for s in samples) for k in own["parts"]}
    setup_wall_s = statistics.median(sum(s["parts"].values()) for s in samples)
    setup_s = statistics.median(
        sum(s["parts"].values()) * REFERENCE_S / s["reference_s"] for s in samples
    )
    metrics = outcome["metrics"]
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    hard = [v for v in outcome["verdicts"] if v["problems"] and not v["known_defect"]]
    known = [v for v in outcome["verdicts"] if v["known_defect"]]
    correct = not hard and outcome["detail"].get("traced_identical", True)
    for v in hard:
        print(f"FAILED {v['label']}: {'; '.join(v['problems'])}")
    for v in known:
        print(f"known defect {v['label']}: {'; '.join(v['problems'])}")
    for target in outcome["detail"].get("absent", []):
        print(f"absent: {target}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:.6g} {unit}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_at": started_at,
        "inputs": len(cases),
        "setup": {
            "calibrated_median_s": setup_s,
            "wall_median_s": setup_wall_s,
            "parts_median_s": setup_parts,
            "samples": samples,
        },
        "env": environment(args.seed),
        "known_defects": [v["label"] for v in known],
        **outcome["detail"],
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
