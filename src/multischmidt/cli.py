"""Command-line front end: generate states, analyze them, reproduce the examples.

State file format (JSON text):

    {
      "dims": [2, 2, 2],
      "amplitudes": [[re, im], [re, im], ...],   # row-major, party 1 slowest
      "name": "optional label",
      "seed": 0
    }

``amplitudes[k]`` is the coefficient of the basis ket whose multi-index
(i_1, ..., i_m) has flat index k with party 1 varying slowest. States are
renormalized on load; a deviation above 1e-10 prints a warning and above
1e-8 is rejected as malformed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import _coefficients, generalized_eof, pure_schmidt_coefficients
from .core import DEFAULT_RANK_TOL, RENORM_ATOL, DimensionProfile, PureState, _checked_tol
from .errors import SearchError, UnsupportedStructureError
from .number import DEFAULT_BUDGET, SearchBudget, _Engine, pure_schmidt_number
from .partitions import local_rank_vector
from .states import (
    AcinParameters,
    acin_state,
    ghz_state,
    random_product,
    random_pure,
    w_state,
)

NORM_WARN = 1e-10
NORM_REJECT = 1e-8


# ---- state files ---------------------------------------------------------------


def state_to_payload(state: PureState, name: Optional[str] = None, seed: Optional[int] = None) -> dict:
    payload = {
        "dims": list(state.profile.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    if name is not None:
        payload["name"] = name
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def serialize_state(state: PureState, name: Optional[str] = None, seed: Optional[int] = None) -> str:
    return json.dumps(state_to_payload(state, name, seed), sort_keys=True, indent=1) + "\n"


def save_state_file(path: str, state: PureState, name=None, seed=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_state(state, name, seed))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_state_file(path: str) -> PureState:
    """The state of a state file; a payload of the wrong shape or type raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dims" not in payload or "amplitudes" not in payload:
        raise ValueError("state file needs a JSON object with 'dims' and 'amplitudes' fields")
    dims, pairs = payload["dims"], payload["amplitudes"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ValueError(f"'dims' must be a list of integers, got {dims!r}")
    profile = DimensionProfile(tuple(dims))
    if not isinstance(pairs, list):
        raise ValueError("'amplitudes' must be a list of [re, im] pairs")
    if len(pairs) != profile.total_dim:
        raise ValueError(
            f"amplitude count {len(pairs)} does not match total dimension {profile.total_dim}"
        )
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            raise ValueError(f"amplitude {k} must be a [re, im] pair of numbers, got {pair!r}")
    try:
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("amplitudes must be finite") from None
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_REJECT:
        raise ValueError(f"state norm {norm} is too far from 1")
    if abs(norm - 1.0) > NORM_WARN:
        print(f"warning: renormalizing state with norm {norm!r}", file=sys.stderr)
    if abs(norm - 1.0) > RENORM_ATOL:  # leave machine-precision inputs byte-stable
        amps = amps / norm
    return PureState(profile, amps)


# ---- analysis report -----------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    classification: str
    local_ranks: tuple[int, ...]
    value_lo: int
    value_hi: int
    exact: bool
    coefficients: Optional[tuple[float, ...]]
    coefficients_note: Optional[str]
    generalized_eof: Optional[float]
    branch_trace: dict
    seed: int
    restarts: int
    iters: int
    tol: float
    elapsed_s: float

    def to_payload(self) -> dict:
        # elapsed time is intentionally excluded: the payload must be
        # byte-identical across reruns with the same seed and flags
        return {
            "classification": self.classification,
            "local_ranks": list(self.local_ranks),
            "schmidt_number": {
                "lo": self.value_lo,
                "hi": self.value_hi,
                "exact": self.exact,
            },
            "coefficients": list(self.coefficients) if self.coefficients else None,
            "coefficients_note": self.coefficients_note,
            "generalized_eof": self.generalized_eof,
            "branch_trace": self.branch_trace,
            "budget": {"seed": self.seed, "restarts": self.restarts, "iters": self.iters},
            "tol": self.tol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=1) + "\n"


def analyze_state(state: PureState, budget: SearchBudget, tol: float) -> AnalysisReport:
    start = time.perf_counter()
    # one engine, so the ranks, the number and the coefficients share every
    # factorization and every reduction
    engine = _Engine(budget, tol)
    structure = engine.structure(state)
    if structure.is_genuinely_entangled:
        # the ranks the max-party rule reports, from the cut SVDs of the factorization
        ranks = tuple(rec.rank for rec in structure._party_records())
    else:
        ranks = local_rank_vector(state, tol)
    number = engine.pure_value(state)
    coeffs = None
    note = None
    eof = None
    try:
        cs = _coefficients(state, engine)
        coeffs = cs.values
        eof = generalized_eof(cs)
        if not cs.exact:
            note = "inexact: a reduction Schmidt number was not certified"
    except UnsupportedStructureError as exc:
        note = f"unsupported: {exc}"
    except SearchError as exc:
        # the number stands; only the element search behind the coefficients failed
        note = f"search: {exc}"
    elapsed = time.perf_counter() - start
    return AnalysisReport(
        classification=structure.label,
        local_ranks=ranks,
        value_lo=number.value_lo,
        value_hi=number.value_hi,
        exact=number.exact,
        coefficients=coeffs,
        coefficients_note=note,
        generalized_eof=eof,
        branch_trace=number.branch_trace,
        seed=budget.seed,
        restarts=budget.restarts,
        iters=budget.iters,
        tol=tol,
        elapsed_s=elapsed,
    )


def format_report(report: AnalysisReport) -> str:
    lines = []
    lines.append(f"classification     {report.classification}")
    lines.append(f"local ranks        {report.local_ranks}")
    if report.exact:
        lines.append(f"schmidt number     {report.value_hi} (exact)")
    else:
        lines.append(f"schmidt number     [{report.value_lo}, {report.value_hi}] (interval)")
    if report.coefficients is not None:
        pretty = ", ".join(f"{v:.9f}" for v in report.coefficients)
        lines.append(f"coefficients       {{{pretty}}}")
        lines.append(f"generalized EoF    {report.generalized_eof:.9f} bits")
    if report.coefficients_note:
        lines.append(f"coefficients note  {report.coefficients_note}")
    lines.append(
        f"budget             seed={report.seed} restarts={report.restarts} "
        f"iters={report.iters} tol={report.tol:g}"
    )
    lines.append(f"elapsed            {report.elapsed_s:.3f} s")
    return "\n".join(lines)


# ---- reproduce table -----------------------------------------------------------


@dataclass
class Row:
    name: str
    expected: str
    computed: str
    tolerance: str
    ok: bool


def _multiset_close(got, want, atol) -> bool:
    got = sorted(got)
    want = sorted(want)
    return len(got) == len(want) and all(abs(g - w) <= atol for g, w in zip(got, want))


def reproduce_rows(budget: SearchBudget, tol: float) -> list[Row]:
    rows: list[Row] = []

    def add(name, expected, computed, tolerance, ok):
        rows.append(Row(name, str(expected), str(computed), tolerance, bool(ok)))

    def guarded(fn):
        # a crashing row (e.g. under a deliberately broken tolerance) is a
        # failing row, not a crashed table
        def run(name, *args):
            try:
                fn(name, *args)
            except Exception as exc:
                add(name, "(see row)", f"error: {type(exc).__name__}: {exc}", "-", False)

        return run

    @guarded
    def value_row(name, state, want):
        res = pure_schmidt_number(state, budget, tol)
        ok = res.exact and res.value_hi == want
        shown = f"{res.value_hi} (exact)" if res.exact else f"[{res.value_lo}, {res.value_hi}]"
        add(name, f"{want} (exact)", shown, "integer", ok)

    @guarded
    def coeff_row(name, state, want, shown_want):
        cs = pure_schmidt_coefficients(state, budget, tol)
        ok = _multiset_close(cs.values, want, 1e-6)
        add(
            name,
            shown_want,
            "{" + ", ".join(f"{v:.7f}" for v in cs.values) + "}",
            "1e-6 elementwise",
            ok,
        )

    @guarded
    def eof_row(name, state, want, atol):
        eof = generalized_eof(pure_schmidt_coefficients(state, budget, tol))
        add(name, f"{want:.6f}", f"{eof:.12f}", f"{atol:g}", abs(eof - want) <= atol)

    @guarded
    def rank_row(name, state, want):
        ranks = local_rank_vector(state, tol)
        add(name, str(want), str(ranks), "integer", ranks == want)

    @guarded
    def refinement_row(name):
        rw = local_rank_vector(w_state(3), tol)
        rg = local_rank_vector(ghz_state(3), tol)
        r_w = pure_schmidt_number(w_state(3), budget, tol)
        r_g = pure_schmidt_number(ghz_state(3), budget, tol)
        add(
            name,
            "ranks equal and R differs",
            f"ranks {rw} vs {rg}, R {r_w.value_hi} vs {r_g.value_hi}",
            "integer",
            rw == rg and r_w.value_hi != r_g.value_hi,
        )

    value_row("schmidt number W_3", w_state(3), 4)
    value_row("schmidt number GHZ_3", ghz_state(3), 3)
    value_row("schmidt number W_4", w_state(4), 6)
    value_row("schmidt number W_5", w_state(5), 8)
    value_row("schmidt number GHZ_4", ghz_state(4), 3)
    value_row("schmidt number GHZ_5", ghz_state(5), 3)
    value_row("schmidt number GHZ_3 (d=3)", ghz_state(3, 3), 4)

    want_w3 = sorted([1 / np.sqrt(3), 1 / np.sqrt(6), 0.5, 0.5])
    coeff_row("coefficients W_3", w_state(3), want_w3, "{0.5, 0.5, 1/sqrt3, 1/sqrt6}")
    coeff_row(
        "coefficients GHZ_3",
        ghz_state(3),
        sorted([0.5, 0.5, 1 / np.sqrt(2)]),
        "{0.5, 0.5, 1/sqrt2}",
    )

    eof_row("generalized EoF GHZ_3", ghz_state(3), 1.5, 1e-9)
    oracle_w3 = float(-sum(c * c * np.log2(c * c) for c in want_w3))
    eof_row("generalized EoF W_3", w_state(3), oracle_w3, 1e-6)

    rank_row("local ranks W_3", w_state(3), (2, 2, 2))
    rank_row("local ranks GHZ_3", ghz_state(3), (2, 2, 2))
    refinement_row("rank vectors equal, values differ")
    return rows


# ---- subcommands ---------------------------------------------------------------


def _budget_from(args) -> SearchBudget:
    return SearchBudget(restarts=args.restarts, iters=args.iters, seed=args.seed)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=_tol,
        default=DEFAULT_RANK_TOL,
        help="relative rank tolerance, strictly between 0 and 1",
    )
    flags = {"seed": "search seed", "restarts": "search restarts", "iters": "iterations per restart"}
    for name, text in flags.items():
        default = getattr(DEFAULT_BUDGET, name)
        p.add_argument(f"--{name}", type=_budget_field(name), default=default, help=text)


def _budget_field(name: str):
    """The argparse type of one SearchBudget field: a value SearchBudget rejects is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            SearchBudget(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _tol(text: str) -> float:
    """A ``--tol`` value; anything but a number strictly between 0 and 1 is a usage error."""
    try:
        return _checked_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs a number strictly between 0 and 1, got {text!r}"
        ) from None


def _parsed_list(text: str, kind, flag: str) -> tuple:
    """The comma-separated ``kind`` values of a command-line flag."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated {kind.__name__}s, got {text!r}") from None


def cmd_gen(args) -> int:
    try:
        state, name = _generated(args)
        save_state_file(args.out, state, name=name, seed=args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    norm = float(np.linalg.norm(state.amplitudes))
    print(f"dims={list(state.profile.dims)} norm={norm:.12f} -> {args.out}")
    return 0


def _generated(args) -> tuple[PureState, str]:
    """The state the ``gen`` arguments ask for, and its name."""
    family = args.family
    seed = args.seed
    name = args.name
    if family == "w":
        state = w_state(args.m)
        name = name or f"w{args.m}"
    elif family == "ghz":
        state = ghz_state(args.m, args.d)
        name = name or f"ghz{args.m}d{args.d}"
    elif family == "acin":
        lams = _parsed_list(args.lams, float, "--lams")
        state = acin_state(AcinParameters(lams, args.theta))
        name = name or "acin"
    elif family == "random":
        profile = DimensionProfile(_parsed_list(args.dims, int, "--dims"))
        state = random_pure(profile, seed)
        name = name or f"random-{seed}"
    elif family == "random-product":
        profile = DimensionProfile(_parsed_list(args.dims, int, "--dims"))
        state = random_product(profile, seed)
        name = name or f"random-product-{seed}"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(family)
    return state, name


def cmd_analyze(args) -> int:
    try:
        state = load_state_file(args.input)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    budget = _budget_from(args)
    report = analyze_state(state, budget, args.tol)
    print(format_report(report))
    if args.slocc_check:
        from .number import slocc_rank_check
        from .states import random_local_invertible

        ops = random_local_invertible(state.profile, budget.seed)
        preserved = slocc_rank_check(state, ops, budget, args.tol)
        print(f"slocc check        {'preserved' if preserved else 'changed'} "
              f"(random invertible local maps, seed {budget.seed})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0


def cmd_reproduce(args) -> int:
    rows = reproduce_rows(_budget_from(args), args.tol)
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failures += 1
        print(
            f"[{status}] {r.name:<{width}}  expected {r.expected}  "
            f"computed {r.computed}  (tolerance {r.tolerance})"
        )
    print(f"{len(rows) - failures}/{len(rows)} rows passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multischmidt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a state file")
    p_gen.add_argument("family", choices=["w", "ghz", "acin", "random", "random-product"])
    p_gen.add_argument("--m", type=int, default=3, help="party count (w/ghz)")
    p_gen.add_argument("--d", type=int, default=2, help="local dimension (ghz)")
    p_gen.add_argument("--dims", type=str, default="2,2,2", help="comma dims (random families)")
    p_gen.add_argument("--lams", type=str, default="1,0,0,0,0", help="acin amplitudes l0..l4")
    p_gen.add_argument("--theta", type=float, default=0.0, help="acin phase in [0, pi]")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--name", type=str, default=None)
    p_gen.add_argument("--out", type=str, required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="classify a state file and report all quantities")
    p_an.add_argument("input")
    p_an.add_argument("--json", type=str, default=None, help="write a machine-readable sidecar")
    p_an.add_argument(
        "--slocc-check",
        action="store_true",
        help="also verify invariance under seeded random invertible local maps",
    )
    _add_budget_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("reproduce", help="re-derive the worked-example table")
    _add_budget_flags(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
