import json
from pathlib import Path

import numpy as np
import pytest

import multischmidt as ms
from conftest import near_bell_times_zero
from multischmidt import cli
from multischmidt.cli import (
    analyze_state,
    load_state_file,
    main,
    reproduce_rows,
    save_state_file,
    serialize_state,
)

FAST_FLAGS = ["--restarts", "16", "--iters", "150"]
SQRT_HALF = 1.0 / np.sqrt(2.0)
DATA = Path(__file__).parent / "data"
# sidecar name -> ``gen`` arguments; analyzed with the default flags
GOLDEN = {
    "w3": ["w", "--m", "3"],
    "w4": ["w", "--m", "4"],
    "w5": ["w", "--m", "5"],
    "ghz3": ["ghz", "--m", "3"],
    "ghz4": ["ghz", "--m", "4"],
    "ghz5": ["ghz", "--m", "5"],
    "ghz3-d3": ["ghz", "--m", "3", "--d", "3"],
    "random-222-seed7": ["random", "--dims", "2,2,2", "--seed", "7"],
    "random-223-seed7": ["random", "--dims", "2,2,3", "--seed", "7"],
    "random-244-seed3": ["random", "--dims", "2,4,4", "--seed", "3"],
    "random-2223-seed1": ["random", "--dims", "2,2,2,3", "--seed", "1"],
    "random-2222-seed0": ["random", "--dims", "2,2,2,2", "--seed", "0"],
}
# floating-point fields compared to 1e-12; every other field must be equal
FLOAT_FIELDS = ("coefficients", "generalized_eof")


class TestStateFiles:
    def test_gen_w3(self, tmp_path, capsys):
        out = tmp_path / "w3.json"
        assert main(["gen", "w", "--m", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "dims=[2, 2, 2]" in printed and "norm=1" in printed
        state = load_state_file(str(out))
        assert np.allclose(state.amplitudes, ms.w_state(3).amplitudes)

    def test_gen_ghz(self, tmp_path):
        out = tmp_path / "g.json"
        main(["gen", "ghz", "--m", "3", "--d", "2", "--out", str(out)])
        state = load_state_file(str(out))
        nz = np.abs(state.amplitudes) > 1e-12
        assert nz.sum() == 2

    def test_gen_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "random", "--dims", "2,2,2", "--seed", "7", "--out", str(a)])
        main(["gen", "random", "--dims", "2,2,2", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args, want",
        [
            (
                ["acin", "--lams", "0.5,0.5,0.5,0.5,0", "--theta", "0.5"],
                ms.acin_state(ms.AcinParameters((0.5, 0.5, 0.5, 0.5, 0.0), 0.5)),
            ),
            (["random-product", "--dims", "2,3", "--seed", "0"], ms.random_product(ms.DimensionProfile((2, 3)), 0)),
        ],
        ids=["acin", "random-product"],
    )
    def test_gen_acin_and_random_product(self, tmp_path, args, want):
        out = tmp_path / "s.json"
        assert main(["gen", *args, "--out", str(out)]) == 0
        state = load_state_file(str(out))
        assert state.profile == want.profile
        assert np.allclose(state.amplitudes, want.amplitudes, rtol=0, atol=1e-12)

    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "state.json"
        main(["gen", "random", "--dims", "2,3", "--seed", "3", "--out", str(path)])
        original = path.read_text()
        payload = json.loads(original)
        state = load_state_file(str(path))
        again = serialize_state(state, name=payload.get("name"), seed=payload.get("seed"))
        assert again == original

    def test_malformed_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "amplitudes": [[1.0, 0.0]]}')
        assert main(["analyze", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-6", "1e-4"])
    def test_loose_tol_on_a_near_product_state(self, tmp_path, capsys, tol):
        path = tmp_path / "near.json"
        save_state_file(str(path), near_bell_times_zero())
        assert main(["analyze", str(path), "--tol", tol, *FAST_FLAGS]) == 0
        assert "12|3" in capsys.readouterr().out

    def test_non_finite_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dims": [2], "amplitudes": [[1.0, 0.0], [NaN, 0.0]]}')
        assert main(["analyze", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            '{"dims": [2, 2], "amplitudes": [1, 0, 0, 0]}',
            '{"dims": 4, "amplitudes": [[1.0, 0.0]]}',
            "5",
            '{"dims": [2], "amplitudes": [["1", 0.0], [0.0, 0.0]]}',
            '{"dims": [2], "amplitudes": [null, [1.0, 0.0]]}',
            '{"dims": [2], "amplitudes": {"re": [1.0, 0.0]}}',
            '{"dims": [2], "amplitudes": [[1' + "0" * 400 + ', 0.0], [0.0, 0.0]]}',
        ],
        ids=["bare-numbers", "scalar-dims", "top-level-number", "string", "null", "object", "int-overflow"],
    )
    def test_malformed_payload_exits_2(self, payload, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        with pytest.raises(ValueError):
            load_state_file(str(bad))
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["random", "--dims", "2,x"],
            ["random", "--dims", "0,2"],
            ["random", "--dims", "2,,2"],
            ["ghz", "--m", "1"],
            ["acin", "--lams", "1,0"],
        ],
    )
    def test_bad_gen_arguments_exit_2(self, args, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["gen", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_slightly_unnormalized_file_warns_and_renormalizes(self, tmp_path, capsys):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"dims": [2], "amplitudes": [[1.0 + 5e-9, 0.0], [0.0, 0.0]]}))
        assert load_state_file(str(path)).amplitudes.tolist() == [1.0, 0.0]
        assert "warning: renormalizing" in capsys.readouterr().err
        assert main(["analyze", str(path)]) == 0
        assert "warning: renormalizing" in capsys.readouterr().err

    def test_unnormalized_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"dims": [2], "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}'
        )
        with pytest.raises(ValueError):
            load_state_file(str(bad))


class TestAnalyze:
    def test_w3_report_fields(self, tmp_path, capsys):
        path = tmp_path / "w3.json"
        save_state_file(str(path), ms.w_state(3))
        sidecar = tmp_path / "report.json"
        assert main(["analyze", str(path), "--json", str(sidecar)]) == 0
        out = capsys.readouterr().out
        assert "GenuinelyEntangled" in out
        assert "4 (exact)" in out
        payload = json.loads(sidecar.read_text())
        assert payload["schmidt_number"] == {"lo": 4, "hi": 4, "exact": True}
        assert payload["generalized_eof"] == pytest.approx(1.9591479, abs=1e-4)

    def test_sidecar_deterministic(self, tmp_path):
        path = tmp_path / "st.json"
        main(["gen", "random", "--dims", "2,2,2", "--seed", "5", "--out", str(path)])
        s1, s2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", str(path), "--json", str(s1), "--seed", "3", *FAST_FLAGS])
        main(["analyze", str(path), "--json", str(s2), "--seed", "3", *FAST_FLAGS])
        assert s1.read_bytes() == s2.read_bytes()

    @pytest.mark.parametrize("tol", ["2", "nan", "0", "1", "-1e-8"])
    def test_tol_outside_the_open_unit_interval_is_a_usage_error(self, tmp_path, capsys, tol):
        path = tmp_path / "ghz.json"
        save_state_file(str(path), ms.ghz_state(3))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), f"--tol={tol}"])
        assert exc.value.code == 2
        assert "strictly between 0 and 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--restarts", "0", "restarts must be an integer >= 1"),
            ("--iters", "0", "iters must be an integer >= 1"),
            ("--iters", "-5", "iters must be an integer >= 1"),
            ("--seed", "-1", "seed must be an integer in [0, 2**64)"),
            ("--seed", str(2**64), "seed must be an integer in [0, 2**64)"),
            ("--seed", "1.5", "invalid literal for int()"),
        ],
    )
    def test_a_budget_flag_searchbudget_rejects_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "ghz.json"
        save_state_file(str(path), ms.ghz_state(3))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), f"{flag}={value}"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_slocc_check_is_reported(self, tmp_path, capsys):
        path = tmp_path / "w3.json"
        save_state_file(str(path), ms.w_state(3))
        assert main(["analyze", str(path), "--slocc-check", *FAST_FLAGS]) == 0
        assert "slocc check        preserved" in capsys.readouterr().out

    def test_product_state_report(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_state_file(str(path), ms.basis_state(ms.qubits(3), (0, 0, 0)))
        main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert "FullySeparable" in out
        assert "1 (exact)" in out
        assert "0.000000000 bits" in out

    @pytest.mark.parametrize("dims", ["3", "3,4"])
    def test_one_and_two_party_states(self, dims, tmp_path):
        path, sidecar = tmp_path / "s.json", tmp_path / "r.json"
        assert main(["gen", "random", "--dims", dims, "--seed", "0", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json", str(sidecar)]) == 0
        payload = json.loads(sidecar.read_text())
        if dims == "3":
            assert payload["local_ranks"] == [1]
            assert payload["schmidt_number"] == {"lo": 1, "hi": 1, "exact": True}
            assert payload["coefficients"] == [1.0]
        else:
            assert payload["local_ranks"] == [3, 3]
            assert payload["schmidt_number"] == {"lo": 3, "hi": 3, "exact": True}
            assert len(payload["coefficients"]) == 3

    def test_unsupported_coefficients_still_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "w5.json"
        save_state_file(str(path), ms.w_state(5))
        assert main(["analyze", str(path), *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "unsupported" in out

    def test_report_object_direct(self):
        report = analyze_state(ms.ghz_state(3), ms.DEFAULT_BUDGET, 1e-8)
        assert report.classification == ms.GENUINELY_ENTANGLED
        assert report.local_ranks == (2, 2, 2)
        assert report.value_hi == 3 and report.exact
        assert report.generalized_eof == pytest.approx(1.5, abs=1e-9)

    def test_number_and_coefficients_share_reductions(self, monkeypatch):
        from multischmidt.number import _Engine

        calls = []
        solve = _Engine._mixed_value

        def counted(self, rho, *rest):
            calls.append(rho)
            return solve(self, rho, *rest)

        monkeypatch.setattr(_Engine, "_mixed_value", counted)
        # a (2, 3, 3) state: its (3, 3) reduction is not decided by PPT, so the ladder decides it
        state = ms.random_pure(ms.DimensionProfile((2, 3, 3)), 0)
        ms.pure_schmidt_number(state, ms.DEFAULT_BUDGET, 1e-8)
        alone = len(calls)
        calls.clear()
        analyze_state(state, ms.DEFAULT_BUDGET, 1e-8)
        assert alone > 0 and len(calls) == alone

    @pytest.mark.parametrize(
        "state",
        [
            ms.random_pure(ms.DimensionProfile((2, 2, 2)), 0),
            ms.w_state(4),
            ms.bell_state(),
            ms.PureState(ms.qubits(4), np.kron(ms.w_state(3).amplitudes, [SQRT_HALF, SQRT_HALF])),
        ],
        ids=["Haar222#0", "W4", "Bell", "W3+"],
    )
    def test_report_factorizes_once(self, state, monkeypatch):
        """No state is factorized twice: the number and the coefficients share each cut record."""
        from multischmidt import number, partitions

        calls = []

        def counted(st, *args, **kwargs):
            calls.append(st.amplitudes.tobytes())
            return partitions.factorize(st, *args, **kwargs)

        monkeypatch.setattr(number, "factorize", counted)
        analyze_state(state, ms.DEFAULT_BUDGET, 1e-8)
        assert state.amplitudes.tobytes() in calls
        assert len(calls) == len(set(calls))

    def test_genuine_ranks_come_from_the_cut_record(self, monkeypatch):
        """A genuinely entangled state's local ranks take no SVD beyond its factorization's."""
        from multischmidt import core

        state = ms.random_pure(ms.DimensionProfile((2, 2, 2)), 0)
        calls = []
        real = core._svd

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "_svd", spy)
        report = analyze_state(state, ms.DEFAULT_BUDGET, 1e-8)
        # three cuts and the elements' SVD (the ranks took three more before)
        assert len(calls) == 4
        assert report.local_ranks == ms.local_rank_vector(state, 1e-8)

    @pytest.mark.parametrize(
        "state",
        [
            ms.random_pure(ms.DimensionProfile((2, 3, 4)), 1),
            ms.w_state(4),
            ms.bell_state(),
            ms.random_product(ms.DimensionProfile((2, 3)), 0),
            ms.PureState(ms.qubits(4), np.kron(ms.w_state(3).amplitudes, [SQRT_HALF, SQRT_HALF])),
        ],
        ids=["Haar234#1", "W4", "Bell", "product23", "W3+"],
    )
    def test_local_ranks_match_the_rank_vector(self, state):
        report = analyze_state(state, ms.SearchBudget(restarts=16, iters=150), 1e-8)
        assert report.local_ranks == ms.local_rank_vector(state, 1e-8)


class TestReproduce:
    def test_all_rows_pass(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("rows passed")

    def test_a_crashing_row_is_a_failing_row(self, monkeypatch, capsys):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "pure_schmidt_number", crash)
        assert main(["reproduce"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 8  # seven value rows and the refinement row
        assert all("computed error: RuntimeError: boom" in line for line in failed)
        assert lines[-1] == "6/14 rows passed"

    def test_broken_tolerance_fails_rank_rows(self, capsys):
        assert main(["reproduce", "--tol", "0.5"]) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_seed_robustness(self):
        rows1 = reproduce_rows(ms.SearchBudget(seed=1), 1e-8)
        rows2 = reproduce_rows(ms.SearchBudget(seed=2), 1e-8)
        assert [r.ok for r in rows1] == [r.ok for r in rows2]
        assert all(r.ok for r in rows1)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_sidecar_matches_the_golden_file(name, tmp_path):
    state = tmp_path / "state.json"
    assert main(["gen", *GOLDEN[name], "--out", str(state)]) == 0
    sidecar = tmp_path / "sidecar.json"
    assert main(["analyze", str(state), "--json", str(sidecar)]) == 0
    got = json.loads(sidecar.read_text())
    want = json.loads((DATA / f"{name}.sidecar.json").read_text())
    for key in FLOAT_FIELDS:
        a, b = got.pop(key), want.pop(key)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.allclose(a, b, rtol=0, atol=1e-12)
    assert got == want


def test_failed_element_search_keeps_the_number(tmp_path):
    """The (3,3) rank-3 element search at target 2 finds nothing for this state."""
    state = tmp_path / "s.json"
    assert main(["gen", "random", "--dims", "3,3,3", "--seed", "0", "--out", str(state)]) == 0
    sidecars = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for sidecar in sidecars:
        assert main(["analyze", str(state), "--json", str(sidecar)]) == 0
    payload = json.loads(sidecars[0].read_text())
    assert payload["schmidt_number"] == {"lo": 5, "hi": 5, "exact": True}
    assert payload["coefficients"] is None and payload["generalized_eof"] is None
    assert payload["coefficients_note"] == (
        "search: no ensemble element of Schmidt number 2 found within budget"
    )
    assert sidecars[0].read_bytes() == sidecars[1].read_bytes()
    with pytest.raises(ms.SearchError):
        ms.pure_schmidt_coefficients(load_state_file(str(state)))
