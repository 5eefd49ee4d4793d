"""Command-line interface: dispatch, formats, determinism, exit codes."""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from racsim import advantage, classical, cli, quantum
from racsim.classical import majority_identity_strategy, strategy_to_text
from racsim.classical import ClassicalTask, DeterministicStrategy
from racsim.cli import main
from racsim.report import SuccessReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_difference(got: list[str], want: list[str]) -> str | None:
    """Where two long line lists part, named briefly: pytest's own diff of them takes minutes."""
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {index}: {a!r} != {b!r}"
    return None if len(got) == len(want) else f"{len(got)} lines != {len(want)}"


def off_by_1e9(d, r):
    """A restricted closed form that disagrees with enumeration by 1e-9."""
    return quantum.closed_form_restricted(d, r) + 1e-9


class TestExact:
    def test_restricted_json_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exact", "--task", "restricted", "--d", "6", "--dprime", "5",
            "--variant", "canonical", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["average"] == pytest.approx(0.6030056647916492, abs=1e-12)
        assert payload["provenance"]["parameters"]["dprime"] == 5
        assert payload["provenance"]["values"]["average"] == "enumerated"
        assert len(payload["per_input"]) == 6 * 6 * 2

    def test_full_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--task", "full", "--d", "2")
        assert code == 0
        assert "average: 0.8535534" in out
        assert "worst_case: 0.8535534" in out

    def test_seven_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "exact", "--task", "restricted", "--d", "6", "--dprime", "5"
        )
        assert "average: 0.6030057" in out

    def test_missing_dprime_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--task", "restricted", "--d", "6")
        assert code == 2
        assert "dprime" in err

    def test_out_of_range_dprime_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "exact", "--task", "restricted", "--d", "6", "--dprime", "7"
        )
        assert code == 2

    def test_dprime_without_the_restricted_task_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--task", "full", "--d", "4", "--dprime", "2")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: --dprime applies to --task restricted only"]

    def test_oversized_request_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(quantum, "exact_success", exhausted)
        code, out, err = run_cli(capsys, "exact", "--task", "full", "--d", "1000000")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: Unable to allocate 7.28 TiB for an array"]

    def test_dimension_past_numpy_limits_is_a_usage_error(self, capsys):
        # A d past the largest float is refused, by its size in bits, before the anchor would take sqrt of it.
        code, out, err = run_cli(capsys, "exact", "--task", "full", "--d", str(10**400))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: exact evaluation needs d <= 1.798e+308, got d of 1329 bits"]

    def test_table_past_numpy_limits_is_a_usage_error(self, capsys):
        # The statistics of d = 2**40 are computed; numpy refuses the (d, d, 2) table the listing reads.
        code, out, err = run_cli(capsys, "exact", "--task", "full", "--d", str(2**40))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_simulated_dimension_past_numpy_limits_is_a_usage_error(self, capsys):
        # Sampling refuses a d whose 2d - 1 needs more than 64 bits, before any sqrt is taken.
        code, out, err = run_cli(capsys, "simulate", "--task", "full", "--d", str(10**400))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: sampled alphabet size d must be in 1..{2**63}, got {10**400}"]


class TestScan:
    def test_csv_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--dmin", "2", "--dmax", "19", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,dprime,r_max,p_classical,p_quantum_full,p_quantum_restricted,ratio"
        assert len(lines) == 19
        r_column = [int(line.split(",")[2]) for line in lines[1:]]
        assert r_column == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]

    def test_csv_written_to_file_with_lf(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--dmin", "2", "--dmax", "6", "--format", "csv",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "scan", "--dmax", "25", "--format", "csv", "--output", str(a))
        run_cli(capsys, "scan", "--dmax", "25", "--format", "csv", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RACSIM_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "scan", "--dmax", "4", "--format", "csv", "--output", "rows.csv"
        )
        assert code == 0
        assert (tmp_path / "rows.csv").exists()

    def test_json_carries_provenance(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--dmax", "6", "--format", "json")
        payload = json.loads(out)
        assert payload["provenance"]["command"] == "scan"
        assert payload["rows"][-1]["r_max"] == 1

    def test_d_min_past_int64_exits_two_naming_d_min(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--dmin", "99999999999999999999")
        assert code == 2
        assert out == ""
        assert err == "error: d_min must be in 2..9223372036854775807, got 99999999999999999999\n"

    def test_cross_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(advantage, "closed_form_restricted", off_by_1e9)
        code, out, err = run_cli(capsys, "scan", "--dmax", "6")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: enumeration ") and "disagrees with the closed form" in err

    def test_band_cross_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(advantage, "advantage_holds", lambda d, r: True)
        code, out, err = run_cli(capsys, "scan", "--dmax", "6")
        assert code == 1
        assert out == ""
        assert err == "error: r_max = 0 disagrees with the advantage condition at d=2..5\n"


class TestTableLayout:
    """The row writer of ``per_input`` and ``rows`` at sizes past the golden files."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["exact", "--task", "full", "--d", "24"], id="exact-full-24"),
            pytest.param(["exact", "--task", "full", "--d", "128"], id="exact-full-128"),
            pytest.param(["exact", "--task", "restricted", "--d", "64", "--dprime", "57",
                          "--variant", "canonical"], id="exact-canonical-64-57"),
            pytest.param(["exact", "--task", "restricted", "--d", "24", "--dprime", "19",
                          "--variant", "literal"], id="exact-literal-24-19"),
            pytest.param(["scan", "--dmax", "2000"], id="scan-2000"),
        ],
    )
    def test_json_is_json_dumps_indent_2(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert first_difference(out.split("\n"), (json.dumps(json.loads(out), indent=2) + "\n").split("\n")) is None

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_scan_text_and_csv_match_a_per_row_writer(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "scan", "--dmax", "2000", "--format", fmt)
        assert code == 0
        layout = "{:>4} {:>6} {:>5} {:>11} {:>11} {:>11} {:>11}"

        def shown(value):
            return format(value, ".7g") if isinstance(value, float) else str(value)

        if fmt == "text":
            want = [layout.format("d", "dprime", "r_max", "classical", "full", "restricted", "ratio")]
            want += [layout.format(*map(shown, row)) for row in advantage.scan(2, 2000)]
        else:
            want = ["d,dprime,r_max,p_classical,p_quantum_full,p_quantum_restricted,ratio"]
            want += [",".join(map(shown, row)) for row in advantage.scan(2, 2000)]
        assert out.endswith("\n")
        assert first_difference(out[:-1].split("\n"), want) is None

    @pytest.mark.parametrize("dprime", [128, 128 - advantage.r_max(128)])
    def test_text_table_lists_every_cell(self, capsys, dprime):
        d = 128
        code, out, _ = run_cli(
            capsys, "exact", "--task", "restricted", "--d", str(d), "--dprime", str(dprime),
            "--variant", "literal",
        )
        assert code == 0
        spec = quantum.ProtocolSpec(d, dprime, quantum.GatingVariant.BOTH_OR_NOTHING)
        per_input = quantum.exact_success(spec).per_input
        lines = out.splitlines()
        rows = lines[lines.index("per-input success (x1 x2 y p):") + 1 :]
        assert len(rows) == 2 * d * d
        cells = [f"{x1} {x2} {y} {per_input[x1, x2, y - 1]:.7g}" for x1 in range(d) for x2 in range(d) for y in (1, 2)]
        assert first_difference(rows, cells) is None

    def test_numpy_floats_are_written_as_json_writes_floats(self):
        # Enough repeats that each distinct value is rendered once; 0.0 and -0.0 stay apart.
        column = [np.float64(0.1), np.float64(2.0), np.float64(-0.0), np.float64(0.0)] * 3
        text = "".join(cli._json_field(cli._Table([list(range(12)), column])))
        assert "np.float64(" not in text
        assert text == json.dumps([[i, float(v)] for i, v in enumerate(column)], indent=2).replace("\n", "\n  ")

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(math.nan, id="nan"),
            pytest.param(math.inf, id="inf"),
            pytest.param(-math.inf, id="-inf"),
            pytest.param(np.float64("nan"), id="numpy-nan"),
        ],
    )
    def test_non_finite_values_are_refused(self, bad):
        table = cli._Table([[0, 1], [0.5, bad]], ("x", "p"))
        with pytest.raises(ValueError, match="finite floats"):
            cli._json_field(table)

    def test_non_finite_cell_exits_two_before_writing(self, capsys, monkeypatch):
        def poisoned(spec):
            per_input = np.full((spec.d, spec.d, 2), 0.5)
            per_input[1, 0, 1] = np.nan
            return SuccessReport(0.5, 0.5, lambda: per_input)

        monkeypatch.setattr(quantum, "exact_success", poisoned)
        code, out, err = run_cli(capsys, "exact", "--task", "full", "--d", "3", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: a table column must hold integers or finite floats")


class TestOracle:
    def test_small_search(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--d", "2")
        assert code == 0
        assert "optimum: 0.75" in out
        assert "witness:" in out

    def test_infeasible_size_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "2", "--d", "7")
        assert code == 3
        assert "202927725" in err

    def test_huge_size_exits_three_before_building_tables(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "40", "--d", "2")
        assert code == 3
        assert str(math.comb(2**40 + 1, 2)) in err

    def test_size_past_the_digit_limit_exits_three(self, capsys):
        # C(2^20000 + 1, 2) has 12,042 digits, past Python's int-to-str limit
        code, _, err = run_cli(capsys, "oracle", "--n", "20000", "--d", "2")
        assert code == 3
        assert err.startswith("error: exhaustive search needs about 10^12041 column multisets, above the budget")

    def test_size_past_math_comb_exits_three(self, capsys):
        # C(10^38 + 10^19 - 1, 10^19): math.comb overflows on k = 10^19 > 2^63 - 1
        code, out, err = run_cli(capsys, "oracle", "--n", "2", "--d", str(10**19))
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: exhaustive search needs about 10^194342944819032514000 column multisets, above the "
            "budget of 10000000; pass allow_large=True to run it anyway"
        ]
        code, out, err = run_cli(capsys, "oracle", "--n", "2", "--d", str(10**19), "--allow-large")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: exhaustive search needs about 10^")

    def test_huge_n_exits_three_at_once(self, capsys):
        # 3^30000000 is never formed: that alone takes tens of seconds.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "--n", "30000000", "--d", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: exhaustive search needs about 10^42940912 column multisets, above the "
            "budget of 10000000; pass allow_large=True to run it anyway"
        ]

    def test_non_ascii_digit_in_strategy_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("2 2\n0 0 0\n0 1 0\n1 0 1\n1 1 1\n0 0\n1 \u0661\n0 0\n1 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "oracle", "--evaluate", str(path))
        assert code == 2
        assert "ASCII decimal integers" in err

    def test_negative_budget_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "2", "--d", "2", "--max-tuples", "-1")
        assert code == 2
        assert "max_tuples" in err

    def test_json_witness_is_valid_strategy(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "--n", "3", "--d", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["optimum"] == pytest.approx(0.75)
        assert len(payload["witness"]["encoder"]) == 8

    def test_evaluate_strategy_file(self, capsys, tmp_path):
        strategy = majority_identity_strategy(ClassicalTask(2, 6))
        path = tmp_path / "majority.txt"
        path.write_text(strategy_to_text(strategy))
        code, out, _ = run_cli(capsys, "oracle", "--evaluate", str(path))
        assert code == 0
        assert "average: 0.5833333" in out

    def test_witness_round_trips_through_the_cli(self, capsys, tmp_path):
        witness_path = tmp_path / "witness.txt"
        code, _, _ = run_cli(
            capsys, "oracle", "--n", "2", "--d", "3", "--witness-out", str(witness_path)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "oracle", "--evaluate", str(witness_path))
        assert code == 0
        assert "average: 0.6666667" in out

    def test_missing_parameters_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle")
        assert code == 2
        assert "--n" in err


class TestSimulate:
    def test_full_task(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--task", "full", "--d", "2",
            "--trials", "20000", "--seed", "11",
        )
        assert code == 0
        assert "trials: 20000" in out

    def test_majority_task_without_n_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--task", "majority", "--d", "3")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --n is required for the majority task"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--task", "full", "--d", "5", "--n", "5"], "--n applies to --task majority only"),
            (["--task", "restricted", "--d", "6", "--dprime", "5", "--n", "2"],
             "--n applies to --task majority only"),
            (["--task", "full", "--d", "6", "--dprime", "5"], "--dprime applies to --task restricted only"),
            (["--task", "majority", "--n", "2", "--d", "6", "--dprime", "5"],
             "--dprime applies to --task restricted only"),
        ],
    )
    def test_option_the_task_does_not_read_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate", *argv, "--trials", "10")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_majority_task_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--task", "majority", "--n", "2", "--d", "6",
            "--trials", "50000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mean"] - 7 / 12) < 5 * payload["stderr"]

    def test_strategy_file(self, capsys, tmp_path):
        strategy = majority_identity_strategy(ClassicalTask(2, 4))
        path = tmp_path / "s.txt"
        path.write_text(strategy_to_text(strategy))
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", str(path), "--trials", "10000", "--seed", "1"
        )
        assert code == 0
        assert "mean:" in out

    def test_identical_seeds_byte_identical_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli(
                capsys, "simulate", "--task", "restricted", "--d", "6", "--dprime", "5",
                "--trials", "100000", "--seed", "404", "--format", "json",
                "--output", str(target),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_missing_d_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--task", "full")
        assert code == 2


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_failing_check_exits_nonzero(self, capsys, monkeypatch):
        import racsim.cli as cli_module

        monkeypatch.setattr(
            cli_module, "_verify_checks", lambda: [("forced failure", False, "injected")]
        )
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL  forced failure" in out

    def test_majority_check_builds_no_strategies(self, monkeypatch):
        # only the five oracle witnesses are DeterministicStrategy objects;
        # the majority check counts dit multiplicities and builds no table
        import racsim.cli as cli_module

        built = []
        post_init = DeterministicStrategy.__post_init__

        def counting(self):
            built.append((self.n, self.d))
            post_init(self)

        monkeypatch.setattr(DeterministicStrategy, "__post_init__", counting)
        assert all(ok for _, ok, _ in cli_module._verify_checks())
        assert len(built) <= 5

    def test_majority_value_off_by_1e9_fails_its_check(self, capsys, monkeypatch):
        value = classical.majority_identity_value
        monkeypatch.setattr(classical, "majority_identity_value", lambda task: value(task) + Fraction(1, 10**9))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL  majority-identity vs classical closed forms" in out
        assert out.splitlines()[-1] == "7/8 checks passed"

    def test_cross_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(advantage, "closed_form_restricted", off_by_1e9)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "disagrees with the closed form" in err

    def test_oracle_mismatch_is_reported(self, capsys, monkeypatch):
        search = classical.optimal_classical_bruteforce

        def off_by_a_hundredth(task):
            result = search(task)
            return dataclasses.replace(result, optimum=result.optimum + 0.01)

        monkeypatch.setattr(classical, "optimal_classical_bruteforce", off_by_a_hundredth)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL  oracle optimum vs classical closed forms  [(2,2) 0.76!=0.75; (2,3) " in out
        assert lines[-1] == "7/8 checks passed"
