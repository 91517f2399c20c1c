"""Command-line harness tests: stat computation, sweep reports, exit codes,
and file outputs. Everything drives main() in-process."""

import json

import pytest

from pebbling.cli import (
    EXIT_PASS,
    EXIT_REFUSAL,
    EXIT_USAGE,
    EXIT_VIOLATION,
    VerificationReport,
    _emit_counterexamples,
    main,
)
from pebbling.graphs import make_family, parse_graph6, serialize_graph6


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    @pytest.mark.parametrize(
        "argv,first_line",
        [
            (("compute", "cycle:5", "--stat", "pi", "--t", "1"), "5"),
            (("compute", "wheel:4", "--stat", "pi_t", "--t", "2"), "8"),
            (("compute", "complete:3", "--stat", "pi_arb", "--t", "2"), "5"),
            (("compute", "cycle:4", "--stat", "pi_hat_star"), "16/9"),
            (("compute", "cycle:6", "--stat", "pi_hat"), "8"),
            (("compute", "path:4", "--stat", "pi_rooted", "--root", "0"), "8"),
            (("compute", "complete:5", "--stat", "pi_star"), "2"),
        ],
    )
    def test_text_value(self, capsys, argv, first_line):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_PASS
        assert out.splitlines()[0] == first_line

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "compute", "cycle:5", "--stat", "pi", "--format", "json"
        )
        assert code == EXIT_PASS
        stat = json.loads(out)
        assert set(stat) == {
            "graph", "kind", "t", "value", "witness", "elapsed_ms",
            "enumerated_count",
        }
        assert stat["kind"] == "pi_t" and stat["value"] == 5
        assert sum(stat["witness"]) == 4

    @pytest.mark.parametrize("graph,value", [("path:4", "2"), ("wheel:4", "9/5")])
    def test_fractional_optimum_json_off_transitive_graphs(
        self, capsys, graph, value
    ):
        code, out, _ = run(
            capsys, "compute", graph, "--stat", "pi_hat_star", "--format", "json"
        )
        assert code == EXIT_PASS
        stat = json.loads(out)
        assert stat["kind"] == "pi_hat_star" and stat["value"] == value

    @pytest.mark.parametrize(
        "graph,value", [("hypercube:4", "256/81"), ("path:11", "13/3")]
    )
    def test_fractional_optimum_above_ten_vertices(self, capsys, graph, value):
        code, out, _ = run(capsys, "compute", graph, "--stat", "pi_hat_star")
        assert code == EXIT_PASS
        assert out.splitlines()[0] == value

    def test_csv_references_witness_by_id(self, capsys):
        code, out, _ = run(
            capsys, "compute", "cycle:5", "--stat", "pi", "--format", "csv"
        )
        header, row = out.splitlines()
        assert header.split(",")[:4] == ["graph", "kind", "t", "value"]
        assert "w0" in row.split(",")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "stat.json"
        code, out, _ = run(
            capsys, "compute", "cycle:5", "--stat", "pi",
            "--format", "json", "--out", str(target),
        )
        assert code == EXIT_PASS and out == ""
        assert json.loads(target.read_text())["value"] == 5

    def test_budget_flag_unlocks_larger_instances(self, capsys):
        code, _, err = run(capsys, "compute", "cycle:8", "--stat", "pi", "--t", "3")
        assert code == EXIT_REFUSAL and "refused" in err
        code, out, _ = run(
            capsys, "compute", "cycle:8", "--stat", "pi", "--t", "3",
            "--max-pebbles", "80",
        )
        assert code == EXIT_PASS and out.splitlines()[0] == "48"

    def test_rooted_requires_root(self, capsys):
        code, _, err = run(capsys, "compute", "path:4", "--stat", "pi_rooted")
        assert code == EXIT_USAGE and "--root" in err

    def test_unknown_family_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "nosuch:5", "--stat", "pi")
        assert code == EXIT_USAGE and "error" in err

    def test_unknown_stat_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "compute", "cycle:5", "--stat", "pi_wrong")
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys, "compute", "cycle:5", "--stat", "pi", "--node-budget", "5"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "cycles", "--max-n", "0", "--max-t", "1"),
            ("compute", "cycle:5", "--stat", "pi", "--max-pebbles", "0"),
            ("verify", "--suite", "cycles", "--max-t", "-1"),
            ("compute", "cycle:5", "--stat", "pi", "--max-pebbles", "-3"),
        ],
    )
    def test_non_positive_budget_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and "positive" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "cycle:4", "--stat", "pi"),
            ("export-lp", "cycle:4", "--frac"),
        ],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_USAGE and err.startswith("error:")


class TestVerify:
    @pytest.mark.parametrize(
        "suite,limits",
        [
            ("trees", ("--max-n", "6", "--max-t", "2")),
            ("cycles", ("--max-n", "6", "--max-t", "2")),
            ("radius", ("--max-n", "5",)),
            ("diam2", ("--max-n", "5", "--max-t", "2")),
            ("targets", ("--max-n", "5",)),
            ("fracopt", ("--max-n", "5",)),
        ],
    )
    def test_suites_pass_clean(self, capsys, suite, limits):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--format", "json", *limits
        )
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["summary"]["failures"] == 0
        assert report["summary"]["refusals"] == 0
        assert report["summary"]["instances"] > 0
        assert all(row["status"] == "pass" for row in report["rows"])

    def test_diam2_records_wheel_slack_one_at_t3(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "diam2", "--format", "json",
            "--max-n", "5", "--max-t", "3",
        )
        assert code == EXIT_PASS
        rows = json.loads(out)["rows"]
        wheel = [
            row
            for row in rows
            if row["n"] == 5
            and row["t"] == 3
            and sorted(
                parse_graph6(row["graph"]).degree(v) for v in range(5)
            ) == [3, 3, 3, 3, 4]
        ]
        assert len(wheel) == 1
        assert wheel[0]["pi_t"] == 12 and wheel[0]["slack"] == 1

    def test_fracopt_rows_render_exact_rationals(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fracopt", "--format", "json",
            "--max-n", "4",
        )
        rows = json.loads(out)["rows"]
        optima = {row["graph"]: row for row in rows if "lp" in row}
        scaled = {row["graph"]: row for row in rows if "t" in row}
        assert optima["cycle:4"]["lp"] == "16/9"
        assert optima["complete:3"]["uniform"] == "3/2"
        assert scaled["cycle:4"]["t"] == 9 and scaled["complete:3"]["t"] == 4

    def test_catalog_override(self, capsys, tmp_path):
        listing = tmp_path / "two.g6"
        listing.write_text(
            serialize_graph6(make_family("cycle", 5)) + "\n"
            + serialize_graph6(make_family("path", 4)) + "\n"
        )
        code, out, _ = run(
            capsys, "verify", "--suite", "radius",
            "--catalog", str(listing), "--format", "json",
        )
        assert code == EXIT_PASS
        assert json.loads(out)["summary"]["instances"] == 4

    def test_closed_target_rows_honor_max_n(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "targets", "--format", "json",
            "--max-n", "3", "--max-t", "1",
        )
        assert code == EXIT_PASS
        rows = json.loads(out)["rows"]
        assert rows and all(row["n"] <= 3 for row in rows)

    def test_targets_catalog_runs_its_catalog_rows(self, capsys, tmp_path):
        k3 = serialize_graph6(make_family("complete", 3))
        listing = tmp_path / "k3.g6"
        listing.write_text(k3 + "\n")
        code, out, _ = run(
            capsys, "verify", "--suite", "targets", "--format", "json",
            "--catalog", str(listing), "--max-n", "3", "--max-t", "1",
        )
        assert code == EXIT_PASS
        assert [row["graph"] for row in json.loads(out)["rows"]] == [k3]

    @pytest.mark.parametrize("suite", ["cycles", "fracopt"])
    def test_catalog_on_a_fixed_suite_is_a_usage_error(self, capsys, tmp_path, suite):
        listing = tmp_path / "k3.g6"
        listing.write_text(serialize_graph6(make_family("complete", 3)) + "\n")
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--catalog", str(listing)
        )
        assert code == EXIT_USAGE and "--catalog" in err and out == ""

    def test_jobs_above_one_is_a_usage_error(self, capsys):
        # rows run one at a time, in the calling thread, so --jobs takes only 1
        code, _, err = run(
            capsys, "verify", "--suite", "cycles", "--max-n", "4", "--jobs", "2"
        )
        assert code == EXIT_USAGE and "--jobs" in err

    def test_text_report_has_summary_header(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "cycles", "--max-n", "4",
            "--max-t", "1",
        )
        assert code == EXIT_PASS
        assert out.startswith("suite cycles: 2 instances, 2 passes")

    def test_csv_report_covers_all_rows(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "cycles", "--format", "csv",
            "--max-n", "5", "--max-t", "1",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + C_3..C_5
        assert lines[0].startswith("graph,n,diameter,t")


class TestConjectures:
    @pytest.mark.parametrize(
        "name,limits",
        [
            ("diamconj", ("--max-n", "4",)),
            ("weakdiam", ("--max-n", "4",)),
            ("targets", ("--max-n", "4",)),
            ("gnd", ("--max-n", "5",)),
        ],
    )
    def test_sweeps_find_no_counterexamples(self, capsys, tmp_path, name, limits):
        code, out, _ = run(
            capsys, "conjecture", "--name", name, "--format", "json",
            "--artifact-dir", str(tmp_path), *limits,
        )
        assert code == EXIT_PASS
        assert json.loads(out)["summary"]["failures"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_diamconj_marks_theorem_regime_rows(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "conjecture", "--name", "diamconj", "--format", "json",
            "--max-n", "4", "--artifact-dir", str(tmp_path),
        )
        rows = json.loads(out)["rows"]
        regimes = [row for row in rows if row.get("regime")]
        assert regimes, "threshold cases must be hard-checked"
        assert all(
            row["pi_next"] == row["pi_t"] + row["step_cap"] for row in regimes
        )

    def test_counterexample_artifacts_are_written(self, tmp_path, capsys):
        rows = [
            {"graph": "Dhc", "n": 5, "t": 2, "status": "fail"},
            {"graph": "Bw", "n": 3, "t": 1, "status": "pass"},
        ]
        paths = _emit_counterexamples("diamconj", rows, str(tmp_path))
        capsys.readouterr()
        assert [p.name for p in paths] == ["counterexample-diamconj-0.json"]
        payload = json.loads(paths[0].read_text())
        assert payload["conjecture"] == "diamconj" and payload["graph"] == "Dhc"


class TestReportModel:
    def test_exit_codes_prioritize_failures_over_refusals(self):
        rows = [
            {"status": "pass"},
            {"status": "refused", "reason": "x"},
            {"status": "fail"},
        ]
        report = VerificationReport("demo", rows, 1.0)
        assert report.summary == {
            "instances": 3, "passes": 1, "failures": 1, "refusals": 1,
        }
        assert report.exit_code == EXIT_VIOLATION
        assert VerificationReport("demo", rows[:2], 1.0).exit_code == EXIT_REFUSAL
        assert VerificationReport("demo", rows[:1], 1.0).exit_code == EXIT_PASS


class TestExportLp:
    def test_relaxation_file(self, capsys, tmp_path):
        target = tmp_path / "c4.lp"
        code, out, _ = run(
            capsys, "export-lp", "cycle:4", "--t", "1", "--frac",
            "--out", str(target),
        )
        assert code == EXIT_PASS
        assert out.strip() == str(target)
        text = target.read_text()
        assert text.splitlines()[0] == "Minimize"
        assert "General" not in text

    def test_integral_file_lists_general_section(self, capsys, tmp_path):
        target = tmp_path / "k3.lp"
        code, _, _ = run(
            capsys, "export-lp", "complete:3", "--t", "2", "--int",
            "--out", str(target),
        )
        assert code == EXIT_PASS and "General" in target.read_text()

    def test_integrality_flag_is_required(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "export-lp", "cycle:4", "--t", "1",
            "--out", str(tmp_path / "x.lp"),
        )
        assert code == EXIT_USAGE

    def test_malformed_family_fails_with_usage_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "export-lp", "cycle:", "--t", "1", "--frac",
            "--out", str(tmp_path / "x.lp"),
        )
        assert code == EXIT_USAGE and "error" in err


class TestBuildGnd:
    def test_json_payload_with_witness(self, capsys):
        code, out, _ = run(capsys, "build-gnd", "8", "3", "--witness")
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["n"] == 8 and payload["d"] == 3
        assert payload["witness"]["root"] == 4
        assert payload["witness"]["size"] == 13
        assert parse_graph6(payload["graph6"]).n == 8

    def test_text_format_prints_graph6(self, capsys):
        code, out, _ = run(capsys, "build-gnd", "9", "4", "--format", "text")
        assert code == EXIT_PASS
        assert parse_graph6(out.strip()).n == 9

    def test_unrealizable_pair_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "build-gnd", "3", "4")
        assert code == EXIT_USAGE and "diameter 2" in err

    def test_witness_rejected_for_even_diameter(self, capsys):
        code, _, err = run(capsys, "build-gnd", "9", "4", "--witness")
        assert code == EXIT_USAGE and "odd" in err
