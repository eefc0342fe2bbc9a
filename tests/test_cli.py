"""End-to-end tests of the command-line interface."""

import json
from fractions import Fraction as F

import pytest

from asep2l.cli import main
from asep2l.ensemble import stationary_mu
from asep2l.lattice import Occupation
from asep2l.weights import ModelParams, partition_Z, w_sigma_operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestMu:
    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "mu", "--L", "2", "--q", "1/2", "--A", "1", "--B", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["L"] == 2 and payload["q"] == "1/2"
        values = {k: F(v) for k, v in payload["mu"].items()}
        total = sum(values.values())
        assert total == 1
        mu = stationary_mu(2, ModelParams(F(1, 2), F(1), F(2)))
        renormalized = {k: v / total for k, v in values.items()}
        assert renormalized == {str(s): pr for s, pr in mu.items()}

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "mu", "--L", "1", "--q", "0", "--A", "1", "--B", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,probability"
        assert len(lines) == 3

    def test_jobs_do_not_change_output(self, capsys):
        args = ("mu", "--L", "3", "--q", "1/3", "--A", "2", "--B", "3")
        _, seq = run(capsys, *args, "--jobs", "1")
        _, par = run(capsys, *args, "--jobs", "2")
        assert seq == par

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "mu.json"
        code, out = run(
            capsys, "mu", "--L", "1", "--q", "0", "--A", "1", "--B", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["L"] == 1

    def test_usage_errors(self, capsys):
        assert run(capsys, "mu", "--L", "2", "--q", "1/2", "--A", "-1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "3/2", "--A", "1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "0.5", "--A", "1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "1/2", "--A", "1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    def test_cap_is_usage_error(self, capsys):
        code, _ = run(capsys, "mu", "--L", "12", "--q", "1/2", "--A", "1", "--B", "1")
        assert code == 2


class TestWsigma:
    def test_matches_library(self, capsys):
        code, out = run(capsys, "wsigma", "--sigma", "7,3,1", "--q", "1/2")
        assert code == 0
        payload = json.loads(out)
        poly = w_sigma_operator((7, 3, 1), F(1, 2))
        assert payload["sigma"] == [7, 3, 1]
        assert [F(c) for c in payload["coeffs"]] == list(poly.coeffs)

    def test_rejects_bad_sigma(self, capsys):
        assert run(capsys, "wsigma", "--sigma", "0,2", "--q", "1/2")[0] == 2
        assert run(capsys, "wsigma", "--sigma", "", "--q", "1/2")[0] == 2


class TestQWeightAndPartition:
    def test_qweight_values(self, capsys):
        code, out = run(
            capsys, "qweight", "--tau", "01", "--xi", "10",
            "--q", "1/2", "--A", "1", "--B", "3", "--tilde",
        )
        assert code == 0
        payload = json.loads(out)
        assert F(payload["Q"]) > 0 and F(payload["Qtilde"]) > 0

    def test_qweight_singular_exit(self, capsys):
        code, _ = run(
            capsys, "qweight", "--tau", "0", "--xi", "1",
            "--q", "1/2", "--A", "4", "--B", "1", "--tilde",
        )
        assert code == 3

    def test_qweight_without_tilde_is_fine_at_poles(self, capsys):
        code, out = run(
            capsys, "qweight", "--tau", "0", "--xi", "1",
            "--q", "1/2", "--A", "4", "--B", "1",
        )
        assert code == 0 and "Qtilde" not in json.loads(out)

    def test_partition(self, capsys):
        code, out = run(
            capsys, "partition", "--L", "2", "--q", "1/3", "--A", "1", "--B", "2"
        )
        assert code == 0
        expected = partition_Z(2, ModelParams(F(1, 3), F(1), F(2)))
        assert F(json.loads(out)["Z"]) == expected

    def test_bad_occupation_string(self, capsys):
        assert run(
            capsys, "qweight", "--tau", "012", "--xi", "100",
            "--q", "1/2", "--A", "1", "--B", "1",
        )[0] == 2


class TestVerify:
    def test_all_pass(self, capsys):
        code, out = run(
            capsys, "verify", "--identity", "all", "--L", "3",
            "--q", "1/3", "--A", "2", "--B", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(r["passed"] for r in payload["reports"])

    def test_single_identity(self, capsys):
        code, out = run(
            capsys, "verify", "--identity", "left", "--L", "2",
            "--q", "1/2", "--A", "1", "--B", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["identity"] for r in payload["reports"]} == {"left-boundary"}

    def test_singular_exit(self, capsys):
        code, _ = run(
            capsys, "verify", "--identity", "basic", "--L", "2",
            "--q", "1/2", "--A", "4", "--B", "1",
        )
        assert code == 3

    def test_negative_size_rejected(self, capsys):
        code, _ = run(
            capsys, "verify", "--identity", "all", "--L", "-1",
            "--q", "1/2", "--A", "1", "--B", "3",
        )
        assert code == 2


class TestOracleAndCompare:
    def test_oracle_matches_mu(self, capsys):
        code, out = run(
            capsys, "oracle", "--L", "2", "--q", "1/2", "--A", "1", "--B", "2"
        )
        assert code == 0
        payload = json.loads(out)
        mu = stationary_mu(2, ModelParams(F(1, 2), F(1), F(2)))
        assert payload["pi"] == {str(s): str(pr) for s, pr in mu.items()}

    def test_oracle_simulate_csv(self, capsys):
        code, out = run(
            capsys, "oracle", "--L", "2", "--q", "1/2", "--A", "1", "--B", "2",
            "--simulate", "--horizon", "20", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,frequency"
        freqs = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(sum(freqs) - 1.0) < 1e-9

    def test_oracle_simulate_respects_max_L(self, capsys):
        code, _ = run(
            capsys, "oracle", "--L", "5", "--q", "1/2", "--A", "1", "--B", "2",
            "--simulate", "--horizon", "1", "--max-L", "4",
        )
        assert code == 2

    def test_compare_pass(self, capsys):
        code, out = run(
            capsys, "compare", "--L", "2", "--q", "1/3", "--A", "2", "--B", "3"
        )
        assert code == 0 and out.startswith("PASS")

    def test_compare_pass_at_rescaling_pole(self, capsys):
        code, out = run(
            capsys, "compare", "--L", "3", "--q", "1/2", "--A", "4", "--B", "1"
        )
        assert code == 0 and out.startswith("PASS")


class TestSample:
    def test_csv_shape_and_determinism(self, capsys):
        args = (
            "sample", "--L", "2", "--q", "1/2", "--A", "1", "--B", "2",
            "--n", "8", "--seed", "3",
        )
        code, out1 = run(capsys, *args)
        assert code == 0
        _, out2 = run(capsys, *args)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "tau,xi"
        assert len(lines) == 9
        for line in lines[1:]:
            tau, xi = line.split(",")
            Occupation.from_string(tau)
            Occupation.from_string(xi)

    def test_pair_route(self, capsys):
        code, out = run(
            capsys, "sample", "--L", "2", "--q", "0", "--A", "1", "--B", "1",
            "--n", "4", "--seed", "1", "--route", "pair",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 5
