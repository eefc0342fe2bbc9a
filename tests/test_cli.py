"""End-to-end tests of the command-line interface."""

import argparse
import gc
import json
import os
import runpy
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from asep2l.cli import build_parser, main
from asep2l.ensemble import (
    duchi_distribution,
    path_law,
    phi_table,
    stationary_mu,
    two_layer_law,
)
from asep2l.errors import EnumerationCapExceeded
from asep2l.lattice import MAX_L, Occupation, enumerate_occupations
from asep2l.oracle import build_generator, gillespie_simulate, rates_from_params
from asep2l.rational import format_rational, parse_rational
from asep2l.recursions import (
    check_basic_weight_equations,
    check_bulk,
    check_left_boundary,
    check_right_boundary,
)
from asep2l.sampler import sample_two_layer
from asep2l.weights import ModelParams, partition_Z, w_sigma_operator

P = ModelParams(F(1, 3), F(1), F(2))
P_ARGS = ("--q", "1/3", "--A", "1", "--B", "2")


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

    def test_usage_errors(self, capsys):
        assert run(capsys, "mu", "--L", "2", "--q", "1/2", "--A", "-1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "3/2", "--A", "1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "0.5", "--A", "1", "--B", "1")[0] == 2
        assert run(capsys, "mu", "--L", "2", "--q", "1/2", "--A", "1")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    def test_cap_is_usage_error(self, capsys):
        L = str(MAX_L["marginal"] + 1)
        code, _ = run(capsys, "mu", "--L", L, "--q", "1/2", "--A", "1", "--B", "1")
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

    @pytest.mark.parametrize("sigma", ["1,,2", "1,2,", ",1"])
    def test_rejects_an_empty_part(self, capsys, sigma):
        assert main(["wsigma", "--sigma", sigma, "--q", "1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sigma must be" in captured.err

    def test_prints_results_over_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run(capsys, "wsigma", "--sigma", "60", "--q", "9/10")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        texts = json.loads(out)["coeffs"]
        assert max(len(c) for c in texts) > 640
        coeffs = [parse_rational(c) for c in texts]
        assert coeffs == list(w_sigma_operator((60,), F(9, 10)).coeffs)


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

    def test_qweight_max_L_is_enforced(self, capsys):
        code, _ = run(
            capsys, "qweight", "--tau", "0101", "--xi", "1010", *P_ARGS,
            "--max-L", "2",
        )
        assert code == 2

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

    def test_passes_where_the_factors_cancel(self, capsys):
        # AB = 1/q: (1 - AB q) cancels out of the rescaling
        code, out = run(
            capsys, "verify", "--L", "3", "--q", "1/2", "--A", "1", "--B", "2"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_singular_exit(self, capsys):
        code, _ = run(
            capsys, "verify", "--identity", "basic", "--L", "2",
            "--q", "1/2", "--A", "4", "--B", "1",
        )
        assert code == 3

    def test_max_L_is_enforced(self, capsys):
        assert run(capsys, "verify", "--L", "3", *P_ARGS, "--max-L", "2")[0] == 2

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

    @pytest.mark.parametrize("L", [2, 3])
    def test_oracle_simulate_lists_states_in_enumeration_order(self, capsys, L):
        code, out = run(
            capsys, "oracle", "--L", str(L), *P_ARGS,
            "--simulate", "--horizon", "200", "--seed", "3",
        )
        assert code == 0
        states = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        # a horizon this long visits every state
        assert states == [str(s) for s in enumerate_occupations(L)]

    def test_oracle_simulate_respects_max_L(self, capsys):
        code, _ = run(
            capsys, "oracle", "--L", "5", "--q", "1/2", "--A", "1", "--B", "2",
            "--simulate", "--horizon", "1", "--max-L", "4",
        )
        assert code == 2

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_oracle_simulate_refuses_a_horizon_that_observes_nothing(
        self, capsys, horizon
    ):
        argv = ["oracle", "--L", "2", *P_ARGS, "--simulate", f"--horizon={horizon}"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "horizon" in captured.err

    def test_oracle_simulate_refuses_too_many_events_before_the_run(self, capsys):
        start = time.perf_counter()
        argv = ["oracle", "--L", "30", *P_ARGS, "--simulate", "--horizon", "1e9"]
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "events" in captured.err
        assert elapsed < 1.0

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

    def test_compare_lists_each_state_that_differs(self, monkeypatch, capsys):
        from asep2l import oracle
        from asep2l.ensemble import Distribution

        exact = oracle.stationary_exact

        def one_mass_raised(g):
            law = exact(g)
            masses = list(law.masses)
            masses[3] += 1
            return Distribution(law.states, masses)

        monkeypatch.setattr(oracle, "stationary_exact", one_mass_raised)
        code, out = run(capsys, "compare", "--L", "3", *P_ARGS)
        mu, pi = stationary_mu(3, P), one_mass_raised(build_generator(3, RATES))
        expected = [
            f"{s}: mu={format_rational(mu.prob(s))} oracle={format_rational(pi.prob(s))}"
            for s in enumerate_occupations(3)
            if mu.prob(s) != pi.prob(s)
        ]
        # the raised mass moves the total, so every state's probability differs
        assert code == 1 and len(expected) == 8
        assert out.splitlines() == ["FAIL:", *expected]


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

    def test_lines_are_the_library_draws(self, capsys):
        # each word is formatted once; the lines must still be the draws'
        for L in (0, 1, 4):
            args = ("--L", str(L), "--n", "300", "--seed", "17")
            code, out = run(capsys, "sample", *args, *P_ARGS)
            assert code == 0
            batch = sample_two_layer(L, P, 300, seed=17)
            expected = ["tau,xi"] + [f"{tau},{xi}" for tau, xi in batch.draws]
            assert out.splitlines() == expected


# One request of each kind of output the command writes
OUT_REQUESTS = {
    "mu": ["mu", "--L", "3", *P_ARGS],
    "mu csv": ["mu", "--L", "3", *P_ARGS, "--format", "csv"],
    "oracle": ["oracle", "--L", "3", *P_ARGS],
    "compare": ["compare", "--L", "3", *P_ARGS],
    "verify": ["verify", "--L", "2", *P_ARGS],
    "partition": ["partition", "--L", "3", *P_ARGS],
    "qweight": ["qweight", "--tau", "0110", "--xi", "1010", "--tilde", *P_ARGS],
    "wsigma": ["wsigma", "--sigma", "2,1,3", "--q", "1/2"],
    "sample": ["sample", "--L", "3", "--n", "20", "--seed", "7", *P_ARGS],
    "oracle --simulate": ["oracle", "--L", "3", "--simulate", "--horizon", "10", *P_ARGS],
}


@pytest.mark.parametrize("command", list(OUT_REQUESTS))
def test_out_file(command, capsys, tmp_path):
    # --out holds exactly what stdout gets, ending in one newline
    argv = OUT_REQUESTS[command]
    target = tmp_path / "out"
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    written = target.read_bytes()
    assert written == printed
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")


def test_verify_prints_a_failure_over_the_digit_limit(monkeypatch, capsys):
    from asep2l import recursions

    report = recursions.VerificationReport("left-boundary", "L=1", P)
    report.check(F(10**5000 + 1, 3), F(1), {"k": 0})  # a side of 5,001 digits
    monkeypatch.setattr(recursions, "_verify", lambda L, p, which: [report])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["verify", "--L", "1", *P_ARGS])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    failure = json.loads(captured.out)["reports"][0]["failures"][0]
    assert failure == {"inputs": {"k": "0"}, "lhs": "1" + "0" * 4999 + "1/3", "rhs": "1"}


def _handler(*argv):
    args = build_parser().parse_args(argv)
    return lambda: args.func(args)


BIG = 10 ** 6
RATES = rates_from_params(P)
# every operation that admits a size, by its row of MAX_L
OPERATIONS = {
    "marginal": [
        lambda: stationary_mu(BIG, P),
        lambda: phi_table(BIG, P),
        lambda: path_law(BIG, P),
    ],
    "pairs": [
        lambda: two_layer_law(BIG, P),
        lambda: duchi_distribution(BIG, 1, 2),
    ],
    "paths": [
        lambda: partition_Z(BIG, P),
        lambda: sample_two_layer(BIG, P, 1, seed=0),
    ],
    "generator": [lambda: build_generator(BIG, RATES)],
    "simulation": [lambda: gillespie_simulate(BIG, RATES, horizon=1.0)],
    "verify": [
        _handler("verify", "--L", str(BIG), *P_ARGS),
        lambda: check_left_boundary(BIG, P),
        lambda: check_right_boundary(BIG, P),
        lambda: check_bulk(BIG, 0, P),
        lambda: check_basic_weight_equations(BIG, P),
    ],
    "polynomial": [
        _handler("wsigma", "--sigma", str(BIG + 1), "--q", "1/2"),
        _handler("qweight", "--tau", "0" * BIG, "--xi", "0" * BIG, *P_ARGS),
    ],
}


SRC = str(Path(__file__).resolve().parent.parent / "src")
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The `asep2l ...` lines of the sh block under the README's "Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("asep2l ")]


def test_readme_commands_exit_zero():
    commands = readme_commands()
    assert commands
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        done = subprocess.run(
            [sys.executable, "-m", "asep2l.cli", *argv], env=SRC_ENV, capture_output=True, text=True
        )
        assert done.returncode == 0, (line, done.stderr)


def test_numpy_is_not_imported_by_the_cli():
    check = "import asep2l.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=SRC_ENV, check=True)


# Modules each subcommand must not load, beside numpy and dataclasses
UNUSED_MODULES = {
    ("mu", "--L", "2"): {"asep2l.recursions", "asep2l.sampler", "asep2l.oracle"},
    ("verify", "--L", "2"): {"asep2l.sampler", "asep2l.oracle"},
    ("sample", "--L", "2", "--n", "3"): {"asep2l.recursions", "asep2l.oracle"},
}


@pytest.mark.parametrize("argv", list(UNUSED_MODULES), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(argv):
    unused = sorted(UNUSED_MODULES[argv] | {"numpy", "dataclasses"})
    script = (
        "import sys\n"
        "from asep2l.cli import main\n"
        f"assert main({[*argv, *P_ARGS, '--out', os.devnull]!r}) == 0\n"
        f"print(sorted(set({unused!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=SRC_ENV, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_lazy_names_resolve_after_a_bare_import():
    check = (
        "import asep2l, sys\n"
        "assert not {'asep2l.recursions', 'asep2l.sampler', 'asep2l.oracle'} & set(sys.modules)\n"
        "assert asep2l.check_bulk.__module__ == 'asep2l.recursions'\n"
        "assert asep2l.sample_two_layer.__module__ == 'asep2l.sampler'\n"
        "assert asep2l.stationary_exact.__module__ == 'asep2l.oracle'\n"
        "assert all(hasattr(asep2l, name) for name in asep2l._LAZY)\n"
        "assert not hasattr(asep2l, 'no_such_name')\n"
    )
    subprocess.run([sys.executable, "-c", check], env=SRC_ENV, check=True)


def test_star_import_binds_every_public_name():
    check = (
        "from asep2l import *\n"
        "import asep2l\n"
        "assert all(name in globals() for name in asep2l._LAZY)\n"
        "assert all(name in globals() for name in ('stationary_mu', 'Occupation'))\n"
        "assert 'import_module' not in globals()\n"
        "assert set(asep2l._LAZY) <= set(dir(asep2l))\n"
    )
    subprocess.run([sys.executable, "-c", check], env=SRC_ENV, check=True)


@pytest.mark.parametrize("command", [("mu", "--L", "2"), ("verify", "--L", "2")], ids=lambda c: c[0])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_path_is_a_usage_error(tmp_path, command, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    done = subprocess.run(
        [sys.executable, "-m", "asep2l.cli", *command, *P_ARGS, "--out", str(out)],
        env=SRC_ENV,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command", [("mu", "--L", "3"), ("oracle", "--L", "3"), ("compare", "--L", "3")],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_path_is_refused_before_any_work(
    monkeypatch, capsys, tmp_path, command, where
):
    from asep2l import ensemble, oracle

    def no_work(*args, **kwargs):
        raise AssertionError("the law was computed before --out was checked")

    monkeypatch.setattr(ensemble, "stationary_mu", no_work)
    monkeypatch.setattr(oracle, "stationary_exact", no_work)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    code = main([*command, *P_ARGS, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_failed_exact_solve_has_its_own_exit_code(monkeypatch, capsys, command):
    from asep2l import oracle
    from asep2l.errors import SingularSystem

    def out_of_primes(g):
        raise SingularSystem("system singular modulo every tested prime")

    monkeypatch.setattr(oracle, "stationary_exact", out_of_primes)
    code = main([command, "--L", "3", *P_ARGS])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: system singular modulo every tested prime\n"


def test_failed_command_leaves_its_out_path_as_it_was(capsys, tmp_path):
    pole = ["verify", "--identity", "basic", "--L", "2", "--q", "1/2", "--A", "4", "--B", "1"]
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    fresh = tmp_path / "fresh.json"
    assert main([*pole, "--out", str(kept)]) == 3
    assert main([*pole, "--out", str(fresh)]) == 3
    capsys.readouterr()
    assert kept.read_text() == "kept\n" and not fresh.exists()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, first",
    [
        (["sample", "--L", "6", "--n", "20000", *P_ARGS], b"tau,xi\n"),
        (["mu", "--L", "12", *P_ARGS], b"{\n"),
    ],
    ids=["csv", "json"],
)
def test_closed_output_pipe_exits_quietly(argv, first, unbuffered):
    # Each output is far more than a pipe buffers, so the writer is still
    # writing when the reader goes away. Unbuffered, the one large write
    # of the text returns without error, and only the newline written
    # after it raises (cli._emit)
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "asep2l.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


# Each subcommand at size L, for the requests that must leave no cyclic
# garbage that grows with their size
BY_SIZE = {
    "mu": lambda L: ["mu", "--L", str(L), *P_ARGS],
    "partition": lambda L: ["partition", "--L", str(L), *P_ARGS],
    "verify": lambda L: ["verify", "--L", str(L), *P_ARGS],
    "sample": lambda L: ["sample", "--L", str(L), "--n", str(10 * L * L), *P_ARGS],
    "oracle": lambda L: ["oracle", "--L", str(L), *P_ARGS],
    "oracle --simulate": lambda L: [
        "oracle", "--simulate", "--L", str(L), "--horizon", "20", *P_ARGS],
    "compare": lambda L: ["compare", "--L", str(L), *P_ARGS],
    "qweight": lambda L: [
        "qweight", "--tau", ("10" * L)[:L], "--xi", ("01" * L)[:L], "--tilde", *P_ARGS],
    "wsigma": lambda L: ["wsigma", "--sigma", f"{L},1,{L - 1}", "--q", "1/2"],
}


@pytest.mark.parametrize("command", list(BY_SIZE))
def test_cyclic_garbage_does_not_grow_with_the_request(command, capsys):
    # The command runs with the collector off (cli.run), which is safe only
    # while a request's cycles are a fixed few: argparse's parser, json's
    # encoder. A request that built cycles per path or per state would leave
    # more at L = 8 than at L = 3.
    argv = BY_SIZE[command]
    assert main(argv(8)) == 0  # imports and caches, so neither run below makes them
    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage = []
        for L in (3, 8):
            gc.collect()
            assert main(argv(L)) == 0
            garbage.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert garbage[0] == garbage[1] > 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["mu", "--L", "3", *P_ARGS], 0),
        (["mu", "--L", "x", *P_ARGS], 2),
        (["verify", "--identity", "basic", "--L", "2", "--q", "1/2", "--A", "4", "--B", "1"], 3),
    ],
    ids=["ok", "usage", "singular"],
)
def test_command_entry_runs_main_without_the_collector(argv, code):
    script = (
        "import contextlib, gc, io\n"
        "from asep2l.cli import main, run\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0\n"
        "quiet = io.StringIO()\n"
        "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
        f"    codes = main({argv!r}), run({argv!r})\n"
        "print(*codes, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=SRC_ENV, capture_output=True, text=True, check=True
    )
    assert done.stdout == f"{code} {code} False True\n"


def test_main_leaves_the_collector_as_it_found_it(capsys):
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    assert main(["oracle", "--L", "3", *P_ARGS]) == 0
    assert main(["mu", "--L", "x", *P_ARGS]) == 2
    capsys.readouterr()
    assert gc.isenabled() and gc.get_freeze_count() == frozen


BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
BENCH_WORKLOADS = runpy.run_path(str(BENCH_RUN))["WORKLOADS"]


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_module_command_prints_what_main_prints(workload, capsys):
    # the benchmark's timed and set-up requests, at its default seed
    w = BENCH_WORKLOADS[workload]
    for argv in (w.args(1), w.setup_args(1)):
        done = subprocess.run(
            [sys.executable, "-m", "asep2l.cli", *argv], env=SRC_ENV, capture_output=True, check=True
        )
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["mu", "--L", "4"], [4]),
        (["partition", "--L", "4"], [4]),
        (["sample", "--L", "4", "--n", "5"], [4]),
        # the boundary checks at L = 4 read size 5
        (["verify", "--L", "4"], [5]),
    ],
    ids=["mu", "partition", "sample", "verify"],
)
def test_walks_the_keys_once(argv, sizes, monkeypatch, capsys):
    from asep2l import ensemble, recursions, weights

    walks = []
    real = weights._key_levels

    def counted(L):
        walks.append(L)
        return real(L)

    # every module that looks the walk up by name
    for module in (weights, ensemble, recursions):
        monkeypatch.setattr(module, "_key_levels", counted)
    assert main([*argv, *P_ARGS]) == 0
    assert walks == sizes


class TestAdmission:
    def test_every_row_has_operations(self):
        assert set(OPERATIONS) == set(MAX_L)

    @pytest.mark.parametrize("kind", sorted(MAX_L))
    def test_refused_before_any_work(self, kind, monkeypatch):
        monkeypatch.delenv("ASEP_MAX_L", raising=False)
        for operation in OPERATIONS[kind]:
            with pytest.raises(EnumerationCapExceeded):
                operation()

    @pytest.mark.parametrize(
        "argv",
        [
            ("mu",),
            ("partition",),
            ("verify",),
            ("oracle",),
            ("oracle", "--simulate", "--horizon", "1"),
            ("sample", "--n", "1"),
            ("compare",),
        ],
        ids=" ".join,
    )
    def test_env_limit_reaches_every_sized_subcommand(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ASEP_MAX_L", "3")
        assert run(capsys, *argv, "--L", "4", *P_ARGS)[0] == 2

    def test_pair_enumerations_and_wsigma_are_limited(self, capsys, monkeypatch):
        monkeypatch.delenv("ASEP_MAX_L", raising=False)
        with pytest.raises(EnumerationCapExceeded):
            two_layer_law(11, P)
        with pytest.raises(EnumerationCapExceeded):
            duchi_distribution(11, 1, 2)
        sigma = str(MAX_L["polynomial"] + 2)
        assert run(capsys, "wsigma", "--sigma", sigma, "--q", "1/2")[0] == 2
        monkeypatch.setenv("ASEP_MAX_L", "9")
        assert run(capsys, "wsigma", "--sigma", "7,3,1", "--q", "1/2")[0] == 2

    def test_env_limit_reaches_the_identity_checkers(self, capsys, monkeypatch):
        monkeypatch.setenv("ASEP_MAX_L", "3")
        assert check_left_boundary(3, P).passed
        assert check_bulk(1, 0, P).passed
        for operation in (
            lambda: check_left_boundary(4, P),
            lambda: check_right_boundary(4, P),
            lambda: check_bulk(1, 1, P),
            lambda: check_basic_weight_equations(4, P),
        ):
            with pytest.raises(EnumerationCapExceeded):
                operation()
        # the command admits its own L once, so --max-L reaches every checker
        assert run(capsys, "verify", "--L", "4", "--max-L", "4", *P_ARGS)[0] == 0

    def test_every_max_L_flag_is_enforced(self, capsys):
        """A subcommand that takes --max-L runs at --L 2 and refuses it
        under --max-L 1, so none can accept the flag and ignore it."""
        minimal = {
            "L": "2", "q": "1/3", "A": "1", "B": "2", "tau": "01", "xi": "10", "n": "1",
        }
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        checked = []
        for name, sp in sub.choices.items():
            if not any(a.dest == "max_L" for a in sp._actions):
                continue
            argv = [name]
            for a in sp._actions:
                if a.required:
                    argv += [a.option_strings[0], minimal[a.dest]]
            assert run(capsys, *argv)[0] == 0, name
            assert run(capsys, *argv, "--max-L", "1")[0] == 2, name
            checked.append(name)
        expected = {"mu", "qweight", "partition", "verify", "oracle", "sample", "compare"}
        assert expected <= set(checked)
