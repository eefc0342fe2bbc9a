"""bench/probe.py, the traced half of the benchmark, runs against the package
in src: every group exits 0 with one JSON object, and the outputs the
benchmark checks agree with the library."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from asep2l import (
    ModelParams,
    build_generator,
    rates_from_params,
    stationary_exact,
    stationary_mu,
)

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
)
GROUPS = {
    "cli": ["0"],
    "marginal": ["0", "3"],
    "oracle": ["0", "3"],
    "identities": ["0", "2"],
    "sampling": ["0", "3", "10"],
}
P = ModelParams(F(1, 2), F(1), F(2))


@pytest.fixture(scope="module")
def outputs():
    result = {}
    for group, args in GROUPS.items():
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "probe.py"), group, *args],
            env=SRC_ENV,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert {"spans", "counts", "outputs"} <= payload.keys()
        result[group] = payload["outputs"]
    return result


def as_strings(law):
    return {str(s): str(pr) for s, pr in law.items()}


def test_marginal_law_is_the_library_law(outputs):
    assert outputs["marginal"]["law"] == as_strings(stationary_mu(3, P))


def test_oracle_law_is_the_library_law(outputs):
    exact = stationary_exact(build_generator(3, rates_from_params(P)))
    assert outputs["oracle"]["law"] == as_strings(exact)
    assert outputs["oracle"]["annihilated"] is True


def test_identities_pass(outputs):
    assert outputs["identities"]["passed"] is True


def test_sampling_prints_every_draw(outputs):
    assert len(outputs["sampling"]["csv"].splitlines()) == 1 + 10
