"""Regenerate bench/reference.json, the exact outputs every bench run checks.

    PYTHONPATH=src python3 bench/make_reference.py

It holds, at the sizes and points run.py uses, the stationary law, the
number of identity instances `verify` checks, and the paths of zero weight.
The laws are the CLI's own `mu` and `oracle` outputs. They come from two
independent routes (the two-layer marginal and the generator solve), and
the file is written only if the two routes agree exactly at every size.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import run
from asep2l import ModelParams, path_law
from asep2l.cli import main as cli_main


def cli(*argv: str):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    if code != 0:
        sys.exit(f"asep2l {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def steps_of(gamma) -> str:
    return "".join("-0+"[s + 1] for s in gamma.steps())


def main() -> None:
    laws = {}
    for L in sorted({1, run.MARGINAL_L, run.ORACLE_L, run.SAMPLING_L}):
        mu = cli("mu", "--L", str(L), *run.POINT)["mu"]
        pi = cli("oracle", "--L", str(L), *run.POINT)["pi"]
        if {s: Fraction(v) for s, v in mu.items()} != {s: Fraction(v) for s, v in pi.items()}:
            sys.exit(f"stationary_mu and stationary_exact differ at L={L}")
        laws[str(L)] = mu
    instances = {}
    for L in (0, run.IDENTITIES_L):
        payload = cli("verify", "--L", str(L), *run.IDENTITY_POINT)
        if not payload["passed"]:
            sys.exit(f"verify --L {L} failed")
        instances[str(L)] = sum(r["instances"] for r in payload["reports"])
    p = ModelParams(*(Fraction(v) for v in run.POINT[1::2]))
    zero_paths = {
        str(L): [steps_of(g) for g, pr in path_law(L, p).items() if pr == 0]
        for L in (1, run.SAMPLING_L)
    }
    reference = {
        "law": laws,
        "verify_instances": instances,
        "zero_weight_paths": zero_paths,
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
