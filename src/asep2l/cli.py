"""Command-line interface.

Subcommands: mu, wsigma, qweight, partition, verify, oracle, sample,
compare. All rational inputs and outputs use the "p" or "p/q" text form;
no floats cross the boundary except the simulator's frequencies. Exit
codes: 0 success (or verification pass), 1 verification failure, 2 usage
error or unwritable --out path (refused before any work), 3 singular
parameters, 4 exact solve failed (the oracle's system was singular modulo
every prime tried, or its lifting did not converge), 141 (128 + SIGPIPE)
output pipe closed by its reader, as in `asep2l sample ... | head -1`.

Each subcommand imports only the modules it runs: the identity checkers,
the sampler and the oracle are loaded by the commands that use them.

The command (`asep2l`, or `python -m asep2l.cli`) enters through run(),
which runs main() with the cyclic garbage collector off and freezes the
heap before the interpreter exits. A request is one short process whose
data holds no reference cycles: the cyclic garbage it leaves is a fixed
few hundred objects (argparse's parser, json's encoder closures, import
cycles) whatever its size, which the process's exit frees anyway. With
the collector on, a large request spends about a third of its time
re-scanning the key walk's growing heap (29 full collections in
`mu --L 16`), and at exit CPython runs one more full collection over
every tracked object, numpy's included, even when the collector is off;
gc.freeze() moves them all to the permanent generation, which that
collection skips. main() itself leaves the collector as it finds it, for
tests and library callers. Code that builds cycles per path or per state
must break them itself; tests/test_cli.py checks, for every subcommand,
that a request's cyclic garbage does not grow with its size.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from . import ensemble
from .errors import EnumerationCapExceeded, SingularParameter, SingularSystem
from .lattice import Occupation, admit
from .rational import format_ratios, format_rational, parse_rational
from .weights import ModelParams, partition_Z, q_weight, tilde_q_weight, w_sigma_operator

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_SOLVE_FAILED = 4
EXIT_BROKEN_PIPE = 141


def _params(args) -> ModelParams:
    return ModelParams(*(parse_rational(v) for v in (args.q, args.A, args.B)))


def _emit(args, text: str) -> None:
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        # The newline is a write of its own. With unbuffered stdout (python
        # -u, PYTHONUNBUFFERED), one large write to a pipe that its reader
        # closes mid-write returns a short count without error, which the
        # text layer drops; only the newline after it reaches the closed
        # pipe and raises, here or at this flush, inside main's handler
        # rather than at interpreter exit.
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
        fh.flush()


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work is done.

    Neither creates nor truncates the file: a command that fails later
    leaves the path as it was.
    """
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if os.path.exists(path):
        writable = os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"--out {path!r}: directory {parent!r} does not exist")
        writable = os.access(parent, os.W_OK | os.X_OK)
    if not writable:
        raise ValueError(f"--out {path!r} is not writable")


def _header(L: int, p: ModelParams) -> dict:
    """The leading keys of every sized JSON payload, in output order."""
    return {"L": L, **{k: format_rational(getattr(p, k)) for k in "qAB"}}


def _law(dist) -> dict:
    """Each state's text mapped to the text of its probability, in state
    order."""
    return dict(zip(map(str, dist.states), format_ratios(dist.masses, dist.total)))


def _cmd_mu(args) -> int:
    p = _params(args)
    law = _law(ensemble.stationary_mu(args.L, p, max_L=args.max_L))
    if args.format == "csv":
        lines = ["state,probability"]
        lines += [f"{s},{pr}" for s, pr in law.items()]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps({**_header(args.L, p), "mu": law}, indent=2))
    return EXIT_OK


def _cmd_wsigma(args) -> int:
    try:
        parts = [int(s) for s in args.sigma.replace(" ", "").split(",")]
    except ValueError:  # an empty or non-integer part
        parts = []
    if not parts or any(s <= 0 for s in parts):
        raise ValueError(f"sigma must be positive integers, got {args.sigma!r}")
    admit("polynomial", sum(parts) - 1)
    q = parse_rational(args.q)
    if not 0 <= q < 1:
        raise ValueError(f"q must satisfy 0 <= q < 1, got {q}")
    poly = w_sigma_operator(tuple(parts), q)
    payload = {
        "sigma": parts,
        "q": format_rational(q),
        "coeffs": [format_rational(c) for c in poly.coeffs],
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_qweight(args) -> int:
    admit("polynomial", len(args.tau), args.max_L)
    p = _params(args)
    tau = Occupation.from_string(args.tau)
    xi = Occupation.from_string(args.xi)
    payload = {
        "tau": str(tau),
        "xi": str(xi),
        "Q": format_rational(q_weight(tau, xi, p)),
    }
    if args.tilde:
        payload["Qtilde"] = format_rational(tilde_q_weight(tau, xi, p))
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_partition(args) -> int:
    p = _params(args)
    Z = partition_Z(args.L, p, max_L=args.max_L)
    payload = {**_header(args.L, p), "Z": format_rational(Z)}
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import recursions

    admit("verify", args.L, args.max_L)
    p = _params(args)
    which = args.identity
    reports = recursions._verify(args.L, p, which)
    passed = all(r.passed for r in reports)
    payload = {
        "identity": which,
        "L": args.L,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _cmd_oracle(args) -> int:
    from . import oracle

    p = _params(args)
    r = oracle.rates_from_params(p)
    if args.simulate:
        result = oracle.gillespie_simulate(
            args.L,
            r,
            horizon=args.horizon,
            burn_in=args.burn_in,
            seed=args.seed,
            max_L=args.max_L,
        )
        lines = []
        if result.config_freq is not None:
            lines.append("state,frequency")
            lines += [f"{s},{f!r}" for s, f in result.config_freq.items()]
        else:
            lines.append("site,density")
            lines += [f"{i + 1},{d!r}" for i, d in enumerate(result.site_density)]
        _emit(args, "\n".join(lines))
        return EXIT_OK
    g = oracle.build_generator(args.L, r, max_L=args.max_L)
    law = _law(oracle.stationary_exact(g))
    _emit(args, json.dumps({**_header(args.L, p), "pi": law}, indent=2))
    return EXIT_OK


def _cmd_sample(args) -> int:
    from . import sampler

    p = _params(args)
    batch = sampler.sample_two_layer(args.L, p, args.n, seed=args.seed, max_L=args.max_L)
    # draws repeat the 2**L words, so each is formatted once
    names = [str(Occupation(args.L, word)) for word in range(1 << args.L)]
    lines = ["tau,xi"]
    lines += [f"{names[t.word]},{names[x.word]}" for t, x in batch.draws]
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import oracle

    p = _params(args)
    mu = ensemble.stationary_mu(args.L, p, max_L=args.max_L)
    g = oracle.build_generator(args.L, oracle.rates_from_params(p), max_L=args.max_L)
    pi = oracle.stationary_exact(g)
    if mu == pi:
        _emit(args, f"PASS: top-layer marginal equals the exact stationary law (L={args.L})")
        return EXIT_OK
    diffs = [
        f"{s}: mu={mp} oracle={op}"
        for (s, mp), op in zip(_law(mu).items(), _law(pi).values())
        if mp != op
    ]
    _emit(args, "FAIL:\n" + "\n".join(diffs))
    return EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asep2l",
        description="Exact two-layer computations for the open exclusion process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, L=True):
        if L:
            sp.add_argument("--L", type=int, required=True, help="system size")
        sp.add_argument("--q", required=True, help="bias, rational in [0,1)")
        sp.add_argument("--A", required=True, help="left boundary strength")
        sp.add_argument("--B", required=True, help="right boundary strength")
        sp.add_argument("--out", help="write output to this path")
        sp.add_argument("--max-L", dest="max_L", type=int, help="override size cap")

    sp = sub.add_parser("mu", help="exact stationary measure")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_mu)

    sp = sub.add_parser("wsigma", help="composition weight polynomial")
    sp.add_argument("--sigma", required=True, help="comma-separated parts")
    sp.add_argument("--q", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_wsigma)

    sp = sub.add_parser("qweight", help="two-layer weight of one pair")
    common(sp, L=False)
    sp.add_argument("--tau", required=True, help="top layer, e.g. 0101")
    sp.add_argument("--xi", required=True, help="bottom layer")
    sp.add_argument("--tilde", action="store_true", help="also emit rescaled weight")
    sp.set_defaults(func=_cmd_qweight)

    sp = sub.add_parser("partition", help="partition function Z")
    common(sp)
    sp.set_defaults(func=_cmd_partition)

    sp = sub.add_parser("verify", help="exhaustive identity checks")
    common(sp)
    sp.add_argument(
        "--identity",
        choices=("left", "right", "bulk", "basic", "all"),
        default="all",
    )
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force stationary law or simulation")
    common(sp)
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument("--horizon", type=float, default=1000.0)
    sp.add_argument("--burn-in", dest="burn_in", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sample", help="exact inverse-CDF draws")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("compare", help="stationary marginal vs oracle")
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except SingularParameter as exc:
        print(f"singular parameters: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except SingularSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE_FAILED
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull, so that the
        # flush at exit writes nothing and raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, EnumerationCapExceeded, OSError) as exc:
        # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """The command's process entry: main() with the cyclic collector off,
    and the heap frozen for the interpreter's exit (see the module
    docstring)."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
