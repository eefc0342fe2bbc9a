"""End-to-end and per-layer benchmark of the asep2l command-line tool.

    python3 bench/run.py --workload marginal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload marginal --seed 1 --trace 1
    python3 bench/run.py --all --seed 1 --seconds 25

It runs the package from the `src/` directory beside its own.

`--trace 0` times `python -m asep2l.cli` as a user runs it. It is a closed
loop with one client: a fresh process per request, the next one started
only when the previous one has exited. Every output is checked exactly,
outside the timing, against bench/reference.json (made by
bench/make_reference.py), which is read once per run. A request that
exits nonzero or fails its check counts as failed, and its time enters
no statistic. `wall_s` is the median request time and `setup_s` the
median time of the same subcommand at its smallest input, both scaled to a
reference machine speed measured around each request (see `calibrate`);
`peak_rss_mb` is the median of the requests' own peak resident memory.
The raw times are printed beside them.

`--trace 1` starts one fresh bench/probe.py process per layer group,
which times calls into the modules' public functions and records a span
around each. It reports the per-layer metrics and writes all spans, with
their self times, to bench/out/.

`--all` runs every workload untraced and then the traced run, prints each
metric with its median, quartiles and sample count, and writes the
results, with machine info, to bench/out/results.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; failed / attempted is the error
rate. The exit code is 1 if any check failed and 2, with nothing printed
on stdout, if the package is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLI = ROOT / "src" / "asep2l" / "cli.py"

# every child gets the package from the source tree, as it is not installed
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
))

SETUP_REPS = 7
# set-up requests in the untraced pass a traced run makes to compute overhead
OVERHEAD_SETUP_REPS = 3
CHILD_TIMEOUT_S = 150

# The 2-CPU Xeon VM this was tuned on runs at full speed or at about half of
# it, in phases of seconds to many minutes, under load the VM does not see.
# Medians of raw request times spread 7-26 % across seeds (quartile distance
# over median), and taking the fastest request of a run was worse. So every
# request is bracketed by `calibrate`, a fixed Fraction loop in this process
# that measures the machine's speed just then, and its time is scaled to the
# speed at which one loop takes CAL_REFERENCE_S, raised to SPEED_EXPONENT.
# Regressing log request time on log loop time gave exponents of 0.6-0.7
# for the Python-bound requests, 0.24 for oracle (mostly numpy) and 0.45-0.56
# for set-up; with 1/2 for all, every spread fell to 4-10 %, against 3-13 %
# with 1 and 7-26 % with 0. Requests of about a second give 20 or more per
# 25 s run and stay close to the speed measured around them; hence `mu --L 8`,
# `verify --L 4` and `sample --L 6 --n 20000`, not `mu --L 10` (7 s),
# `verify --L 5` (2.5 s) or `sample --L 8 --n 100000` (3.7 s). `oracle` keeps
# L = 10 (2.7 s), where the dense LU is about 80 % of the time.
CAL_LOOPS, CAL_TERMS = 3, 4000
CAL_REFERENCE_S = 0.0155  # one loop at the tuning VM's full speed
SPEED_EXPONENT = 0.5
MARGINAL_L = 8
ORACLE_L = 10
IDENTITIES_L = 4
SAMPLING_L, SAMPLING_N = 6, 20000
# Per-state z-score band for the sampled top layer against the exact law.
# The rarest of the 64 states expects about 106 hits in 20000 draws, so the
# normal approximation holds; |z| > 6 on any state has a chance of about
# 1e-6 per run for a correct sampler.
Z_BAND = 6.0

# The exact workloads share the bench default point (q, A, B) = (1/2, 1, 2).
# `marginal` and `oracle` compute the law there by independent routes, and
# the reference holds it only where both routes agree (make_reference.py).
POINT = ["--q", "1/2", "--A", "1", "--B", "2"]
# `verify` exits 3 at (1/2, 1, 2), where AB = 1/q, and at (1/3, 1, 1), where
# AB = 1: `tilde_scale` refuses both poles. (1/3, 1, 2) has AB = 2, which is
# no power of 1/3, so it is valid whether or not the refusal is narrowed.
IDENTITY_POINT = ["--q", "1/3", "--A", "1", "--B", "2"]


class CheckFailed(Exception):
    pass


@dataclass
class Workload:
    args: object  # seed -> CLI arguments of one timed request
    setup_args: object  # seed -> the same subcommand at its smallest input
    check: object  # (reference, stdout text, setup?) -> None or CheckFailed


def check_law(law: dict, reference, L: int) -> None:
    """`law` maps occupation strings to "p/q" texts; it must equal the reference."""
    if {s: Fraction(v) for s, v in law.items()} != reference["law"][str(L)]:
        raise CheckFailed(f"the law at L={L} differs from the exact reference")


def _check_law_payload(text, key, reference, L):
    payload = json.loads(text)
    if payload["L"] != L or [payload[k] for k in ("q", "A", "B")] != POINT[1::2]:
        raise CheckFailed("output names another size or point")
    check_law(payload[key], reference, L)


def check_marginal(reference, text, setup):
    _check_law_payload(text, "mu", reference, 1 if setup else MARGINAL_L)


def check_oracle(reference, text, setup):
    _check_law_payload(text, "pi", reference, 1 if setup else ORACLE_L)


def check_instances(passed: bool, instances: int, reference, L: int) -> None:
    if passed is not True:
        raise CheckFailed(f"verify --L {L} reported a failed identity")
    if instances != reference["verify_instances"][str(L)]:
        raise CheckFailed(f"verify --L {L} checked {instances} instances")


def check_identities(reference, text, setup):
    reports = json.loads(text)["reports"]
    check_instances(all(r["passed"] is True for r in reports),
                    sum(r["instances"] for r in reports), reference, 0 if setup else IDENTITIES_L)


def check_sampling(reference, text, setup):
    L, n = (1, 1) if setup else (SAMPLING_L, SAMPLING_N)
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "tau,xi" or len(lines) != n + 1:
        raise CheckFailed(f"expected a header and {n} draws")
    zero = reference["zero_weight_paths"][str(L)]
    tops = Counter()
    for pair, hits in Counter(lines[1:]).items():
        tau, _, xi = pair.partition(",")
        if len(tau) != L or len(xi) != L or set(tau + xi) - {"0", "1"}:
            raise CheckFailed(f"malformed draw {pair!r}")
        steps = "".join("-0+"[int(t) - int(x) + 1] for t, x in zip(tau, xi))
        if steps in zero:
            raise CheckFailed(f"draw {pair!r} has weight zero")
        tops[tau] += hits
    if setup:
        return
    law = reference["law"][str(L)]
    if set(tops) - set(law):
        raise CheckFailed("a drawn top layer is outside the exact support")
    for tau, prob in law.items():
        p = float(prob)
        z = (tops[tau] / n - p) * n ** 0.5 / (p * (1 - p)) ** 0.5
        if abs(z) > Z_BAND:
            raise CheckFailed(f"top layer {tau}: z = {z:.2f} outside +-{Z_BAND}")


WORKLOADS = {
    # ROADMAP item 2 (integer core) must show here
    "marginal": Workload(
        args=lambda seed: ["mu", "--L", str(MARGINAL_L), *POINT],
        setup_args=lambda seed: ["mu", "--L", "1", *POINT],
        check=check_marginal,
    ),
    # ROADMAP item 3 (block-tridiagonal solve) must show here, not on marginal
    "oracle": Workload(
        args=lambda seed: ["oracle", "--L", str(ORACLE_L), *POINT],
        setup_args=lambda seed: ["oracle", "--L", "1", *POINT],
        check=check_oracle,
    ),
    # single-pair weight lookups, where marginal sweeps all paths in bulk;
    # the only workload that runs recursions
    "identities": Workload(
        args=lambda seed: ["verify", "--L", str(IDENTITIES_L), *IDENTITY_POINT],
        setup_args=lambda seed: ["verify", "--L", "0", *IDENTITY_POINT],
        check=check_identities,
    ),
    # the only workload that runs sampler; the bench seed drives --seed
    "sampling": Workload(
        args=lambda seed: ["sample", "--L", str(SAMPLING_L), "--n", str(SAMPLING_N), *POINT,
                           "--seed", str(seed)],
        setup_args=lambda seed: ["sample", "--L", "1", "--n", "1", *POINT, "--seed", str(seed)],
        check=check_sampling,
    ),
}

# metric -> unit; each is the median over the run's successful requests
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.numpy_imported": "count",
    "lattice.enumerate_paths_s": "s",
    "lattice.paths": "count",
    "lattice.draw_objects_s": "s",
    "qcalc.dq_chain_s": "s",
    "qcalc.dq_applications": "count",
    "weights.w_operator_s": "s",
    "weights.compositions": "count",
    "weights.path_weights_warm_s": "s",
    "weights.q_weight_s": "s",
    "weights.tilde_q_weight_s": "s",
    "ensemble.stationary_mu_s": "s",
    "ensemble.stationary_mu_warm_s": "s",
    "ensemble.path_law_s": "s",
    "ensemble.result_max_bits": "bits",
    "oracle.build_generator_s": "s",
    "oracle.stationary_exact_s": "s",
    "oracle.apply_left_s": "s",
    "oracle.states": "count",
    "oracle.nonzeros": "count",
    "recursions.left_s": "s",
    "recursions.right_s": "s",
    "recursions.bulk_s": "s",
    "recursions.basic_s": "s",
    "recursions.instances": "count",
    "sampler.sample_s": "s",
    "sampler.draws_per_s": "1/s",
    "sampler.draws": "count",
    "trace.overhead_s": "s",
}

# the span wrapping the calls each workload's subcommand makes
CLI_SPAN = {"marginal": "cli.mu", "oracle": "cli.oracle", "identities": "cli.verify", "sampling": "cli.sample"}
# probe group -> the sizes it runs at, matching the untraced workloads
PROBE_SIZES = {
    "marginal": [MARGINAL_L],
    "oracle": [ORACLE_L],
    "identities": [IDENTITIES_L],
    "sampling": [SAMPLING_L, SAMPLING_N],
}
CLI_IMPORT_REPS = 3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {why}")


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: list[str]) -> Child:
    """Run one child to completion; its own rusage comes from os.wait4.

    RUSAGE_CHILDREN would keep the maximum over every child so far, so one
    large workload would leak its peak into the next one's reading.
    """
    OUT.mkdir(exist_ok=True)
    # unnamed files, so concurrent runs in one checkout cannot mix outputs
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024,
            code=code,
            stdout=out.read().decode(),
            stderr=err.read().decode(errors="replace"),
        )


def run_cli(args: list[str], check, reference, setup: bool, tally: Tally) -> Child | None:
    """One checked CLI request; None if it failed."""
    child = spawn([sys.executable, "-m", "asep2l.cli", *args])
    what = "asep2l " + " ".join(args)
    if child.code != 0:
        tally.record(False, what, f"exit {child.code}: {child.stderr.strip()[-300:]}")
        return None
    try:
        check(reference, child.stdout, setup)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        tally.record(False, what, f"output check: {exc!r}")
        return None
    tally.record(True, what)
    return child


def calibrate() -> float:
    """Mean time of a fixed loop of Fraction arithmetic, the program's own kind
    of work, in this process: how fast the machine runs just now."""
    start = time.perf_counter()
    for _ in range(CAL_LOOPS):
        acc = Fraction(0)
        for i in range(1, CAL_TERMS):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return (time.perf_counter() - start) / CAL_LOOPS


def measure_workload(name: str, seed: int, seconds: float, setup_reps: int,
                     reference, tally: Tally) -> dict:
    """Untraced samples of one workload, requested until `seconds` have passed.

    The first `setup_reps` requests are each preceded by a set-up request,
    so set-up is sampled across the run, not in one burst. Each request
    sits between two calibrations; `wall_s` and `setup_s` hold its time
    scaled to the reference speed, `raw_wall_s` and `raw_setup_s` its time.
    """
    w = WORKLOADS[name]
    # untimed: compiles the package's bytecode in a fresh checkout
    run_cli(w.setup_args(seed), w.check, reference, True, tally)
    samples = {m: [] for m in ("wall_s", "setup_s", "peak_rss_mb", "raw_wall_s", "raw_setup_s")}
    cal = calibrate()

    def request(args, setup):
        nonlocal cal
        child = run_cli(args, w.check, reference, setup, tally)
        before, cal = cal, calibrate()
        if child:
            metric = "setup_s" if setup else "wall_s"
            speed = (2 * CAL_REFERENCE_S / (before + cal)) ** SPEED_EXPONENT
            samples[metric].append(child.wall_s * speed)
            samples["raw_" + metric].append(child.wall_s)
            if not setup:
                samples["peak_rss_mb"].append(child.rss_mb)

    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i < setup_reps:
            request(w.setup_args(seed), True)
        request(w.args(seed), False)
        if i + 1 >= setup_reps and time.perf_counter() >= deadline:
            return samples


def summarize(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "samples": values}


def run_probe(group: str, seed: int, reference, tally: Tally) -> dict | None:
    """One fresh traced probe process; None if it failed or its outputs are wrong."""
    sizes = [str(v) for v in PROBE_SIZES.get(group, [])]
    child = spawn([sys.executable, str(BENCH / "probe.py"), group, str(seed), *sizes])
    what = f"probe {group} {' '.join(sizes)}"
    if child.code != 0:
        tally.record(False, what, f"exit {child.code}: {child.stderr.strip()[-300:]}")
        return None
    try:
        result = json.loads(child.stdout)
        out = result["outputs"]
        if group == "marginal":
            check_law(out["law"], reference, MARGINAL_L)
        elif group == "oracle":
            check_law(out["law"], reference, ORACLE_L)
            if not out["annihilated"]:
                raise CheckFailed("the solution does not annihilate the generator")
        elif group == "identities":
            check_instances(out["passed"], out["instances"], reference, IDENTITIES_L)
        elif group == "sampling":
            check_sampling(reference, out["csv"], False)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        tally.record(False, what, f"output check: {exc!r}")
        return None
    tally.record(True, what)
    return result


def self_times(spans: list[dict]) -> None:
    """Add each span's duration and self time (duration minus its children's)."""
    for s in spans:
        s["duration_s"] = s["end"] - s["start"]
        s["self_s"] = s["duration_s"]
    by_id = {(s["request"], s["id"]): s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            by_id[(s["request"], s["parent"])]["self_s"] -= s["duration_s"]


def measure_traced(seed: int, untraced: dict, reference, tally: Tally):
    """Per-layer metrics from fresh probe processes, and the spans.

    `untraced` maps workload names to their median raw (wall, setup) times; the
    overhead of each is its untraced compute time minus its traced CLI span,
    which is what tracing and the CLI's parsing and output add.
    """
    spans, counts, imports = [], {}, []
    for request, group in enumerate(["cli"] * CLI_IMPORT_REPS + list(PROBE_SIZES)):
        if r := run_probe(group, seed, reference, tally):
            for s in r["spans"]:
                s["request"] = request
                if s["name"] == "cli.import":
                    imports.append(s["end"] - s["start"])
            spans += r["spans"]
            counts.update(r["counts"])
    self_times(spans)
    durations = {s["name"]: s["duration_s"] for s in spans}
    metrics = dict(counts)
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in durations:
            metrics[name] = durations[name[:-2]]
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    if "sampler.sample_s" in metrics and "ensemble.path_law_s" in metrics:
        metrics["sampler.draws_per_s"] = metrics["sampler.draws"] / (
            metrics["sampler.sample_s"] - metrics["ensemble.path_law_s"])
    overhead = {
        name: wall - setup - durations[CLI_SPAN[name]]
        for name, (wall, setup) in untraced.items()
        if CLI_SPAN[name] in durations
    }
    return metrics, overhead, spans


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def metric_line(name: str, value, unit: str, stats: dict | None = None) -> str:
    line = f"{name:32s} {value:>14.6g} {unit}"
    if stats:
        line += (f"  (min {stats['min']:.6g}, median {stats['median']:.6g}, "
                 f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})")
    return line


def load_reference() -> dict:
    raw = json.loads((BENCH / "reference.json").read_text())
    raw["law"] = {L: {s: Fraction(v) for s, v in law.items()} for L, law in raw["law"].items()}
    return raw


def end_to_end(name, seed, seconds, setup_reps, reference, tally) -> tuple[dict, dict]:
    """Sample one workload; return the statistics of every series and the
    reported values, the medians of the END_TO_END series."""
    samples = measure_workload(name, seed, seconds, setup_reps, reference, tally)
    stats = {m: summarize(v) for m, v in samples.items()}
    for m, st in stats.items():
        if st["n"]:
            print(f"{name}: " + metric_line(m, st["median"], END_TO_END.get(m, "s"), st))
    return stats, {m: stats[m]["median"] for m in END_TO_END if stats[m]["n"]}


def raw_times(stats: dict) -> tuple[float, float] | None:
    """Median raw (wall, setup) seconds, for the tracing overhead."""
    if stats["raw_wall_s"]["n"] and stats["raw_setup_s"]["n"]:
        return stats["raw_wall_s"]["median"], stats["raw_setup_s"]["median"]
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, then the traced run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT / "results.json", help="results file for --all")
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    if not CLI.is_file():
        print(f"error: {CLI} not found; run from an asep2l checkout", file=sys.stderr)
        return 2

    reference = load_reference()
    machine = machine_info()
    print("machine " + json.dumps(machine))
    tally = Tally()
    results = {"machine": machine, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    final = {}  # reported metric -> (value, unit)
    untraced = {}  # workload -> median raw (wall, setup) seconds

    if args.all or args.trace == 0:
        for name in sorted(WORKLOADS) if args.all else [args.workload]:
            before = (tally.attempted, tally.failed)
            stats, values = end_to_end(name, args.seed, args.seconds, SETUP_REPS, reference, tally)
            attempted, failed = tally.attempted - before[0], tally.failed - before[1]
            print(f"{name}: " + metric_line("error_rate", failed / attempted, f"({failed}/{attempted})"))
            results["workloads"][name] = {**stats, "reported": values, "error_rate": failed / attempted}
            prefix = f"{name}." if args.all else ""
            final.update({prefix + m: (v, END_TO_END[m]) for m, v in values.items()})
            if raw := raw_times(stats):
                untraced[name] = raw

    if args.all or args.trace == 1:
        if not args.all:
            stats, _ = end_to_end(args.workload, args.seed, 0, OVERHEAD_SETUP_REPS, reference, tally)
            if raw := raw_times(stats):
                untraced[args.workload] = raw
        metrics, overhead, spans = measure_traced(args.seed, untraced, reference, tally)
        for name, value in overhead.items():
            print(f"trace: {name}: raw wall - raw setup - {CLI_SPAN[name]} span = {value:.4f} s")
        if not args.all and args.workload in overhead:
            metrics["trace.overhead_s"] = overhead[args.workload]
        for s in spans:
            if s["self_s"] < s["duration_s"]:
                print(f"trace: {s['workload']}: {s['name']} self time {s['self_s']:.4f} s "
                      f"of {s['duration_s']:.4f} s")
        for m, unit in PER_LAYER.items():
            if m in metrics:
                print("layer: " + metric_line(m, metrics[m], unit))
                final[m] = (metrics[m], unit)
        results.update(per_layer=metrics, trace_overhead_s=overhead)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload or 'all'}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"machine": machine, "seed": args.seed, "spans": spans}, indent=1))
        print(f"spans written to {trace_file}")

    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    if args.all:
        expected = {f"{w}.{m}" for w in WORKLOADS for m in END_TO_END} | set(PER_LAYER) - {"trace.overhead_s"}
    else:
        expected = set(END_TO_END) if args.trace == 0 else set(PER_LAYER)
    correct = tally.failed == 0 and expected <= set(final)
    if args.all:
        results.update(correct=correct, attempted=tally.attempted, failed=tally.failed)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"results written to {args.out}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in final.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
