"""Traced probes: time calls into asep2l's public functions from outside.

    PYTHONPATH=src python3 bench/probe.py <group> <seed> [<L> [<n>]]

Groups are `cli`, `marginal <L>`, `oracle <L>`, `identities <L>` and
`sampling <L> <n>`; run.py passes the sizes of its workloads. It starts
each group in a fresh process, so every cache starts cold, as it does for
a user. A probe prints one JSON object on stdout:

    {"spans": [...], "counts": {...}, "outputs": {...}}

Spans are kept in memory and printed at the end. Each span has an id, a
name, a parent id, the group as its workload, and start and end times in
seconds on the process's `time.perf_counter` clock; run.py adds a request
id that the spans of one process share. A span named `x.y` is reported
as the per-layer metric `x.y_s`. A `cli.<subcommand>` span wraps the
calls that subcommand makes, so run.py can compare it with the untraced
CLI run. `outputs` holds what run.py checks exactly.

Only `sys` and `time` are imported before the `cli` probe's span, so
`cli.import` covers everything `import asep2l.cli` loads.
"""

import sys
import time


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    def span(self, name):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "parent": tracer._open[-1]["id"] if tracer._open else None,
            "workload": tracer.workload,
        }
        tracer.spans.append(self.record)

    def __enter__(self):
        self.tracer._open.append(self.record)
        self.record["start"] = time.perf_counter()

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()


def probe_cli(tr, seed):
    with tr.span("cli.import"):
        import asep2l.cli  # noqa: F401
    return {"cli.numpy_imported": int("numpy" in sys.modules)}, {}


def probe_marginal(tr, seed, L):
    from fractions import Fraction

    from asep2l import (
        ModelParams,
        composition_of,
        enumerate_paths,
        geometric_unit,
        jackson_dq,
        jackson_dq_z,
        partition_Z,
        stationary_mu,
        w_sigma_operator,
    )

    p = ModelParams(Fraction(1, 2), 1, 2)
    with tr.span("cli.mu"):
        with tr.span("ensemble.stationary_mu"):
            mu = stationary_mu(L, p)
    with tr.span("ensemble.stationary_mu_warm"):
        stationary_mu(L, p)
    with tr.span("weights.path_weights_warm"):
        partition_Z(L, p)
    with tr.span("lattice.enumerate_paths"):
        paths = sum(1 for _ in enumerate_paths(L))
    comps = sorted({composition_of(g) for g in enumerate_paths(L)})
    applications = 0
    with tr.span("qcalc.dq_chain"):
        for sigma in comps:
            e = geometric_unit()
            for s in reversed(sigma):
                e = jackson_dq(e, p.q)
                for _ in range(s - 1):
                    e = jackson_dq_z(e, p.q)
                applications += s
    with tr.span("weights.w_operator"):
        for sigma in comps:
            w_sigma_operator(sigma, p.q)
    max_bits = max(
        max(pr.numerator.bit_length(), pr.denominator.bit_length())
        for pr in mu.probs
    )
    counts = {
        "lattice.paths": paths,
        "qcalc.dq_applications": applications,
        "weights.compositions": len(comps),
        "ensemble.result_max_bits": max_bits,
    }
    return counts, {"law": {str(s): str(pr) for s, pr in mu.items()}}


def probe_oracle(tr, seed, L):
    from fractions import Fraction

    from asep2l import ModelParams, build_generator, rates_from_params, stationary_exact

    rates = rates_from_params(ModelParams(Fraction(1, 2), 1, 2))
    with tr.span("cli.oracle"):
        with tr.span("oracle.build_generator"):
            g = build_generator(L, rates)
        with tr.span("oracle.stationary_exact"):
            pi = stationary_exact(g)
    x = [Fraction(0)] * g.dim
    for s, pr in pi.items():
        x[s.word] = pr
    with tr.span("oracle.apply_left"):
        residual = g.apply_left(x)
    diagonal = sum(1 for i, row in enumerate(g.rows) if row and g.entry(i, i) != 0)
    counts = {
        "oracle.states": g.dim,
        "oracle.nonzeros": sum(len(row) for row in g.rows) + diagonal,
    }
    outputs = {
        "law": {str(s): str(pr) for s, pr in pi.items()},
        "annihilated": all(v == 0 for v in residual),
    }
    return counts, outputs


def probe_identities(tr, seed, L):
    from fractions import Fraction

    from asep2l import (
        ModelParams,
        check_basic_weight_equations,
        check_bulk,
        check_left_boundary,
        check_right_boundary,
        enumerate_occupations,
        q_weight,
        tilde_q_weight,
    )

    p = ModelParams(Fraction(1, 3), 1, 2)
    reports = []
    # the calls `verify --L <L>` makes, in its order
    with tr.span("cli.verify"):
        with tr.span("recursions.left"):
            reports += [check_left_boundary(ell, p) for ell in range(L + 1)]
        with tr.span("recursions.right"):
            reports += [check_right_boundary(ell, p) for ell in range(L + 1)]
        with tr.span("recursions.bulk"):
            for n1 in range(L - 1):
                for n2 in range(L - 1 - n1):
                    reports.append(check_bulk(n1, n2, p))
        with tr.span("recursions.basic"):
            reports.append(check_basic_weight_equations(L, p))
    # both loops run with the polynomials memoized by the checks above, so
    # the gap between them is the cost of the rescaling factor
    occs = list(enumerate_occupations(L + 1))
    pairs = [(tau, xi) for tau in occs for xi in occs]
    with tr.span("weights.q_weight"):
        for tau, xi in pairs:
            q_weight(tau, xi, p)
    with tr.span("weights.tilde_q_weight"):
        for tau, xi in pairs:
            tilde_q_weight(tau, xi, p)
    instances = sum(r.instances for r in reports)
    outputs = {"passed": all(r.passed for r in reports), "instances": instances}
    return {"recursions.instances": instances}, outputs


def probe_sampling(tr, seed, L, n):
    from fractions import Fraction

    from asep2l import (
        ModelParams,
        path_law,
        path_of,
        sample_two_layer,
        tau_from_path,
        xi_of,
    )

    p = ModelParams(Fraction(1, 2), 1, 2)
    # cold, as inside the CLI's call; sample_two_layer then rebuilds the
    # table with the polynomials memoized
    with tr.span("ensemble.path_law"):
        path_law(L, p)
    with tr.span("cli.sample"):
        with tr.span("sampler.sample"):
            batch = sample_two_layer(L, p, n, seed)
    gammas = [path_of(tau, xi) for tau, xi in batch.draws]
    etas = [
        [b if step == 0 else 0 for b, step in zip(tau.bits(), g.steps())]
        for (tau, _), g in zip(batch.draws, gammas)
    ]
    with tr.span("lattice.draw_objects"):
        for g, eta in zip(gammas, etas):
            xi_of(tau_from_path(g, eta), g)
    text = "\n".join(["tau,xi"] + [f"{tau},{xi}" for tau, xi in batch.draws])
    return {"sampler.draws": batch.count}, {"csv": text}


PROBES = {
    "cli": probe_cli,
    "marginal": probe_marginal,
    "oracle": probe_oracle,
    "identities": probe_identities,
    "sampling": probe_sampling,
}


def main():
    group, seed, *sizes = sys.argv[1], *map(int, sys.argv[2:])
    tr = Tracer(group)
    with tr.span(f"probe.{group}"):
        counts, outputs = PROBES[group](tr, seed, *sizes)
    import json

    json.dump({"spans": tr.spans, "counts": counts, "outputs": outputs}, sys.stdout)


if __name__ == "__main__":
    main()
