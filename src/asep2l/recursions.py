"""Exhaustive exact verification of the weight recursions.

The rescaled two-layer weight satisfies one left-boundary, one
right-boundary, and one bulk identity relating sizes L+1 (or L+2) to L;
summing each identity over the bottom layer yields the four basic weight
equations for the table Phi. Every checker covers its full instance
space at concrete rational parameters and compares sides exactly,
recording the first few failures verbatim.

Every checker reads its sides from integer tables. Site j of (tau, xi)
gives the base-3 digit tau_j - xi_j + 1, its step plus one, and these
digits, site 1 first, are the number of the path in step-lexicographic
order, so

    Qt_L(tau, xi) = tilde_scale(L) * W_L[that number] / den_L

with W_L the path weights of size L as integers over den_L, in the order
of ensemble._path_weights. Summed over the bottom layer, Phi_L(tau) =
tilde_scale(L) * M_L[tau's number] / den_L, with the top-layer masses M_L
of weights._fold_masses numbered by tau's bits, site 1 first. So an
equation is checked once per entry k of the short table: the added sites
put their digits first, last or between a prefix and a suffix (bulk),
and each side is the slice of a table whose digit of one place value is
fixed (_digit). With the constants over one denominator, an entry is
one integer comparison, kl * (cd * hi[a] - cn * hi[b]) == kr * lo[k]. A
report still counts every pair (or top layer, for Phi) as an instance;
only when an entry fails are the instances walked, in enumerate_pairs
(enumerate_occupations) order, to keep the first failures with their
Fraction sides.

A verification run walks the keys once (weights._key_levels), up to the
largest size it reads, and builds from that one walk the tables of every
size: each size's keys are weighed once, and their weights are gathered
forward into W_L (weights._next_ids) and folded back into M_L
(weights._fold_masses), the folds that the marginal and the path law
read too. Each public checker is a run of its own, and _verify, the run
of the `verify` command, keeps the tables for all its checks and drops
them when it returns.

Each public checker admits its size against the `verify` row of MAX_L
(the bulk checker the long pair's L1 + L2 + 2, after refusing a negative
part), as the command does for its L; _verify and the private checkers it
runs admit nothing, so that `verify --max-L` reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add

from .lattice import Occupation, admit, enumerate_occupations, enumerate_pairs
from .record import Record
from .weights import ModelParams, _fold_masses, _key_levels, _next_ids, _weigh_keys

FAILURES_KEPT = 10


class Failure(Record):
    __slots__ = ("inputs", "lhs", "rhs")

    def __init__(self, inputs: dict, lhs: Fraction, rhs: Fraction):
        self._init(inputs, lhs, rhs)

    def to_dict(self) -> dict:
        return {
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


class VerificationReport(Record):
    __slots__ = ("identity", "sizes", "params", "instances", "failures")

    def __init__(
        self,
        identity: str,
        sizes: str,
        params: ModelParams,
        instances: int = 0,
        failures: list | None = None,
    ):
        if failures is None:
            failures = []
        self._init(identity, sizes, params, instances, failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, lhs: Fraction, rhs: Fraction, inputs: dict) -> None:
        self.instances += 1
        if lhs != rhs and len(self.failures) < FAILURES_KEPT:
            self.failures.append(Failure(inputs, lhs, rhs))

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "sizes": self.sizes,
            "q": str(self.params.q),
            "A": str(self.params.A),
            "B": str(self.params.B),
            "instances": self.instances,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }


def _tables(top: int, p: ModelParams, masses_to: int) -> list:
    """The tables of every size up to top, from one walk of the keys.

    Entry L is (W_L, M_L, den_L): the path weights and, for L <= masses_to
    (else None), the top-layer masses of size L, both as integers over
    den_L.
    """
    tables, links, ids = [], [], [0]
    for keys, *link in _key_levels(top):
        if tables:
            links.append(link)
            ids = _next_ids(ids, *link)
        weights, den = _weigh_keys(keys, p)
        weights = list(weights)
        masses = _fold_masses(links, weights) if len(tables) <= masses_to else None
        tables.append(([weights[i] for i in ids], masses, den))
    return tables


def _table(L: int, p: ModelParams, tables: list) -> tuple[list[int], Fraction]:
    """Path weights W_L and the unit with Qt_L = unit * W_L[number];
    raises SingularParameter at the poles of size L."""
    weights, _, den = tables[L]
    return weights, p.tilde_scale(L) / den


def _number(tau: Occupation, xi: Occupation) -> int:
    """The number of the path of (tau, xi) in step-lexicographic order:
    site j gives the base-3 digit tau_j - xi_j + 1, site 1 first."""
    k = 0
    for t, x in zip(tau.bits(), xi.bits()):
        k = 3 * k + t - x + 1
    return k


def _digit(table: list, base: int, place: int, d: int) -> list:
    """The entries of table whose digit of place value place, in base
    base, is d, in table order. The lowest and the highest digit take one
    slice each: a long list grown entry by entry leaves freed memory that
    the process keeps (4 MiB more peak RSS in `verify --L 12`)."""
    if place == 1:
        return table[d::base]
    if base * place == len(table):
        return table[d * place : (d + 1) * place]
    starts = range(d * place, len(table), base * place)
    return [w for s in starts for w in table[s : s + place]]


def _mismatches(units, coef, factor, plus, minus, short) -> dict:
    """The k at which plus[k] - coef * minus[k] == factor * short[k] fails,
    each side in its unit (units: long, short) and compared on integers,
    mapped to a call that gives its sides as Fractions (only a kept
    failure needs them)."""
    cn, cd = coef.numerator, coef.denominator
    ratio = factor * units[1] * cd / units[0]
    kl, kr = ratio.denominator, ratio.numerator
    return {
        k: lambda a=a, b=b, c=c: (units[0] * (a - coef * b), factor * units[1] * c)
        for k, (a, b, c) in enumerate(zip(plus, minus, short))
        if kl * (cd * a - cn * b) != kr * c
    }


def _tally(report, instances: int, bad, cases) -> None:
    """Count the instances of a check; when any failed (bad is not empty),
    keep the first failures of cases(), which yields (sides, inputs) in the
    report's order, sides from _mismatches or None where the equation
    holds."""
    report.instances += instances
    for sides, inputs in cases() if bad else ():
        if len(report.failures) == FAILURES_KEPT:
            return
        if sides:
            report.failures.append(Failure(inputs, *sides()))


def _boundary(L: int, p: ModelParams, prepend: bool, tables: list) -> VerificationReport:
    """The report of one boundary identity, Qt(tau+ | xi') - coef Qt(tau- |
    xi') = factors[x'] Qt(tau | xi), where xi' holds x' at the new site.
    The left boundary (prepend) adds the site first, with tau+ holding 0
    there, coef = qA and factors = (1, A); the right boundary adds it last,
    with tau+ holding 1 there, coef = qB and factors = (B, 1). In both,
    tau- holds the other bit."""
    if prepend:
        report = VerificationReport("left-boundary", f"L={L}", p)
        coef, factors = p.q * p.A, (1, p.A)
    else:
        report = VerificationReport("right-boundary", f"L={L}", p)
        coef, factors = p.q * p.B, (p.B, 1)
    hi, unit_hi = _table(L + 1, p, tables)
    lo, unit_lo = _table(L, p, tables)
    # the new site's digit, tau's bit - x' + 1, has the place 3**L or 1
    place, new = (3 ** L, 0) if prepend else (1, 1)  # new: tau+'s bit there
    for x in (0, 1):
        plus, minus = (_digit(hi, 3, place, d) for d in (new - x + 1, 2 - new - x))
        bad = _mismatches((unit_hi, unit_lo), coef, factors[x], plus, minus, lo)
        _tally(report, 4 ** L, bad, lambda: (
            (bad.get(_number(tau, xi)), {"tau": tau, "xi": xi, "xi_new": x})
            for tau, xi in enumerate_pairs(L)
        ))
    return report


def check_left_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Prepending a site: Qt(0 tau | x' xi) - qA Qt(1 tau | x' xi) = A**x' Qt(tau | xi)."""
    admit("verify", L)
    return _boundary(L, p, True, _tables(L + 1, p, -1))


def check_right_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Appending a site: Qt(tau 1 | xi x') - qB Qt(tau 0 | xi x') = B**(1-x') Qt(tau | xi)."""
    admit("verify", L)
    return _boundary(L, p, False, _tables(L + 1, p, -1))


def check_bulk(L1: int, L2: int, p: ModelParams) -> VerificationReport:
    """Swapping an interior 10 to 01 against dropping one site."""
    if L1 < 0 or L2 < 0:
        raise ValueError(f"part sizes must be nonnegative, got L1={L1}, L2={L2}")
    admit("verify", L1 + L2 + 2)
    return _bulk(L1, L2, p, _tables(L1 + L2 + 2, p, -1))


def _bulk(L1: int, L2: int, p: ModelParams, tables: list) -> VerificationReport:
    report = VerificationReport("bulk", f"L1={L1},L2={L2}", p)
    hi, unit_hi = _table(L1 + L2 + 2, p, tables)
    lo, unit_lo = _table(L1 + L2 + 1, p, tables)
    u = 3 ** L2
    for xi_a in (0, 1):
        for xi_b in (0, 1):
            # the middle: tau 10 (base-9 digit 7 - mid) or 01 (5 - mid)
            # against xi_a xi_b (mid = 3 xi_a + xi_b) in the long pair, and
            # tau 1 - xi_b against xi_a (digit 2 - xi_a - xi_b) in the short
            mid = 3 * xi_a + xi_b
            bad = _mismatches(
                (unit_hi, unit_lo), p.q, 1,
                _digit(hi, 9, u, 7 - mid), _digit(hi, 9, u, 5 - mid),
                _digit(lo, 3, u, 2 - xi_a - xi_b),
            )
            _tally(report, 4 ** (L1 + L2), bad, lambda: (
                (bad.get(_number(tau1.concat(tau2), xi1.concat(xi2))), {
                    "tau1": tau1, "xi1": xi1, "tau2": tau2, "xi2": xi2,
                    "xi_mid": f"{xi_a}{xi_b}",
                })
                for tau1, xi1 in enumerate_pairs(L1)
                for tau2, xi2 in enumerate_pairs(L2)
            ))
    return report


def check_basic_weight_equations(L: int, p: ModelParams) -> VerificationReport:
    """The four equations for Phi, over all sizes up to L."""
    admit("verify", L)
    return _basic_weight_equations(L, p, _tables(L, p, L))


def _basic_weight_equations(L: int, p: ModelParams, tables: list) -> VerificationReport:
    report = VerificationReport("basic-weight-equations", f"L<={L}", p)
    # Phi_ell = units[ell] * masses[ell], in enumerate_occupations order
    units = [_table(ell, p, tables)[1] for ell in range(L + 1)]
    masses = [tables[ell][1] for ell in range(L + 1)]
    # Phi_0(empty) = 1, as Phi_0(empty) - 0 * 0 = 1 * 1
    initial = _mismatches((units[0], Fraction(1)), 0, 1, masses[0], [0], [1])
    _tally(report, 1, initial, lambda: [(initial.get(0), {"equation": "initial"})])
    for ell in range(L):
        lo, hi, n = masses[ell], masses[ell + 1], 1 << ell
        pair = units[ell + 1], units[ell]
        # 0 tau and 1 tau lead the table; tau 1 and tau 0 alternate in it
        left = _mismatches(
            pair, p.q * p.A, 1 + p.A, _digit(hi, 2, n, 0), _digit(hi, 2, n, 1), lo
        )
        right = _mismatches(
            pair, p.q * p.B, 1 + p.B, _digit(hi, 2, 1, 1), _digit(hi, 2, 1, 0), lo
        )
        _tally(report, 2 * n, left or right, lambda: (
            (bad.get(k), {"equation": side, "tau": tau})
            for k, tau in enumerate(enumerate_occupations(ell))
            for bad, side in ((left, "left"), (right, "right"))
        ))
    for total in range(L - 1):
        lo, hi = masses[total + 1], masses[total + 2]
        pair = units[total + 2], units[total + 1]
        for n1 in range(total + 1):
            n2 = total - n1
            u = 1 << n2
            # tau1 10 tau2 and tau1 01 tau2 against tau1 0 tau2 + tau1 1 tau2
            short = map(add, _digit(lo, 2, u, 0), _digit(lo, 2, u, 1))
            plus, minus = _digit(hi, 4, u, 2), _digit(hi, 4, u, 1)
            bad = _mismatches(pair, p.q, 1, plus, minus, short)
            _tally(report, 1 << total, bad, lambda: (
                (bad.get(k), {"equation": "bulk", "tau1": tau1, "tau2": tau2})
                for k, (tau1, tau2) in enumerate(
                    product(enumerate_occupations(n1), enumerate_occupations(n2))
                )
            ))
    return report


def _verify(L: int, p: ModelParams, which: str) -> list[VerificationReport]:
    """The reports of one `verify` run over sizes up to L, in its order;
    which is "left", "right", "bulk", "basic" or "all"."""
    # the boundary checks read size L + 1, the others sizes up to L
    top = L if which in ("bulk", "basic") else L + 1
    tables = _tables(top, p, L if which in ("basic", "all") else -1)
    reports = []
    if which in ("left", "all"):
        reports += [_boundary(ell, p, True, tables) for ell in range(L + 1)]
    if which in ("right", "all"):
        reports += [_boundary(ell, p, False, tables) for ell in range(L + 1)]
    if which in ("bulk", "all"):
        reports += [
            _bulk(n1, n2, p, tables)
            for n1 in range(max(L - 1, 0))
            for n2 in range(max(L - 1 - n1, 0))
        ]
    if which in ("basic", "all"):
        reports.append(_basic_weight_equations(L, p, tables))
    return reports
