"""Exhaustive exact verification of the weight recursions.

The rescaled two-layer weight satisfies one left-boundary, one
right-boundary, and one bulk identity relating sizes L+1 (or L+2) to L;
summing each identity over the bottom layer yields the four basic weight
equations for the table Phi. Every checker covers its full instance
space at concrete rational parameters and compares sides exactly,
recording the first few failures verbatim.

The boundary and bulk checkers read every weight from the integer path
table of its size. Site j of (tau, xi) gives the base-3 digit
tau_j - xi_j + 1, its step plus one, and these digits, site 1 first, are
the number of the path in step-lexicographic order, so

    Qt_L(tau, xi) = tilde_scale(L) * W_L[that number] / den_L

with (W_L, den_L) = ensemble._path_weights(L). So an identity is checked
once per path k of the short pair: the added sites put their digits first
(numbers d * 3**L + k), last (3 * k + d) or between a prefix and a suffix
path (bulk), and each side is a slice of a table. With the constants over
one denominator, a path is one integer comparison,
kl * (cd * W_hi[a] - cn * W_hi[b]) == kr * W_lo[k]. A report still counts
every pair as an instance; only when a path fails are the pairs walked,
in enumerate_pairs order, to keep the first failures with their Fraction
sides.

A table is built once per size and verification run: each public checker
is a run of its own, and _verify, the run of the `verify` command, keeps
the tables of every size it reads (the basic weight equations' included)
in a dict of its own that is dropped when it returns.

Each public checker admits its size against the `verify` row of MAX_L
(the bulk checker the long pair's L1 + L2 + 2), as the command does for
its L; _verify and the private checkers it runs admit nothing, so that
`verify --max-L` reaches them.
"""

from __future__ import annotations

from fractions import Fraction

from .ensemble import _path_weights, _phi_table
from .lattice import Occupation, admit, enumerate_occupations, enumerate_pairs
from .record import Record
from .weights import ModelParams

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


def _table(L: int, p: ModelParams, tables: dict) -> tuple[list[int], Fraction]:
    """Path weights W_L and the unit with Qt_L = unit * W_L[number], kept
    in tables, the dict of one verification run; raises SingularParameter
    at the poles of size L."""
    table = tables.get(L)
    if table is None:
        scale = p.tilde_scale(L)
        weights, den = _path_weights(L, p)
        table = tables[L] = weights, scale / den
    return table


def _number(tau: Occupation, xi: Occupation) -> int:
    """The number of the path of (tau, xi) in step-lexicographic order:
    site j gives the base-3 digit tau_j - xi_j + 1, site 1 first."""
    k = 0
    for t, x in zip(tau.bits(), xi.bits()):
        k = 3 * k + t - x + 1
    return k


def _compare(report, L, units, coef, factor, plus, minus, short, pairs) -> None:
    """Check plus[k] - coef * minus[k] == factor * short[k] for every path k
    of L sites, each side in its unit (units: long, short), on integers.

    Path k stands for the pairs of L sites numbered k, 4**L in all, each an
    instance. pairs() yields every pair as (tau, xi, inputs) in
    enumerate_pairs order, and is walked only when some path fails.
    """
    cn, cd = coef.numerator, coef.denominator
    ratio = factor * units[1] * cd / units[0]
    kl, kr = ratio.denominator, ratio.numerator
    bad = {
        k: (a, b, c)
        for k, (a, b, c) in enumerate(zip(plus, minus, short))
        if kl * (cd * a - cn * b) != kr * c
    }
    report.instances += 4 ** L
    for tau, xi, inputs in pairs() if bad else ():
        if len(report.failures) == FAILURES_KEPT:
            return
        if sides := bad.get(_number(tau, xi)):
            a, b, c = sides
            lhs, rhs = units[0] * (a - coef * b), factor * units[1] * c
            report.failures.append(Failure(inputs, lhs, rhs))


def _boundary(report, L, p, prepend: bool, coef, factors, tables) -> None:
    """Qt(tau+ | xi') - coef Qt(tau- | xi') = factors[x'] Qt(tau | xi), where
    a new site is added first (prepend) or last: xi' holds x' there, tau+
    holds 0 first or 1 last, and tau- the other bit."""
    hi, unit_hi = _table(L + 1, p, tables)
    lo, unit_lo = _table(L, p, tables)
    n, new = 3 ** L, 0 if prepend else 1  # new: tau+'s bit at the new site
    for x in (0, 1):
        # the new site's digit, tau's bit - x' + 1, comes first or last
        plus, minus = (
            hi[d * n : (d + 1) * n] if prepend else hi[d::3]
            for d in (new - x + 1, 2 - new - x)
        )
        _compare(
            report, L, (unit_hi, unit_lo), coef, factors[x], plus, minus, lo,
            lambda: (
                (tau, xi, {"tau": tau, "xi": xi, "xi_new": x})
                for tau, xi in enumerate_pairs(L)
            ),
        )


def check_left_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Prepending a site: Qt(0 tau | x' xi) - qA Qt(1 tau | x' xi) = A**x' Qt(tau | xi)."""
    admit("verify", L)
    return _left_boundary(L, p, {})


def _left_boundary(L: int, p: ModelParams, tables: dict) -> VerificationReport:
    report = VerificationReport("left-boundary", f"L={L}", p)
    _boundary(report, L, p, True, p.q * p.A, (1, p.A), tables)
    return report


def check_right_boundary(L: int, p: ModelParams) -> VerificationReport:
    """Appending a site: Qt(tau 1 | xi x') - qB Qt(tau 0 | xi x') = B**(1-x') Qt(tau | xi)."""
    admit("verify", L)
    return _right_boundary(L, p, {})


def _right_boundary(L: int, p: ModelParams, tables: dict) -> VerificationReport:
    report = VerificationReport("right-boundary", f"L={L}", p)
    _boundary(report, L, p, False, p.q * p.B, (p.B, 1), tables)
    return report


def check_bulk(L1: int, L2: int, p: ModelParams) -> VerificationReport:
    """Swapping an interior 10 to 01 against dropping one site."""
    admit("verify", L1 + L2 + 2)
    return _bulk(L1, L2, p, {})


def _bulk(L1: int, L2: int, p: ModelParams, tables: dict) -> VerificationReport:
    report = VerificationReport("bulk", f"L1={L1},L2={L2}", p)
    hi, unit_hi = _table(L1 + L2 + 2, p, tables)
    lo, unit_lo = _table(L1 + L2 + 1, p, tables)
    u = 3 ** L2

    def blocks(weights, width, digit):
        # after each prefix path, the u suffix paths of middle number digit
        starts = range(digit * u, len(weights), width * u)
        return [w for s in starts for w in weights[s : s + u]]

    def pairs():
        for tau1, xi1 in enumerate_pairs(L1):
            for tau2, xi2 in enumerate_pairs(L2):
                inputs = {
                    "tau1": tau1, "xi1": xi1, "tau2": tau2, "xi2": xi2,
                    "xi_mid": f"{xi_a}{xi_b}",
                }
                yield tau1.concat(tau2), xi1.concat(xi2), inputs

    for xi_a in (0, 1):
        for xi_b in (0, 1):
            # the middle: tau 10 (number 7 - mid) or 01 (5 - mid) against
            # xi_a xi_b (mid = 3 xi_a + xi_b) in the long pair, and tau
            # 1 - xi_b against xi_a (digit 2 - xi_a - xi_b) in the short one
            mid = 3 * xi_a + xi_b
            _compare(
                report, L1 + L2, (unit_hi, unit_lo), p.q, 1,
                blocks(hi, 9, 7 - mid), blocks(hi, 9, 5 - mid),
                blocks(lo, 3, 2 - xi_a - xi_b), pairs,
            )
    return report


def check_basic_weight_equations(L: int, p: ModelParams) -> VerificationReport:
    """The four equations for Phi, over all sizes up to L."""
    admit("verify", L)
    return _basic_weight_equations(L, p, {})


def _basic_weight_equations(L: int, p: ModelParams, tables: dict) -> VerificationReport:
    report = VerificationReport("basic-weight-equations", f"L<={L}", p)
    phis = [
        _phi_table(ell, p, *_table(ell, p, tables)).values for ell in range(L + 1)
    ]
    empty = Occupation(0, 0)
    report.check(phis[0][empty], Fraction(1), {"equation": "initial"})
    qa = p.q * p.A
    qb = p.q * p.B
    for ell in range(L):
        lo, hi = phis[ell], phis[ell + 1]
        for tau in enumerate_occupations(ell):
            lhs = hi[tau.prepend(0)] - qa * hi[tau.prepend(1)]
            report.check(
                lhs, (1 + p.A) * lo[tau], {"equation": "left", "tau": tau}
            )
            lhs = hi[tau.append(1)] - qb * hi[tau.append(0)]
            report.check(
                lhs, (1 + p.B) * lo[tau], {"equation": "right", "tau": tau}
            )
    one_zero = Occupation.from_bits((1, 0))
    zero_one = Occupation.from_bits((0, 1))
    bit = [Occupation.from_bits((0,)), Occupation.from_bits((1,))]
    for total in range(L - 1):
        lo, hi = phis[total + 1], phis[total + 2]
        for n1 in range(total + 1):
            n2 = total - n1
            for tau1 in enumerate_occupations(n1):
                for tau2 in enumerate_occupations(n2):
                    lhs = hi[tau1.concat(one_zero).concat(tau2)] - p.q * hi[
                        tau1.concat(zero_one).concat(tau2)
                    ]
                    rhs = (
                        lo[tau1.concat(bit[0]).concat(tau2)]
                        + lo[tau1.concat(bit[1]).concat(tau2)]
                    )
                    report.check(
                        lhs, rhs, {"equation": "bulk", "tau1": tau1, "tau2": tau2}
                    )
    return report


def _verify(L: int, p: ModelParams, which: str) -> list[VerificationReport]:
    """The reports of one `verify` run over sizes up to L, in its order;
    which is "left", "right", "bulk", "basic" or "all"."""
    tables: dict = {}
    reports = []
    if which in ("left", "all"):
        reports += [_left_boundary(ell, p, tables) for ell in range(L + 1)]
    if which in ("right", "all"):
        reports += [_right_boundary(ell, p, tables) for ell in range(L + 1)]
    if which in ("bulk", "all"):
        reports += [
            _bulk(n1, n2, p, tables)
            for n1 in range(max(L - 1, 0))
            for n2 in range(max(L - 1 - n1, 0))
        ]
    if which in ("basic", "all"):
        reports.append(_basic_weight_equations(L, p, tables))
    return reports
