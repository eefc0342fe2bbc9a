"""Exhaustive exact verification of the weight recursions.

The rescaled two-layer weight satisfies one left-boundary, one
right-boundary, and one bulk identity relating sizes L+1 (or L+2) to L;
summing each identity over the bottom layer yields the four basic weight
equations for the table Phi. Every checker enumerates its full instance
space at concrete rational parameters and compares sides exactly,
recording the first few failures verbatim.

The boundary and bulk checkers read every weight from the integer path
table of its size. With T_L(word) = sum_j bit_(j-1)(word) * 3**(L-j), the
path of (tau, xi) is number T_L(tau) - T_L(xi) + (3**L - 1) // 2 in
step-lexicographic order, so

    Qt_L(tau, xi) = tilde_scale(L) * W_L[that number] / den_L

with (W_L, den_L) = ensemble._path_weights(L). T of a concatenation u v
is T(u) * 3**len(v) + T(v), which gives the numbers of the extended pairs
from those of the short ones. Each identity's rational constants are put
over one denominator once, so an instance is one integer comparison,
kl * (cd * W_hi[a] - cn * W_hi[b]) == kr * W_lo[c]; the exact Fraction
sides are built only for a failure that is kept.

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


def _ternary(L: int) -> list[int]:
    """T_L of every word of L sites: the entry of the word without its
    lowest set bit, plus the power of 3 of that bit's site."""
    t = [0] * (1 << L)
    for word in range(1, 1 << L):
        low = word & -word
        t[word] = t[word ^ low] + 3 ** (L - low.bit_length())
    return t


def _table(L: int, p: ModelParams, tables: dict) -> tuple[list[int], Fraction, int]:
    """Path weights W_L, the unit with Qt_L = unit * W_L[number], and the
    number of the level path, (3**L - 1) // 2, kept in tables, the dict of
    one verification run; raises SingularParameter at the poles of size L."""
    table = tables.get(L)
    if table is None:
        scale = p.tilde_scale(L)
        weights, den = _path_weights(L, p)
        table = tables[L] = weights, scale / den, (3 ** L - 1) // 2
    return table


def _compare(report, hi, lo, coef, factor, rows, cols, inputs) -> None:
    """Check hi(a) - coef * hi(b) == factor * lo(c) on every row and column.

    hi and lo are _table results. Row i gives (a, b, c) and column j gives
    (h, l), as differences T(tau) - T(xi): instance (i, j) reads hi at
    a + h and b + h and lo at c + l. inputs(i, j) names a failing instance.
    """
    (wh, uh, oh), (wl, ul, ol) = hi, lo
    cn, cd = coef.numerator, coef.denominator
    ratio = factor * ul * cd / uh
    kl, kr = ratio.denominator, ratio.numerator
    for i, (ra, rb, rc) in enumerate(rows):
        ra, rb, rc = ra + oh, rb + oh, rc + ol
        bad = [
            j
            for j, (xh, xl) in enumerate(cols)
            if kl * (cd * wh[ra + xh] - cn * wh[rb + xh]) != kr * wl[rc + xl]
        ]
        report.instances += len(cols)
        for j in bad[: FAILURES_KEPT - len(report.failures)]:
            xh, xl = cols[j]
            lhs = uh * (wh[ra + xh] - coef * wh[rb + xh])
            rhs = factor * ul * wl[rc + xl]
            report.failures.append(Failure(inputs(i, j), lhs, rhs))


def _boundary(report, L, p, prepend: bool, coef, factors, tables) -> None:
    """Qt(tau+ | xi') - coef Qt(tau- | xi') = factors[x'] Qt(tau | xi), where
    a new site is added first (prepend) or last: xi' holds x' there, tau+
    holds 0 first or 1 last, and tau- the other bit."""
    hi, lo = _table(L + 1, p, tables), _table(L, p, tables)
    t = _ternary(L)
    occs = list(enumerate_occupations(L))
    words = [o.word for o in occs]
    # T(b u) = b * 3**L + T(u) and T(u b) = 3 * T(u) + b
    shift, scale = (3 ** L, 1) if prepend else (1, 3)
    plus = 0 if prepend else 1
    rows = [
        (scale * t[w] + plus * shift, scale * t[w] + (1 - plus) * shift, t[w])
        for w in words
    ]
    for x in (0, 1):
        cols = [(-scale * t[w] - x * shift, -t[w]) for w in words]
        _compare(
            report, hi, lo, coef, factors[x], rows, cols,
            lambda i, j: {"tau": occs[i], "xi": occs[j], "xi_new": x},
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
    hi, lo = _table(L1 + L2 + 2, p, tables), _table(L1 + L2 + 1, p, tables)
    t1, t2 = _ternary(L1), _ternary(L2)
    pairs1 = list(enumerate_pairs(L1))
    pairs2 = list(enumerate_pairs(L2))
    d1 = [t1[tau.word] - t1[xi.word] for tau, xi in pairs1]
    cols = [(d, d) for d in (t2[tau.word] - t2[xi.word] for tau, xi in pairs2)]
    unit = 3 ** L2
    for xi_a in (0, 1):
        for xi_b in (0, 1):
            # T(u m v) = T(u) * 3**(len(m) + L2) + T(m) * 3**L2 + T(v), with
            # middle m: tau 10 (T = 3) or 01 (1) against xi_a xi_b (3 xi_a +
            # xi_b) in the long pair, tau 1 - xi_b against xi_a in the short
            mid = 3 * xi_a + xi_b
            rows = [
                (
                    9 * unit * d + (3 - mid) * unit,
                    9 * unit * d + (1 - mid) * unit,
                    3 * unit * d + (1 - xi_b - xi_a) * unit,
                )
                for d in d1
            ]
            _compare(
                report, hi, lo, p.q, 1, rows, cols,
                lambda i, j: {
                    "tau1": pairs1[i][0],
                    "xi1": pairs1[i][1],
                    "tau2": pairs2[j][0],
                    "xi2": pairs2[j][1],
                    "xi_mid": f"{xi_a}{xi_b}",
                },
            )
    return report


def check_basic_weight_equations(L: int, p: ModelParams) -> VerificationReport:
    """The four equations for Phi, over all sizes up to L."""
    admit("verify", L)
    return _basic_weight_equations(L, p, {})


def _basic_weight_equations(L: int, p: ModelParams, tables: dict) -> VerificationReport:
    report = VerificationReport("basic-weight-equations", f"L<={L}", p)
    phis = [
        _phi_table(ell, p, *_table(ell, p, tables)[:2]).values for ell in range(L + 1)
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
