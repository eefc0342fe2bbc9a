"""Exact two-layer ensemble computations for the open exclusion process.

The stationary measure of the asymmetric simple exclusion process on a
finite open lattice (right hop rate 1, left hop rate q, boundary strengths
A and B) is realized here as the top-layer marginal of an exactly
normalized two-layer ensemble. Everything except the stochastic simulator
runs in exact rational arithmetic, so identities are checked with equality
rather than tolerances.
"""

from .errors import (
    AsepError,
    EnumerationCapExceeded,
    NotInConfigurationSpace,
    SingularParameter,
    SingularSystem,
)
from .rational import format_rational, parse_rational
from .qcalc import (
    BasisElement,
    QPolynomial,
    geometric_unit,
    jackson_dq,
    jackson_dq_z,
    poly_eval,
    pochhammer_polynomial,
    q_factorial,
    q_number,
    q_pochhammer,
)
from .lattice import (
    LatticePath,
    Occupation,
    composition_of,
    enumerate_occupations,
    enumerate_paths,
    is_motzkin,
    path_of,
    tau_from_path,
    xi_of,
)
from .weights import (
    ModelParams,
    partition_Z,
    path_weight,
    q_weight,
    tilde_q_weight,
    w_sigma_operator,
    w_sigma_series,
)
from .ensemble import (
    Distribution,
    PhiTable,
    duchi_distribution,
    duchi_weight,
    path_law,
    path_law_top_marginal,
    phi_table,
    stationary_mu,
    top_marginal,
    two_layer_law,
)
from .recursions import (
    VerificationReport,
    check_basic_weight_equations,
    check_bulk,
    check_left_boundary,
    check_right_boundary,
)
from .sampler import SampleBatch, empirical_compare, sample_two_layer

__version__ = "0.1.0"

# The oracle needs numpy, which costs most of the package's import time;
# its names are resolved on first use, so commands that never solve the
# generator do not load it.
_ORACLE_NAMES = frozenset(
    {
        "GeneratorMatrix",
        "Rates",
        "build_generator",
        "gillespie_simulate",
        "rates_from_params",
        "stationary_exact",
    }
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
