"""Exact two-layer ensemble computations for the open exclusion process.

The stationary measure of the asymmetric simple exclusion process on a
finite open lattice (right hop rate 1, left hop rate q, boundary strengths
A and B) is realized here as the top-layer marginal of an exactly
normalized two-layer ensemble. Everything except the stochastic simulator
runs in exact rational arithmetic, so identities are checked with equality
rather than tolerances.

The identity checkers, the sampler and the oracle are imported on first
use of one of their names, so a command loads only the modules it runs.
"""

from importlib import import_module

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

__version__ = "0.1.0"

# Public names of the modules a short request may not need, each mapped to
# its module and resolved on first use: the identity checkers, the sampler
# and the oracle, which imports numpy (most of the package's import time).
# `mu` then loads none of them.
_LAZY = {
    "VerificationReport": "recursions",
    "check_basic_weight_equations": "recursions",
    "check_bulk": "recursions",
    "check_left_boundary": "recursions",
    "check_right_boundary": "recursions",
    "SampleBatch": "sampler",
    "empirical_compare": "sampler",
    "sample_two_layer": "sampler",
    "GeneratorMatrix": "oracle",
    "Rates": "oracle",
    "build_generator": "oracle",
    "gillespie_simulate": "oracle",
    "rates_from_params": "oracle",
    "stationary_exact": "oracle",
}


# The names imported above from this package (not helpers such as
# import_module), and the lazy ones
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__)
] + list(_LAZY)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
