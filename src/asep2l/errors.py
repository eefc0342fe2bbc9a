"""Exception types shared across the package."""


class AsepError(Exception):
    """Base class for all errors raised by this package."""


class SingularParameter(AsepError):
    """Rescaled weights are requested at a pole: A*B*q**k == 1 for some
    k in 2..L+1."""


class NotInConfigurationSpace(AsepError):
    """A pair (tau, xi) lies outside the Motzkin configuration space."""


class SingularSystem(AsepError):
    """The generator's nullspace is not one-dimensional (rate bug)."""


class EnumerationCapExceeded(AsepError):
    """A requested system size exceeds its limit (see lattice.admit)."""
