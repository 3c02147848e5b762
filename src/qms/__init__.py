"""Numerical checks for GNS-symmetric quantum Markov semigroups.

The package realizes, at matrix-algebra scale, the correspondence between
symmetric Markov generators, Dirichlet forms, bimodules with modular
structure, and the derivations whose squares recover the generator --
together with truncated Fock-space models of the resulting algebras.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOL, Tolerances
from .errors import QMSError
from .modular import TomitaData, WeightedAlgebra
from .numkernel import Superoperator
from .lindblad import (
    DirichletForm,
    JumpSystem,
    build_generator,
    certify,
    dirichlet_form,
    extract_alicki,
    semigroup,
)
from .bimodule import Derivation, FinBimodule, carre_du_champ
from .reconstruct import (
    GramSpace,
    build_gram_space,
    stinespring_rate,
    stinespring_route,
    uniqueness_isometry,
)
from .fock import TruncatedFock, fock_build, free_aw

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "Tolerances",
    "QMSError",
    "WeightedAlgebra",
    "TomitaData",
    "Superoperator",
    "JumpSystem",
    "DirichletForm",
    "build_generator",
    "certify",
    "dirichlet_form",
    "extract_alicki",
    "semigroup",
    "FinBimodule",
    "Derivation",
    "carre_du_champ",
    "GramSpace",
    "build_gram_space",
    "uniqueness_isometry",
    "stinespring_route",
    "stinespring_rate",
    "TruncatedFock",
    "fock_build",
    "free_aw",
]
