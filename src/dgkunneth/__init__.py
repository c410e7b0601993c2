"""dgkunneth: exact verification of top-degree tensor cohomology isomorphisms.

The package constructs, over Q or F_p, the isomorphism

    H^{i0}(M) (x)_{H^0(A)} H^{j0}(N)  ~  H^{i0+j0}(M (x)_A N)

for DG modules over a nonpositive DG algebra, its derived counterpart
through semi-free resolutions, and machine-checks every exact sequence and
commuting square involved.
"""

from .dgalgebra import DGAlgebra, h0_ring, validate_algebra
from .dgmodule import (
    DGModule,
    StrictMorphism,
    cohomology,
    shift,
    smart_truncate,
    validate_module,
)
from .field import Field
from .genlab import CorpusProfile, generate_corpus, noninjectivity_witness
from .kunneth import KunnethWitness, check_exact_sequences, theta
from .linalg import Matrix, QuotientSpace, kernel_basis, quotient, rank, rref, solve
from .resolve import (
    DerivedKunnethWitness,
    SemiFreeResolution,
    semifree_resolve,
    theta_der,
)
from .suite import run_suite
from .tensor import TensorComplex, balanced_tensor

__all__ = [
    "CorpusProfile",
    "DGAlgebra",
    "DGModule",
    "DerivedKunnethWitness",
    "Field",
    "KunnethWitness",
    "Matrix",
    "QuotientSpace",
    "SemiFreeResolution",
    "StrictMorphism",
    "TensorComplex",
    "balanced_tensor",
    "check_exact_sequences",
    "cohomology",
    "generate_corpus",
    "h0_ring",
    "kernel_basis",
    "noninjectivity_witness",
    "quotient",
    "rank",
    "rref",
    "run_suite",
    "semifree_resolve",
    "shift",
    "smart_truncate",
    "solve",
    "theta",
    "theta_der",
    "validate_algebra",
    "validate_module",
]
