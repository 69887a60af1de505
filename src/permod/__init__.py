"""permod: membership decisions with certificates in finitely generated
order-invariant submodules of permutation modules over the rationals.
"""

from permod.decide import (
    CharacterCert,
    CyclicResult,
    Decision,
    ExplicitWitness,
    FunctionalCert,
    SpanWitnessCert,
    VerificationError,
    cyclic_generator,
    generates_all,
    membership,
    min_support,
    reduct_membership,
    verify_certificate,
)
from permod.oracle import (
    Grid,
    Instance,
    InstanceProfile,
    OracleResult,
    grid_span,
    oracle_membership,
    random_instance,
)
from permod.pmod import (
    AugVector,
    ModVector,
    act,
    is_aug_zero,
    omega,
    omega_empty,
    support_points,
)
from permod.ring import GF, QQ, ZZ, CharacterQZ, ExactMatrix, RingError, RingSpec
from permod.structure import (
    DLO,
    DenseLinearOrder,
    ParamSet,
    PatternKey,
    ReductSpec,
)

__version__ = "0.1.0"
KERNEL_BACKEND = "pure-python"  # the one row-kernel set, in permod.linalg
