"""permod: membership decisions with certificates in finitely generated
order-invariant submodules of permutation modules over the rationals.
"""

from permod.decide import (
    CharacterCert,
    CyclicResult,
    Decision,
    FunctionalCert,
    SpanWitnessCert,
    VerificationError,
    cyclic_generator,
    generates_all,
    membership,
    min_support,
    pure_set_expand,
    verify_certificate,
)
from permod.oracle import (
    ExplicitWitness,
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
    omega,
    support_points,
)
from permod.ring import GF, QQ, ZZ, RingError, RingSpec
from permod.structure import ParamSet

__version__ = "0.1.0"
KERNEL_BACKEND = "pure-python"  # the one row-kernel set, in permod.linalg
