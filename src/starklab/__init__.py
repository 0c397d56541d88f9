"""High-precision laboratory for the arithmetic of real quadratic fields:
pseudolattice classification, theta series with their functional equations
and geodesic averages, partial zeta continuation, Stark numbers, rational
congruence-class zeta identities, and Hecke-algebra equilibrium states."""

from .numerics import ConvergenceError, PrecisionCtx
from .quadfield import FieldCtx, QuadElem, QuadIdeal, UnitData, fundamental_unit, unit_mod_f
from .pseudolattice import (
    IntMat2,
    Pseudolattice,
    automorphism_group,
    delta,
    dual,
    endomorphism_ring,
    ideal_to_pseudolattice,
    is_isomorphic,
)
from .hecke import HeckeLattice, geodesic_period, hecke_lattice
from .theta import (
    ComplexThetaSpec,
    RMThetaSpec,
    ThetaValue,
    functional_equation_Theta,
    hecke_average_check,
    poisson_check,
    theta_complex,
    theta_rm,
)
from .stark import (
    ConditionFailed,
    RouteDisagreement,
    StarkInput,
    StarkResult,
    conjecture_check,
    partial_zeta_continued,
    partial_zeta_direct,
    ray_classes,
    ray_equivalent,
    recognize_quadratic,
    stark_number,
    validate_pair,
)
from .cyclotomic import (
    CongruenceClass,
    hurwitz_zeta,
    jones_index_member,
    stark_q,
    tl_critical,
    zeta_mn,
)
from .bc import TruncatedRep, apply_word, check_relations, kms_state, partition_function

__version__ = "0.1.0"
