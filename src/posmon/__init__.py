"""posmon: an exact-arithmetic workbench for factorization and atomicity
in positive monoids of totally ordered abelian groups."""

__version__ = "0.1.0"

from .elements import (
    ArchClass,
    Group,
    GroupElement,
    GroupMismatch,
    Q,
    Q2,
    T,
    Z,
    Z2,
    Z2_SECOND,
    arch_valuation,
    big_o,
    compare,
    lexvec,
    parse_element,
    rational,
    to_text,
    triple,
    zero,
)
from .descriptors import (
    AlphaBeta,
    Conductive,
    FiniteGenerated,
    GeometricPuiseux,
    LexCone,
    Localized,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    NotAMember,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    UnsupportedFamily,
    almost_not_nearly_instance,
    numerical,
    quasi_not_almost_instance,
)
from .monoids import (
    GeneratorWindow,
    MembershipVerdict,
    contains,
    divides,
    generators,
    gp_membership,
    members_within,
    replay_certificate,
)
from .jsonforms import descriptor_from_json, descriptor_to_json
from .factor import (
    AtomSet,
    AtomicityWitness,
    Factorization,
    FactorizationSearch,
    LengthSet,
    ProbeResult,
    atoms,
    factorizations,
    is_atomic_element,
    length_function_check,
    length_set,
    probe_property,
)
from .classify import (
    PropertyReport,
    Verdict,
    check_chain_consistency,
    classify_conductive,
    classify_known,
    limit_point_bfm,
)
from .witness import (
    ChainCertificate,
    HereditaryBreakCertificate,
    PrimeSumCertificate,
    SubatomicWitness,
    mq_chain,
    prime_sum_refutation,
    synthesize_break,
    verify_almost_not_nearly,
    verify_certificate_json,
    verify_nearly_atomic,
    verify_not_strongly_atomic,
    verify_quasi_witness,
)
from .gallery import GalleryEntry, by_id, gallery_list, run_entry
