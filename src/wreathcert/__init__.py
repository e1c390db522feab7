"""Exact arithmetic over Z[zeta_p] with orbit congruence checks and
maximality certificates for the iterated map (z - 1)^p + 2 - zeta."""

from .certificate import (
    INDETERMINATE,
    MAXIMAL,
    SCHEMA,
    CertificateFormatError,
    LevelRecord,
    MaximalityCertificate,
    build_certificate,
    certificate_from_json,
    certificate_problems,
    certificate_to_json,
    group_order,
)
from .congruence import (
    CongruenceItem,
    CongruenceReport,
    expected_residue,
    general_congruence_check,
    norm_congruence_check,
    wieferich_check,
    wieferich_scan,
)
from .cyclotomic import (
    MAX_RING_PRIME,
    CycInt,
    one_minus_zeta,
    require_odd_prime,
    require_ring_prime,
    zeta,
)
from .dynamics import (
    MAX_COEFF_BITS,
    StructureReport,
    eisenstein_check,
    fixed_point_check,
    iterate_point,
    orbit_congruence_check,
    orbit_points,
    phi_at,
)
from .errors import RingMismatchError, SizeLimitError
from .factoring import (
    DETERMINISTIC_LIMIT,
    FactorConfig,
    is_prime,
    is_prime_certain,
)

__version__ = "0.1.0"
