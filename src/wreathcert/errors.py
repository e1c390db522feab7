"""Exception types shared across the package."""


class RingMismatchError(ValueError):
    """Operands belong to cyclotomic rings with different primes."""


class SizeLimitError(RuntimeError):
    """A computation would exceed a fixed size cap.

    Raised as a resource guard by the exact orbit walk (MAX_COEFF_BITS:
    coefficient heights grow roughly like the p-th power per step), by the
    expanded iterate (MAX_POLY_COEFFS), by group_order past its bit cap
    (MAX_ORDER_BITS), and for a group order or a level's norm past Python's
    int-str digit limit.  Hitting a cap is expected for large inputs.
    """
