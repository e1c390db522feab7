"""Multi-modular resultant norm for Z[zeta_p], independent of the package.

Elements are plain tuples of power-basis coefficients (zeta^0 ..
zeta^(p-2)).  The absolute norm equals Res(Phi_p, A) for the element's
representative polynomial A; it is computed mod a descending stream of
primes below 2^61 by a monic Euclidean remainder cascade and lifted by
CRT once the modulus exceeds twice an a-priori bound on |N|.  Nothing
here touches the Galois-orbit product under test.
"""

_PRIMES: list[int] = []  # descending primes below 2^61, filled on demand
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 2^64, so for every prime used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th prime counting down from the prime 2^61 - 1, which is i = 0."""
    while i >= len(_PRIMES):
        q = (_PRIMES[-1] if _PRIMES else (1 << 61) + 1) - 2
        while not _is_prime(q):
            q -= 2
        _PRIMES.append(q)
    return _PRIMES[i]


def resultant_mod(coeffs, p: int, q: int) -> int:
    """Res(Phi_p, A) mod q, A the representative polynomial of coeffs.

    Phi_p stays monic of full degree mod any q, so the reduction of the
    integer resultant equals the resultant of the reductions.
    """
    f = [1] * p  # Phi_p = 1 + x + ... + x^(p-1)
    g = [c % q for c in coeffs]
    res = 1
    while True:
        while g and g[-1] == 0:
            g.pop()
        n = len(f) - 1
        if not g:
            return 0 if n >= 1 else res
        if n == 0:
            return res
        m = len(g) - 1
        if m == 0:
            return res * pow(g[0], n, q) % q
        b = g[-1]
        res = res * pow(b, n, q) % q
        if (n & 1) and (m & 1):
            res = q - res if res else 0
        inv = pow(b, -1, q)
        gm = [x * inv % q for x in g]
        r = list(f)
        for i in range(n - m, -1, -1):
            c = r[i + m]
            if c:
                r[i + m] = 0
                for j in range(m):
                    r[i + j] = (r[i + j] - c * gm[j]) % q
        del r[m:]
        f, g = gm, r


def norm(coeffs, p: int) -> int:
    """Absolute norm of sum coeffs[i] * zeta_p^i, by CRT over resultants mod q."""
    size = sum(abs(c) for c in coeffs)
    bound = size ** (p - 1)  # |A(zeta^k)| <= sum |c_i| for every conjugate
    x, modulus, i = 0, 1, 0
    while modulus <= 2 * bound:
        q = _prime(i)
        r = resultant_mod(coeffs, p, q)
        # fold the new residue into x mod modulus * q
        x += modulus * ((r - x) * pow(modulus, -1, q) % q)
        modulus *= q
        i += 1
    return x - modulus if 2 * x > modulus else x
