"""Finite fields F_{p^d} with a fixed modulus table.

Elements of F_{p^d} are coefficient vectors (c_0, ..., c_{d-1}) of residues
mod p, the coordinates with respect to the basis 1, u, ..., u^{d-1} where u is
a root of the table modulus.  Prime fields (d = 1) need no modulus and exist
for every prime p; extensions need a table entry.  The moduli are pinned data
(not searched at run time) so that element encodings, and therefore every
enumeration and report downstream, are stable across runs and machines.

`Fq` holds the field's parameters and the reduction table of u^d, ...,
u^{2d-2}; the arithmetic itself runs vectorized over numpy arrays of such
vectors (see :mod:`arczeta.counting`).
"""

from __future__ import annotations

__all__ = ["is_prime", "Fq", "IRREDUCIBLE"]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


# Modulus table: (p, d) -> (c_0, ..., c_{d-1}) for f(u) = u^d + c_{d-1}u^{d-1} + ... + c_0,
# the first irreducible in the base-p counting order of the coefficient vector.
IRREDUCIBLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1,),
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 1): (1,),
    (3, 2): (1, 0),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0),
    (3, 6): (2, 1, 0, 0, 0, 0),
    (3, 7): (2, 0, 1, 0, 0, 0, 0),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (5, 1): (1,),
    (5, 2): (2, 0),
    (5, 3): (1, 1, 0),
    (5, 4): (2, 0, 0, 0),
    (5, 5): (1, 4, 0, 0, 0),
    (5, 6): (2, 1, 0, 0, 0, 0),
    (5, 7): (1, 1, 0, 0, 0, 0, 0),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0),
    (5, 9): (3, 2, 1, 0, 0, 0, 0, 0, 0),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (5, 11): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (5, 12): (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 1): (1,),
    (7, 2): (1, 0),
    (7, 3): (2, 0, 0),
    (7, 4): (1, 1, 0, 0),
    (7, 5): (3, 1, 0, 0, 0),
    (7, 6): (2, 0, 0, 0, 0, 0),
    (7, 7): (1, 6, 0, 0, 0, 0, 0),
    (7, 8): (3, 1, 0, 0, 0, 0, 0, 0),
    (7, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 10): (3, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 11): (3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 12): (2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 1): (1,),
    (11, 2): (1, 0),
    (11, 3): (4, 1, 0),
    (11, 4): (2, 1, 0, 0),
    (11, 5): (2, 0, 0, 0, 0),
    (11, 6): (2, 1, 0, 0, 0, 0),
    (11, 7): (4, 1, 0, 0, 0, 0, 0),
    (11, 8): (4, 1, 0, 0, 0, 0, 0, 0),
    (11, 9): (5, 1, 0, 0, 0, 0, 0, 0, 0),
    (11, 10): (3, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 11): (1, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 12): (7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 1): (1,),
    (13, 2): (2, 0),
    (13, 3): (2, 0, 0),
    (13, 4): (2, 0, 0, 0),
    (13, 5): (2, 4, 0, 0, 0),
    (13, 6): (2, 0, 0, 0, 0, 0),
    (13, 7): (2, 3, 0, 0, 0, 0, 0),
    (13, 8): (2, 0, 0, 0, 0, 0, 0, 0),
    (13, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 10): (9, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (13, 11): (5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 12): (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}


class Fq:
    """F_{p^d} = F_p[u]/(modulus): p, d, q = p^d, the modulus and its reduction table."""

    def __init__(self, p: int, d: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        if d == 1:
            # F_p needs no modulus; (1,) is the table's entry for every tabulated p
            self.modulus: tuple[int, ...] = (1,)
        else:
            try:
                self.modulus = IRREDUCIBLE[(p, d)]
            except KeyError:
                raise ValueError(
                    f"no modulus tabulated for p={p}, d={d} (have p <= 13, d <= 12)"
                ) from None
        self.p = p
        self.d = d
        self.q = p**d
        # reduction[k][j]: coefficient of u^j in u^(d+k) mod modulus, k = 0..d-2
        rows = []
        prev = [(-c) % p for c in self.modulus]  # u^d
        rows.append(tuple(prev))
        for _ in range(d - 2):
            shifted = [0] + prev[:-1]
            lead = prev[-1]
            prev = [(shifted[j] - lead * self.modulus[j]) % p for j in range(d)]
            rows.append(tuple(prev))
        self.reduction: tuple[tuple[int, ...], ...] = tuple(rows)

    def __repr__(self) -> str:
        return f"Fq({self.p}, {self.d})"
