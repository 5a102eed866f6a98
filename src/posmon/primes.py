"""Small number-theory helpers: prime generation, factoring, and the
Calkin-Wilf enumeration of the nonnegative rationals.

Everything here is deterministic and pure; results are cached where the
call pattern warrants it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt
from typing import Iterator

_SMALL_SIEVE_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def primes_below(limit: int) -> tuple[int, ...]:
    """All primes p < limit, by a plain sieve of Eratosthenes."""
    if limit <= 2:
        return ()
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i in range(limit) if flags[i])


def iter_primes() -> Iterator[int]:
    """Yield 2, 3, 5, ... indefinitely, growing the sieve as needed."""
    limit = _SMALL_SIEVE_LIMIT
    start = 0
    while True:
        ps = primes_below(limit)
        yield from ps[start:]
        start = len(ps)
        limit *= 4


@lru_cache(maxsize=None)
def first_primes(n: int) -> tuple[int, ...]:
    """The first n primes."""
    if n < 0:
        raise ValueError(f"prime count must be >= 0, got {n}")
    return tuple(islice(iter_primes(), n))


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).  At any size its "composite" is a proof; above the
# bound its "probable prime" proves nothing, and no prime is certified there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below _MR_LIMIT.  At or above it, False when
    Miller-Rabin proves n composite; otherwise ValueError, as n cannot be
    certified prime."""
    if n < _SMALL_SIEVE_LIMIT:
        # trial division, at most 255 steps: a descriptor that checks its
        # prime (``Localized``) does not build and keep the sieve
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
    if not _miller_rabin(n):
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is at least {_MR_LIMIT}: Miller-Rabin cannot certify it prime")
    return True


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of n > 41 to every base in _MR_BASES;
    exact for n < _MR_LIMIT."""
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    The sieve primes are divided out first, which settles every n below
    the square of the sieve limit.  A larger cofactor has no prime factor
    below the sieve limit: it is split by Pollard's rho until Miller-Rabin
    certifies every part.  A part at or above _MR_LIMIT that Miller-Rabin
    does not prove composite raises ValueError (see ``is_prime``); rho
    itself is unbounded on a part whose least prime factor is large.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in primes_below(_SMALL_SIEVE_LIMIT):
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # every prime factor left is past the sieve (the last sieve prime may
    # have divided n down to 1)
    if n == 1:
        return out
    stack = [n]  # divisors of n, so free of primes below the sieve limit
    while stack:
        m = stack.pop()
        if m < _SMALL_SIEVE_LIMIT**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    cycle detection and batched gcds, over x -> x^2 + c for c = 1, 2, ...
    until one splits n (deterministic)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def prime_support(n: int) -> tuple[int, ...]:
    """Sorted primes dividing n (empty for n == 1)."""
    return tuple(sorted(factorize(n)))


def calkin_wilf(count: int) -> tuple[Fraction, ...]:
    """The first `count` elements of Q>=0 in a fixed deterministic order:
    0 followed by the Calkin-Wilf sequence 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ...

    Every nonnegative rational appears exactly once.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[Fraction] = []
    if count > 0:
        out.append(Fraction(0))
    q = Fraction(1)
    while len(out) < count:
        out.append(q)
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
    return tuple(out)
