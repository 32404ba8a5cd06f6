"""Small integer-arithmetic helpers: sieve, primality, factoring, valuations.

Everything here is exact. Factoring is trial division backed by Pollard-Brent
rho, which is plenty for the discriminant sizes this package meets.
"""

import math
import random

_SMALL_PRIME_LIMIT = 1000
_small_primes = None


def primes_up_to(n):
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def _small_prime_list():
    global _small_primes
    if _small_primes is None:
        _small_primes = primes_up_to(_SMALL_PRIME_LIMIT)
    return _small_primes


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24, probabilistic beyond."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n, rng):
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n):
    """Factor |n| into a {prime: exponent} dict. factorize(0) is an error."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in _small_prime_list():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    rng = random.Random(0xE11)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def valuation(n, p):
    """Exponent of p in n (n a nonzero integer)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_square_mod(a, p):
    """True if a is a square modulo the odd prime p (0 counts as a square)."""
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


def square_divisors(factorization):
    """All d >= 1 with d^2 dividing the integer described by the factor dict."""
    out = [1]
    for p, e in factorization.items():
        half = e // 2
        out = [d * p ** k for d in out for k in range(half + 1)]
    return sorted(out)


def log_int(n):
    """Natural log of a positive integer of arbitrary size, as a float."""
    if n <= 0:
        raise ValueError("log_int needs a positive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 60
    return math.log(n >> shift) + shift * math.log(2)
