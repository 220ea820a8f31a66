"""Binary relations on a finite world set, coded as bitmask integers.

A relation R on n worlds is the integer whose bit i*n + j is set exactly
when (i, j) is in R.  Composition works row-wise, so everything stays a
few machine-word operations even at n = 4 or 5.
"""

from __future__ import annotations


def pair_bit(i: int, j: int, n: int) -> int:
    return 1 << (i * n + j)


def encode(pairs, n: int) -> int:
    code = 0
    for i, j in pairs:
        code |= pair_bit(i, j, n)
    return code


def decode(code: int, n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in range(n) for j in range(n)
                     if code >> (i * n + j) & 1)


def row(code: int, i: int, n: int) -> int:
    'Successors of world i, as an n-bit mask.'
    return code >> (i * n) & ((1 << n) - 1)


def compose(a: int, b: int, n: int) -> int:
    out = 0
    for i in range(n):
        ra = row(a, i, n)
        acc = 0
        while ra:
            low = ra & -ra
            acc |= row(b, low.bit_length() - 1, n)
            ra ^= low
        out |= acc << (i * n)
    return out


def converse(a: int, n: int) -> int:
    out = 0
    for i in range(n):
        ra = row(a, i, n)
        while ra:
            low = ra & -ra
            out |= pair_bit(low.bit_length() - 1, i, n)
            ra ^= low
    return out


def diagonal(n: int) -> int:
    return encode(((i, i) for i in range(n)), n)


def full(n: int) -> int:
    return (1 << (n * n)) - 1


def support(a: int, n: int) -> int:
    'The domain of a, placed on the diagonal.'
    out = 0
    for i in range(n):
        if row(a, i, n):
            out |= pair_bit(i, i, n)
    return out
