"""Low-weight dual supports from the zeros of a Gold or small-Kasami recurrence.

Columns here are x^d modulo a recurrence f, or anything with the same
dual supports: D is dual exactly when f divides sum_{d in D} x^d, that
is, when sum_{d in D} z^d = 0 for one zero z of each coset of f's zeros
(MacWilliams & Sloane, ch. 7-9).  A Gold or small-Kasami span has two
cosets, those of a primitive rho in GF(2^ell) and of rho^q with
q = 2^k + 1 up to conjugacy (Gold 1968; Kasami 1966).  With x_d = rho^d,
a support is dual iff the sums of x_d and of x_d^q over it vanish.  Fix
every element but the last two: these must satisfy y + z = s and
y^q + z^q = p, and y = s t turns that into the GF(2)-linear
t^(2^k) + t = 1 + p s^-q, with 2^(gcd(k, ell) - 1) pairs {y, z} per
head.  So a search level walks only its heads, with table lookups and
no hash table: Gold ell = 15 (T = 32767) answers in well under a
second, where the syndrome search's weight-5 table would need
gigabytes.

zeros_field checks the pattern with polynomial arithmetic, gold_zeros
builds the tables, and zeros_level is one anchored search level, called
by codes.low_weight_kernel_support in place of its syndrome level.  This
module is loaded only when a search reaches a level from weight 4, so
spans that answer at weight 3 never compile it.  GF(2)[x] polynomials
are ints, bit j the coefficient of x^j.
"""

import math
from typing import NamedTuple

from .bitseq import fold_extensions, mask


def _pmod(a: int, f: int) -> int:
    """a modulo f in GF(2)[x], bit j of each int the coefficient of x^j."""
    d = f.bit_length()
    while a.bit_length() >= d:
        a ^= f << (a.bit_length() - d)
    return a


def _psquare(a: int, f: int) -> int:
    """a^2 modulo f: squaring spreads the coefficients to the even powers."""
    return _pmod(int("0".join(bin(a)[2:]), 2), f)


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pdiv(a: int, b: int) -> int:
    """The quotient of a by b in GF(2)[x]."""
    q, d = 0, b.bit_length()
    while a.bit_length() >= d:
        shift = a.bit_length() - d
        q |= 1 << shift
        a ^= b << shift
    return q


def zeros_field(f: int, m: int, ell_max: int) -> tuple[int, int] | None:
    """(ell, g): the field GF(2^ell) of f's zeros and a degree-ell factor g of f.

    ell is the smallest degree with x^(2^ell) = x modulo f, so f divides
    x^(2^ell) - x: f is squarefree and its zeros lie in GF(2^ell).  The
    Gold pattern needs f(0) = 1, one coset of ell zeros and one more
    (ell < L <= 2 ell) and m <= 2^ell - 1 columns, so that distinct
    columns are distinct powers of a primitive zero; ell above ell_max
    is not looked for.  g comes from the first trace that splits f:
    gcd(f, Tr(x^j)) keeps the zeros z with Tr(z^j) = 0, and the two
    cosets differ in the trace of some power below L because the
    sequence Tr(z^j) + Tr(z'^j) has a recurrence of order L and is not
    zero.  None when any of this fails.
    """
    l = f.bit_length() - 1
    if not f & 1 or l > 2 * ell_max:
        return None
    a = x = 2  # x, reduced, as deg f >= 2 whenever the loop runs
    for ell in range(1, min(l, ell_max + 1)):
        a = _psquare(a, f)
        if a == x:
            break
    else:
        return None
    if not ell < l <= 2 * ell or m >= 1 << ell:
        return None
    power = 1  # x^j mod f
    for _ in range(l):
        trace, u = 0, power
        for _ in range(ell):
            trace ^= u
            u = _psquare(u, f)
        h = _pgcd(f, trace)
        if 0 < h.bit_length() - 1 < l:
            if h.bit_length() - 1 != ell:
                h = _pdiv(f, h)
            return (ell, h) if h.bit_length() - 1 == ell else None
        power = _pmod(power << 1, f)
    return None  # pragma: no cover - two cosets always split


class Zeros(NamedTuple):
    """Tables of GF(2^ell) for one Gold zero pattern over m columns.

    Column d is x_d = rho^(u d) for a primitive zero rho of f, and packs
    as vals[d] = x_d | x_d^q << ell with q = 2^k + 1.  exp and log are
    over rho, idx[y] is the column of y (m when it has none), sol[r] is
    one t with t^(2^k) + t = r (-1 when none), and reps holds one kernel
    element of each pair {c, c + 1}.
    """

    ell: int
    q: int
    exp: list
    log: list
    idx: list
    sol: list
    reps: list
    vals: list


def gold_zeros(f: int, m: int, ell: int, g: int) -> Zeros | None:
    """The zeros tables when f's zeros are the cosets of rho and rho^q, else None.

    GF(2^ell) is GF(2)[y]/(g) and rho = y, which must be primitive: its
    powers are walked once, and a return to 1 before 2^ell - 1 of them
    rejects g.  Then for q = 2^k + 1, k = 1..ell-1, in order: when
    f(rho^q) = 0 and the coset of q has L - ell elements, f is the product
    of the minimal polynomials of rho and rho^q, so a support is dual iff
    the sums of x_d and x_d^q over it vanish, with u = 1.  When instead
    f(rho^(1/q)) = 0, the same holds with u = 1/q mod 2^ell - 1 (the two
    zeros swap roles).  That is the pattern when g is the minimal
    polynomial of the q-th power of f's other zero.  zeros_field's g
    takes u = 1 on every shipped pair tried (Gold ell = 5-11 and small
    Kasami ell = 4-10, at shifts 0, 1 and 5); the tests reach the swap by
    passing the other factor, f / g, as g.
    """
    t = (1 << ell) - 1
    exp = [1] * t
    y = 1
    for i in range(1, t):
        y <<= 1
        if y >> ell:
            y ^= g
        if y == 1:
            return None
        exp[i] = y
    log = [0] * (t + 1)
    for i, y in enumerate(exp):
        log[y] = i
    terms = [r for r in range(f.bit_length()) if f >> r & 1]

    def zero_at(z: int) -> bool:
        v = 0
        for r in terms:
            v ^= exp[z * r % t]
        return v == 0

    for k in range(1, ell):
        q = (1 << k) + 1
        coset = next(c for c in range(1, ell + 1) if q * ((1 << c) - 1) % t == 0)
        if ell + coset != f.bit_length() - 1:
            continue
        if zero_at(q):
            u, v = 1, 1
        elif math.gcd(q, t) == 1 and zero_at(pow(q, -1, t)):
            u, v = pow(q, -1, t), q
        else:
            continue
        break
    else:
        return None
    idx = [m] + [log[y] * v % t for y in range(1, t + 1)]
    sol = [-1] * (t + 1)
    kernel = []
    for z in range(t + 1):
        r = z ^ exp[(log[z] << k) % t] if z else 0
        if sol[r] < 0:
            sol[r] = z
        if not r:
            kernel.append(z)
    vals = [exp[u * d % t] | exp[u * q * d % t] << ell for d in range(m)]
    return Zeros(ell, q, exp, log, idx, sol, [c for c in kernel if not c & 1], vals)


def zeros_level(z: Zeros, h: int, prefixes) -> tuple[int, ...] | None:
    """Lex-min support of weight h+2 from the heads of h elements that extend prefixes.

    A head with sums s of x and p of x^q needs a tail {y, z} with
    y + z = s and y^q + z^q = p.  Put y = s t: then z = s (t + 1), and
    y^q + z^q = s^q (t^(2^k) + t + 1), so t^(2^k) + t = 1 + p s^-q, a
    GF(2)-linear equation with one solution per kernel element.  t and
    t + 1 give the same pair, and t in {0, 1} puts 0 in it, whose idx m
    is no column.  The smallest pair above the head's last element
    completes it; heads arrive in lexicographic order, so the first
    completed one is the minimum.
    """
    ell, q, exp, log, idx, sol, reps, vals = z
    t = (1 << ell) - 1
    m = len(vals)
    low = mask(ell)
    for prefix in prefixes:
        for head, fold in fold_extensions(vals, prefix, h, prefix[-1] + 1, m - 2):
            s = fold & low
            if not s:
                continue
            p = fold >> ell
            ls = log[s]
            t0 = sol[1 ^ exp[(log[p] - q * ls) % t] if p else 1]
            if t0 < 0:
                continue
            best = None
            last = head[-1]
            for c in reps:
                y = exp[(ls + log[t0 ^ c]) % t]
                a, b = idx[y], idx[y ^ s]
                if a > b:
                    a, b = b, a
                if last < a and b < m and (best is None or (a, b) < best):
                    best = (a, b)
            if best:
                return head + best
    return None
