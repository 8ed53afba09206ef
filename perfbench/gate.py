"""Answer gate: digests of canonical answers and definition-level checks.

Every check here works from the bare definitions with the benchmark's own
code (bit strings, a local Berlekamp-Massey for small inputs, explicit
correlation sums), never through seqmeter, so a fast path that returns a
wrong answer cannot also pass its own check.  Each check returns a short
problem description, or None when the answer holds.
"""

import hashlib
import json
import math


def digest(answer) -> str:
    """Short SHA-256 of the answer's canonical JSON."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bits_of(data: int, n: int) -> str:
    """'0'/'1' string of the n low bits, bit i of data at index i."""
    return format(data, f"0{n}b")[::-1] if n else ""


def parse_text(text: str) -> tuple[str, int | None]:
    """Bits and declared period from the sequence file format."""
    period = None
    body = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("period="):
            period = int(line[len("period="):])
        else:
            body.append(line)
    bits = "".join("".join(body).split())
    if set(bits) - {"0", "1"}:
        raise ValueError("non-binary characters in sequence text")
    return bits, period


def corr_sum(bits: str, u: int, shifts, period: int | None = None) -> int:
    """sum_{i<u} (-1)**(s[i+d_1] + ... + s[i+d_k]), indices mod period if given."""
    total = 0
    for i in range(u):
        parity = 0
        for d in shifts:
            j = i + d if period is None else (i + d) % period
            parity ^= bits[j] == "1"
        total += -1 if parity else 1
    return total


def small_lc(bits: str) -> int:
    """Linear complexity by Berlekamp-Massey, for the small inputs checks use."""
    c, b, l, m, rev = 1, 1, 0, -1, 0
    for i, ch in enumerate(bits):
        rev = (rev << 1) | (ch == "1")
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (i - m)
            if 2 * l <= i:
                l, m, b = i + 1 - l, i, t
    return l


def windows_consistent(bits: str, m: int) -> bool:
    """Equal length-m windows are never followed by different bits."""
    seen: dict[str, str] = {}
    for i in range(len(bits) - m):
        if seen.setdefault(bits[i:i + m], bits[i + m]) != bits[i + m]:
            return False
    return True


def _increasing(shifts) -> bool:
    return all(a < b for a, b in zip(shifts, shifts[1:])) and shifts[0] >= 0


# --- checks, one per answer kind ---------------------------------------

def check_recurrence(bits: str, value: int, coeffs: list[int]) -> str | None:
    if len(coeffs) != value:
        return f"{len(coeffs)} coefficients for complexity {value}"
    if value == 0:
        return None if "1" not in bits else "complexity 0 for a nonzero prefix"
    data = int(bits[::-1], 2)
    cmask = int("".join(map(str, reversed(coeffs))), 2)
    for i in range(len(bits) - value):
        if ((cmask & (data >> i)).bit_count() ^ (data >> (i + value))) & 1:
            return f"recurrence fails at position {i + value}"
    return None


def check_moc(bits: str, value: int) -> str | None:
    if not windows_consistent(bits, value):
        return f"windows of length {value} disagree on a successor"
    if value > 0 and windows_consistent(bits, value - 1):
        return f"windows of length {value - 1} already agree; {value} is not minimal"
    return None


def check_profile(values: list[int], final: int) -> str | None:
    if not values or values[-1] != final:
        return "profile does not end at the whole-prefix value"
    if any(a > b for a, b in zip(values, values[1:])):
        return "profile decreases"
    return None


def check_kerror(bits: str, errors: int, value: int) -> str | None:
    """Exhaustive over flip patterns with the local Berlekamp-Massey."""
    from itertools import combinations

    best = small_lc(bits)
    for w in range(1, errors + 1):
        for pos in combinations(range(len(bits)), w):
            flipped = list(bits)
            for p in pos:
                flipped[p] = "1" if flipped[p] == "0" else "0"
            best = min(best, small_lc("".join(flipped)))
    return None if best == value else f"k-error complexity {value}, definition gives {best}"


def check_aperiodic(bits: str, k: int, ans: dict) -> str | None:
    n, u, d, value = ans["n"], ans["U"], ans["D"], ans["value"]
    if n > len(bits) or len(d) != k or not _increasing(d) or u < 1 or d[-1] + u > n:
        return f"witness (U={u}, D={d}) outside the order-{k} search space at N={n}"
    got = abs(corr_sum(bits, u, d))
    return None if got == value else f"witness sums to {got}, reported {value}"


def check_periodic(bits: str, period: int, k: int, ans: dict) -> str | None:
    d, value = ans["D"], ans["value"]
    if ans["U"] != period or len(d) != k or not _increasing(d) or d[0] != 0 or d[-1] >= period:
        return f"witness D={d} outside the periodic order-{k} search space"
    got = abs(corr_sum(bits, period, d, period))
    return None if got == value else f"witness sums to {got} over one period, reported {value}"


def check_zero_fold(bits: str, period: int, shifts: list[int]) -> str | None:
    """The certificate's shifts fold to zero at every position of one period."""
    if not shifts or not _increasing(shifts) or shifts[-1] >= period:
        return f"certificate shifts {shifts} are not a shift set inside the period"
    if corr_sum(bits, period, shifts, period) != period:
        return f"shifts {shifts} do not fold to zero over one period"
    return None


def sphere_threshold(t: int, l: int) -> int | None:
    if l > t:
        return None
    total, j = 1, 0
    if total >= 1 << l:
        return 2
    while total < 1 << l:
        j += 1
        total += math.comb(t, j)
    return 2 * j + 1


def check_certificate(bits: str, period: int, dimension: int, cap: int, cert: dict) -> str | None:
    if cap != sphere_threshold(period, dimension):
        return f"cap {cap} is not the sphere-packing threshold"
    if cert is None:
        return f"no certificate within cap {cap}"
    if cert["k"] != len(cert["shifts"]) or not 1 < cert["k"] <= cap or cert["theta"] != period:
        return f"certificate {cert} out of contract"
    return check_zero_fold(bits, period, cert["shifts"])


def check_span(bits: str, period: int, ans: dict) -> str | None:
    pivots = ans["pivots"]
    basis = [int(h, 16) for h in ans["basis"]]
    if len(basis) != ans["dimension"] or len(pivots) != len(basis):
        return "basis size differs from the dimension"
    for row, p in zip(basis, pivots):
        if row & -row != 1 << p or any((other >> p) & 1 for other in basis if other != row):
            return f"pivot {p} is not reduced"
    want = small_lc(bits[:2 * period])
    if want != ans["dimension"]:
        return f"dimension {ans['dimension']} != linear complexity {want}"
    return None


def check_half_peak(bits: str, n: int, k_max: int, witness: dict | None) -> str | None:
    if witness is None:
        return "no half-peak witness"
    d, u, value = witness["D"], witness["U"], witness["value"]
    if witness["k"] != len(d) or not 2 <= len(d) <= k_max or not _increasing(d) or d[-1] + u > n:
        return f"witness {witness} out of contract"
    got = abs(corr_sum(bits, u, d))
    if got != value:
        return f"witness sums to {got}, reported {value}"
    return None if 2 * value >= n else f"value {value} is below N/2"


def check_thm4(bits: str, ans: dict) -> str | None:
    inputs = ans["inputs"]
    n, m = inputs["N"], inputs["M"]
    if check_moc(bits[:n], m):
        return f"reported M={m} fails the definition"
    if not ans["fired"] or 1 << (m + 2) > n:
        return "order-2 half-peak check did not fire"
    if 2 * ans["value"] < n:
        return f"C_2 = {ans['value']} is below N/2"
    d1, d2 = inputs["witness"]
    if not 0 <= d1 < d2 <= 1 << m or bits[d1:n - d2 + d1] != bits[d2:n]:
        return f"windows at {d1} and {d2} do not agree on their overlap"
    return None


def lc_scan(values: list[int], n: int) -> int | None:
    running = 0
    for ell, v in enumerate(values):
        running = max(running, v)
        if ell >= n - running:
            return ell
    return None


def check_kerror_bound(bits: str, k: int, flips: int, ans: dict) -> str | None:
    inputs = ans["inputs"]
    n = inputs["N"]
    corr = {int(j): v for j, v in inputs["corr"].items()}
    inflated = {int(j): v for j, v in inputs["inflated"].items()}
    if sorted(corr) != list(range(1, k + 1)):
        return "correlation map does not cover k = 1..K"
    for j in corr:
        if inflated[j] != min(corr[j] + 2 * j * flips, n - j + 1):
            return f"order-{j} inflation is not the certified ceiling"
    c1 = max(abs(corr_sum(bits, u, [d])) for d in range(n) for u in range(1, n - d + 1))
    if corr[1] != c1:
        return f"C_1 = {corr[1]}, definition gives {c1}"
    want = lc_scan([inflated[j] for j in sorted(inflated)], n)
    return None if ans["value"] == want else f"bound {ans['value']}, scan gives {want}"


def check_table1(rows: list[dict]) -> str | None:
    for row in rows:
        t = (1 << row["ell"]) - 1
        want = sphere_threshold(t, row["dimension"])
        matches = want == row["claimed"]
        if row["period"] != t or row["threshold"] != want or row["matches"] != matches:
            return f"row {row['family']} ell={row['ell']} disagrees with the threshold definition"
    return None if rows else "empty table"
