"""Independent routes the shipping kernels are pinned to; only tests call them.

- The Goeritz form of the two-bridge signature: the even continued fraction
  of (p, q), its tridiagonal form and the exact signature of a symmetric
  integer matrix.
- The lens lattice counts by a walk over the j-range and by a double loop
  over the whole rectangle, and the batch lens index on a Fenwick tree of
  one bit per folded value and on 256-bit words with a Fenwick tree over
  their parities.
- The torus-knot signature by a lattice count over the (p - 1)(q - 1) grid,
  and by the Gordon-Litherland-Murasugi recursion with each run of one rule
  folded into a single step.
- The torus-knot Alexander polynomial, as an {exponent: coefficient} dict,
  by exact polynomial division; it feeds ``casson_from_alexander``.
- The second derivative at 1 of a Laurent polynomial, sum_e c_e * e * (e - 1),
  which ``casson_from_alexander`` halves in closed form.
- The two-bridge rank vector and the reducible class count (|H1| - 1) / 2.
- The Seifert |H1| as |e * a_1 * ... * a_n| with the Euler number e summed
  in ``Fraction``s.
- The Smith normal form, and with it the reducible character classes with
  ``Fraction`` values read off the Smith-form dual of the H1 presentation,
  one class per inverse pair kept through a dict of seen values.
- The rotation sweep over the whole parity grid with ``Fraction`` angles;
  the shipping sweep's tuples, its ell_3 intervals expanded, and the list of
  irreducible classes they make (the shipping code only counts them).
- The sign characters of a Seifert triple by brute force over sign vectors,
  and from them the w2 twist of a link cover: the largest fiber whose twist
  is not a coboundary.  The shipping code reads both off a parity rule.
- The Casson invariant of a Brieskorn sphere from Dedekind sums.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from floerchains.arith import mod_inverse
from floerchains.complexes import ChainRanks, two_bridge_generators
from floerchains.covers import SeifertData, seifert_h1_order
from floerchains.errors import (
    EvenOrderError,
    FlatCobordismError,
    InfiniteH1Error,
    NotCoprimeError,
)
from floerchains.lens import LatticeCounts
from floerchains.seifert import _reduced_cover, _rotation_intervals


def _nearest_even_quotient(num: int, den: int) -> int:
    """Even integer c minimizing |num/den - c|; unique for the parities used here."""
    c = 2 * round(Fraction(num, 2 * den))
    if abs(num - c * den) >= abs(den):
        raise ArithmeticError(f"ambiguous even quotient for {num}/{den}")
    return c


def even_continued_fraction(p: int, q: int) -> List[int]:
    """Even-entry continued fraction of even length attached to the pair (p, q).

    Convention: the list [c1, ..., c2n] denotes the minus-form fraction

        c1 - 1/(c2 - 1/( ... - 1/c2n )),

    and it is computed for p/q* where q* is an even representative of q or
    of q^(-1) mod p in (-p, p), falling back to (q mod p) - p when both are
    odd.  Every entry is even and nonzero.  Evaluating the list recovers
    p/q* exactly, so q* = q or q* * q = 1 (mod p).
    """
    if p <= 1 or p % 2 == 0:
        raise ValueError(f"p must be odd and > 1, got {p}")
    q0 = q % p
    if q0 == 0 or math.gcd(p, q0) != 1:
        raise NotCoprimeError(f"q = {q} is not invertible mod p = {p}")
    candidates = [q0, mod_inverse(q0, p), q0 - p]
    q_even = next(v for v in candidates if v % 2 == 0)

    out: List[int] = []
    num, den = p, q_even
    while True:
        c = _nearest_even_quotient(num, den)
        out.append(c)
        r = num - c * den
        if r == 0:
            break
        num, den = -den, r
    if len(out) % 2 != 0 or any(c == 0 or c % 2 for c in out):
        raise ArithmeticError(f"even expansion of {p}/{q_even} failed: {out}")
    return out


def evaluate_minus_fraction(entries: Sequence[int]) -> Fraction:
    """Value of [c1, ..., ck] under the minus convention used above."""
    if not entries:
        raise ValueError("empty continued fraction")
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c - 1 / value
    return value


def signature(matrix: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Congruence diagonalization over the rationals (Sylvester's law of
    inertia): returns the number of positive minus the number of negative
    diagonal entries.  Zero eigenvalues contribute nothing; the matrix may
    be degenerate.  No floating point is used anywhere.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    sig = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue
                # remaining diagonal is zero; a[k][off] != 0 makes the
                # pivot 2*a[k][off] after adding row and column `off`
                for m in range(n):
                    a[k][m] += a[off][m]
                for m in range(n):
                    a[m][k] += a[m][off]
        pivot = a[k][k]
        sig += 1 if pivot > 0 else -1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for m in range(n):
                a[i][m] -= f * a[k][m]
            for m in range(n):
                a[m][i] -= f * a[m][k]
    return sig


def goeritz_signature(p: int, q: int) -> int:
    """Exact signature of the tridiagonal form of the even continued fraction."""
    entries = even_continued_fraction(p, q)
    n = len(entries)
    matrix = [[0] * n for _ in range(n)]
    for i, c in enumerate(entries):
        matrix[i][i] = c
        if i + 1 < n:
            matrix[i][i + 1] = matrix[i + 1][i] = 1
    return signature(matrix)


def naive_counts(p: int, q: int, ell: int) -> LatticeCounts:
    """Lens lattice counts by a double loop over the full rectangle."""
    k1 = ell
    k2 = (-mod_inverse(q, p) * ell) % p
    n1 = n2 = 0
    for i in range(-k1, k1 + 1):
        for j in range(-k2, k2 + 1):
            if (i + q * j) % p != 0:
                continue
            if abs(i) < k1 and abs(j) < k2:
                n1 += 1
            elif (abs(i) == k1 and abs(j) < k2) or (abs(i) < k1 and abs(j) == k2):
                n2 += 1
    return LatticeCounts(k2, n1, n2)


def walk_counts(p: int, q: int, ell: int) -> LatticeCounts:
    """Lens lattice counts by a walk over the j-range of the rectangle, O(p).

    Since k1 = ell <= (p-1)/2, each j admits at most one i with |i| <= k1
    in its congruence class, namely the symmetric representative of -q*j
    mod p.
    """
    k1 = ell
    k2 = (-mod_inverse(q, p) * ell) % p
    half = (p - 1) // 2
    n1 = n2 = 0
    for j in range(-k2, k2 + 1):
        i = (-q * j) % p
        if i > half:
            i -= p
        ai, aj = abs(i), abs(j)
        if ai < k1 and aj < k2:
            n1 += 1
        elif (ai == k1 and aj < k2) or (ai < k1 and aj == k2):
            n2 += 1
    return LatticeCounts(k2=k2, n1=n1, n2=n2)


def bit_fenwick_indices(p: int, r: int) -> List[int]:
    """``lens.indices_plus_one`` on a Fenwick tree of one bit per folded value.

    The same folded-k2 parity argument as the shipping batch, with a prefix
    parity and an update of O(log p) tree steps each per ell, where the
    shipping batch keeps the values in words and takes two popcounts.
    """
    half, r = p // 2, r % p
    tree = [0] * (half + 1)
    out = []
    k2 = 0
    for _ in range(half):
        k2 -= r
        if k2 < 0:
            k2 += p
        if k2 > half:
            m, base = p - k2, 4  # 2*1 + N2
        else:
            m, base = k2, 2
        odd = 0
        i = m - 1
        while i:
            odd ^= tree[i]
            i &= i - 1
        i = m
        while i <= half:
            tree[i] ^= 1
            i += i & -i
        out.append((base + 4 * odd) % 8)
    return out


def word_fenwick_indices(p: int, r: int) -> List[int]:
    """``lens.indices_plus_one`` on 256-bit words and a Fenwick tree over their parities.

    The folded values m seen so far are bits of 256-bit words.  The parity
    of those below m is the popcount of m's word under m's bit, plus a
    prefix parity on a Fenwick tree of word parities: one popcount and
    O(log p) tree steps per ell.
    """
    half, r = p // 2, r % p
    words = [0] * ((half >> 8) + 1)
    size = len(words)
    tree = [0] * (size + 1)  # tree[i]: parity of a run of words ending at word i - 1
    out = []
    k2 = 0
    for _ in range(half):
        k2 -= r
        if k2 < 0:
            k2 += p
        if k2 > half:
            m, base = p - k2, 4  # 2*1 + N2
        else:
            m, base = k2, 2
        w = m >> 8
        bit = 1 << (m & 255)
        word = words[w]
        odd = (word & (bit - 1)).bit_count()  # only its parity is read
        words[w] = word | bit
        i = w
        while i:
            odd ^= tree[i]
            i &= i - 1
        i = w + 1
        while i <= size:
            tree[i] ^= 1
            i += i & -i
        out.append((base + 4 * odd) % 8)
    return out


def torus_lattice_signature(p: int, q: int) -> int:
    """Signature of the right-handed torus knot on (p, q) strands, O(pq).

    Counting rule: each lattice pair (i, j) with 1 <= i < p, 1 <= j < q
    contributes -1 when (i/p + j/q) mod 2 lies in the open interval
    (1/2, 3/2), +1 when it lies outside, and 0 on the boundary.  The
    comparisons are exact integer comparisons after scaling by 4pq.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 2 or q < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({p}, {q})")
    lo, hi = p * q, 3 * p * q
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            u = (2 * (i * q + j * p)) % (4 * p * q)
            if lo < u < hi:
                total -= 1
            elif u != lo and u != hi:
                total += 1
    if total % 2:
        raise ArithmeticError(f"odd signature {total} for ({p}, {q})")
    return total


def torus_recursion_signature(p: int, q: int) -> int:
    """Signature of the right-handed torus knot on (p, q) strands, O(log) steps.

    Gordon-Litherland-Murasugi recursion (Trans. AMS 1981), for p > q:
    sigma(p, 1) = 0, sigma(p, 2) = 1 - p, and

        sigma(p, q) = sigma(p - 2q, q) - A(q)    if 2q < p,
        sigma(p, q) = -sigma(2q - p, q) - B(q)   if q < p < 2q,

    with A(q) = q^2 - 1, B(q) = q^2 - 1 for odd q and A(q) = q^2,
    B(q) = q^2 - 2 for even q; sigma is symmetric in p and q.  The loop
    keeps the answer as total + sign * sigma(p, q) and folds each run of one
    rule into a single step, so it takes O(log) steps, like Euclid's
    algorithm.  A run of the first rule is k = p // 2q steps.  The second
    rule keeps d = p - q while q drops by d and the sign flips, so a pair of
    its steps from q' lowers q by 2d and subtracts B(q') - B(q' - d) =
    d*(2q' - d) + e with e = q mod 2 - (q - d) mod 2; k = (q - 1) // 2d
    pairs fit, and the sum over them is closed.
    It reaches sizes the O(pq) lattice count cannot, and it shares no step
    with the shipping count in two floor sums.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 2 or q < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({p}, {q})")
    total, sign = 0, 1
    while True:
        if p < q:
            p, q = q, p
        if q == 1:
            return total
        if q == 2:
            return total - sign * (p - 1)
        if 2 * q < p:
            k = p // (2 * q)
            total -= sign * k * (q * q - q % 2)
            p -= 2 * q * k
            continue
        d = p - q
        k = (q - 1) // (2 * d)
        if k:
            e = q % 2 - (q - d) % 2
            total -= sign * k * (d * (2 * q - 2 * d * k + d) + e)
            q -= 2 * d * k
            p = q + d
        else:
            total -= sign * (q * q - 2 + q % 2)
            sign = -sign
            p = 2 * q - p


def _poly_mul(u: Sequence[int], v: Sequence[int]) -> List[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _cyclic(n: int) -> List[int]:
    """Coefficients of t^n - 1 in increasing degree."""
    return [-1] + [0] * (n - 1) + [1]


def _poly_div(num: Sequence[int], den: Sequence[int]) -> List[int]:
    """Exact quotient of two integer polynomials in increasing degree."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError(f"coefficient {c} is not divisible by {den[-1]}")
        f = c // den[-1]
        out[k] = f
        for i, d in enumerate(den):
            num[k + i] -= f * d
    if any(num):
        raise ArithmeticError(f"nonzero remainder {num} in exact division")
    return out


def torus_alexander(p: int, q: int) -> Dict[int, int]:
    """Symmetrized Alexander polynomial of the torus knot on (p, q).

    Computed by exact polynomial division of
    (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and centered so that the
    result is symmetric with value 1 at t = 1.  Returned as an
    {exponent: coefficient} dict of the nonzero coefficients.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 1 or q < 1:
        raise ValueError(f"parameters must be positive, got ({p}, {q})")
    if p == 1 or q == 1:
        return {0: 1}
    numerator = _poly_mul(_cyclic(p * q), _cyclic(1))
    quotient = _poly_div(_poly_div(numerator, _cyclic(p)), _cyclic(q))
    genus_shift = (p - 1) * (q - 1) // 2
    delta = {e - genus_shift: c for e, c in enumerate(quotient) if c}
    if sum(delta.values()) != 1 or any(delta.get(-e, 0) != c for e, c in delta.items()):
        raise ArithmeticError(f"torus Alexander polynomial of ({p}, {q}) is not normalized")
    return delta


def second_derivative_at_one(delta: Dict[int, int]) -> int:
    """Second derivative at t = 1 of the Laurent polynomial sum_e c_e * t**e."""
    return sum(c * e * (e - 1) for e, c in delta.items())


def two_bridge_complex(p: int, q: int) -> ChainRanks:
    """Chain ranks of the two-bridge complex; total rank p, Euler number +1."""
    ranks = two_bridge_generators(p, q).ranks()
    if ranks is None:
        raise ArithmeticError(f"two-bridge generators of ({p}, {q}) have an unknown grading")
    return ranks


def two_bridge_rank_vector(p: int, q: int) -> Tuple[int, ...]:
    """Two-bridge ranks in closed form, from p and the Goeritz signature alone.

    r_g = floor(p/4) + [(g - s) mod 4 < p mod 4] with s = (sigma + p - 1)/2
    mod 4: the p generators fill the four gradings evenly, and the p mod 4
    left over sit at consecutive gradings from s.  The identity is observed
    and checked, not derived; it shares no step with the lens-index route.
    """
    s = (goeritz_signature(p, q) + p - 1) // 2 % 4
    return tuple(p // 4 + ((g - s) % 4 < p % 4) for g in range(4))


def fraction_h1_order(s: SeifertData) -> int:
    """|H1| of the Seifert space as |e * a_1 * ... * a_n| with e = sum(b_i / a_i)."""
    total = sum((Fraction(b, a) for a, b in s.pairs), Fraction(0))
    for a, _ in s.pairs:
        total *= a
    if total.denominator != 1:
        raise ArithmeticError(f"|H1| = {total} is not an integer")
    return abs(int(total))


def enumerate_reducibles(s: SeifertData) -> int:
    """Number of nontrivial reducible SO(3) classes: (|H1| - 1) / 2."""
    order = seifert_h1_order(s)
    if order == 0:
        raise InfiniteH1Error("first homology is infinite")
    if order % 2 == 0:
        raise EvenOrderError(f"|H1| = {order} is even")
    return (order - 1) // 2


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return unimodular U, V and diagonal D with U * A * V = D.

    Diagonal entries are non-negative and satisfy the divisibility chain
    d1 | d2 | ... .  Intended for the small relation matrices of Seifert
    presentations; the algorithm is the textbook pivot-and-reduce loop.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        for k in range(n):
            a[dst][k] += f * a[src][k]
        for k in range(m):
            u[dst][k] += f * u[src][k]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, m):
            f = a[i][t] // a[t][t]
            if f:
                add_row(i, t, -f)
            if a[i][t]:
                dirty = True
        for j in range(t + 1, n):
            f = a[t][j] // a[t][t]
            if f:
                add_col(j, t, -f)
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        rem = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if rem is not None:
            add_row(t, rem[0], 1)
            continue
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1

    return u, a, v


def _h1_presentation(pairs) -> List[List[int]]:
    """Relation matrix on generators (x_1, ..., x_n, h)."""
    n = len(pairs)
    rows = []
    for i, (a, b) in enumerate(pairs):
        row = [0] * (n + 1)
        row[i] = a
        row[n] = b
        rows.append(row)
    rows.append([1] * n + [0])
    return rows


def fraction_reducible_characters(s: SeifertData) -> List[Tuple[int, ...]]:
    """Nontrivial characters of H1 into SO(2) up to inversion, with Fraction values.

    Every element of the Smith-form dual is evaluated on the generators as
    a tuple of fractions in [0, 1); a class is kept the first time neither
    it nor its inverse has been seen.  Flatness is checked on the Smith
    form: the central fiber class must vanish in H1.  The classes are
    returned sorted by their rotation numbers.
    """
    reduced, order = _reduced_cover(s)
    pairs = reduced.pairs
    if order == 0:
        raise InfiniteH1Error("first homology is infinite")
    if order % 2 == 0:
        raise EvenOrderError(f"|H1| = {order} is even")

    n = len(pairs)
    _, d, v = smith_normal_form(_h1_presentation(pairs))
    diag = [d[j][j] for j in range(n + 1)]
    if math.prod(diag) != order:
        raise ArithmeticError(f"Smith diagonal {diag} does not multiply to |H1| = {order}")
    if any(v[n][j] % diag[j] for j in range(n + 1)):
        raise FlatCobordismError(
            "central fiber class survives in H1; characters do not extend flatly"
        )

    seen: Dict[Tuple[Fraction, ...], None] = {}
    classes = []
    for combo in itertools.product(*(range(dj) for dj in diag)):
        if not any(combo):
            continue
        values = []
        for i in range(n + 1):
            val = sum(
                Fraction(v[i][j] * combo[j], diag[j]) for j in range(n + 1)
            )
            values.append(val - math.floor(val))
        values = tuple(values)
        if values[n]:
            raise ArithmeticError(f"character {combo} is nontrivial on h")
        inverse = tuple((-w) % 1 if w else Fraction(0) for w in values)
        key = min(values, inverse)
        if key in seen:
            continue
        seen[key] = None
        ells = []
        for (a, _), w in zip(pairs, values[:n]):
            scaled = w * a
            if scaled.denominator != 1:
                raise ArithmeticError(f"character value {w} is not in (1/{a})Z")
            k = int(scaled) % a
            ells.append(min(k, a - k))
        classes.append(tuple(ells))
    if len(classes) != (order - 1) // 2:
        raise ArithmeticError(f"{len(classes)} character classes for |H1| = {order}")
    return sorted(classes)


def fraction_sweep(pairs, m: int, parity_shift: Sequence[int]) -> List[Tuple[int, ...]]:
    """Rotation sweep over the whole parity grid, each tuple tested with Fractions."""
    ranges = []
    for (a, b), t in zip(pairs, parity_shift):
        want = (m * b + t) % 2
        ranges.append([ell for ell in range(1, a) if ell % 2 == want])
    out = []
    for ells in itertools.product(*ranges):
        f1, f2, f3 = (Fraction(ell, a) for ell, (a, _) in zip(ells, pairs))
        # the strict spherical triangle condition on angles pi*f1, pi*f2, pi*f3
        if abs(f1 - f2) < f3 < min(f1 + f2, 2 - f1 - f2):
            out.append(ells)
    return out


def rotation_sweep(pairs, m: int, parity_shift: Sequence[int]) -> List[Tuple[int, ...]]:
    """Every rotation-number tuple of the sweep, its ell_3 intervals expanded in order."""
    return [
        (ell1, ell2, ell3)
        for ell1, ell2, lo, hi in _rotation_intervals(pairs, m, parity_shift)
        for ell3 in range(lo, hi + 1, 2)
    ]


def enumerate_irreducibles(s: SeifertData) -> List[Tuple[int, Tuple[int, ...]]]:
    """Irreducible SU(2) classes of three exceptional fibers as a list of (m, ells).

    Central sign (-1)^m and rotation numbers, over both central signs; the
    shipping code only counts them (``seifert._irreducible_count``).
    """
    pairs = _reduced_cover(s)[0].pairs
    return [(m, ells) for m in (0, 1) for ells in rotation_sweep(pairs, m, (0, 0, 0))]


def _mod2_solutions(pairs, target: Sequence[int]) -> List[Tuple[int, ...]]:
    """Sign characters chi on (x_1, .., x_n, h) with a_i*chi_i + b_i*chi_h = t_i
    and sum chi_i = 0, all mod 2, by a search over all 2^(n+1) sign vectors."""
    n = len(pairs)
    sols = []
    for bits in itertools.product((0, 1), repeat=n + 1):
        chi_h = bits[n]
        if any(
            (a * bits[i] + b * chi_h - t) % 2
            for i, ((a, b), t) in enumerate(zip(pairs, target))
        ):
            continue
        if sum(bits[:n]) % 2:
            continue
        sols.append(bits)
    return sols


def _w2_shifts(pairs) -> Optional[Tuple[int, ...]]:
    """Relator parity shifts of the twist on the largest fiber that carries w2.

    Fibers are tried in decreasing order of multiplicity, ties by position;
    the first single twist x_i^(a_i) = -h^(-b_i) that is not the coboundary
    of a sign character wins.  None when every single twist is a coboundary.
    """
    n = len(pairs)
    for i in sorted(range(n), key=lambda i: (-pairs[i][0], i)):
        shifts = tuple(int(j == i) for j in range(n))
        if not _mod2_solutions(pairs, shifts):
            return shifts
    return None


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    return sum(
        (_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        Fraction(0),
    )


def brieskorn_casson(p: int, q: int, r: int) -> int:
    """Casson invariant of the Brieskorn sphere Sigma(p, q, r) from Dedekind sums.

    lambda = -1/8 + (1 - (pqr)^2 + (qr)^2 + (pr)^2 + (pq)^2) / (24pqr)
             - (s(qr, p) + s(pr, q) + s(pq, r)) / 2
    (Fukuhara-Matsumoto-Sakamoto; Neumann-Wahl), which shares nothing with
    the rotation sweep.
    """
    n = p * q * r
    lam = (
        Fraction(-1, 8)
        + Fraction(1 - n * n + (q * r) ** 2 + (p * r) ** 2 + (p * q) ** 2, 24 * n)
        - (dedekind_sum(q * r, p) + dedekind_sum(p * r, q) + dedekind_sum(p * q, r)) / 2
    )
    if lam.denominator != 1:
        raise ArithmeticError(f"non-integral Casson value {lam} for {(p, q, r)}")
    return int(lam)
