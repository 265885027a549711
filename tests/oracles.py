"""Independent oracles used only by the test suite.

These deliberately avoid the library's partition/principality decision logic:
class numbers of relative extensions come from a relation-lattice determinant,
and small arithmetic facts are recomputed from first principles.  Over Q the
library lists Gauss's reduced forms by a coefficient scan, as `reduced_forms`
here does; its independent reference is the ideal-product pipeline
`reduced_forms_by_ideal_products`, which multiplies the prime ideals up to
the Minkowski bound as HNF lattices and Gauss-reduces each product's norm
form.  Some references are algorithms the library replaced, kept here to
compare against: `class_data_by_partition`, for one, partitions the ideals
below the Minkowski bound with the library's own principality test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt

from relclass import bounds
from relclass.errors import BoundViolated, MixedFields, NoRepresentedValueFound, SearchBudgetExceeded
from relclass.field import FElem as FieldElem
from relclass.field import (
    Field,
    PrimeIdeal,
    _felem,
    ideal_transversal,
    kronecker,
    prime_divisors,
    primes_up_to,
    sqrt_mod_p,
)
from relclass.forms import PseudoForm
from relclass.intmat import hnf_lattice, solve_exact
from relclass.numerics import Interval


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced positive definite binary forms of discriminant D < 0:
    -a < b <= a <= c, b = D mod 2, (a = c => b >= 0)."""
    assert D < 0 and D % 4 in (0, 1)
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            out.append((a, b, c))
        a += 1
    return sorted(out)


def class_number_oracle(D: int) -> int:
    return len(reduced_forms(D))


def conj_orbits_oracle(D: int) -> int:
    forms = set(reduced_forms(D))
    seen = set()
    orbits = 0
    for f in sorted(forms):
        if f in seen:
            continue
        a, b, c = f
        fb = (a, -b, c)
        if fb not in forms:
            fb = f  # boundary forms (b = a or a = c) are self-conjugate
        seen.add(f)
        seen.add(fb)
        orbits += 1
    return orbits


def gauss_reduce_binary(a, b, c):
    """Reduce a positive definite integer binary form (a, b, c); returns the
    classical reduced representative (-a < b <= a <= c, b >= 0 when a == c)."""
    while True:
        if b > a or b <= -a:
            # normalize b into (-a, a]
            r = (a - b) // (2 * a)
            b2 = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b2
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if -a < b <= a <= c and not (a == c and b < 0):
            return (a, b, c)


def _prime_ideal_b(D: int, p: int) -> int | None:
    """b for the ideal Z*p + Z*(b+sqrt D)/2 above p; None when p is inert."""
    if p == 2:
        r = D % 8
        if r == 1:
            return 1
        if r == 5:
            return None
        # D = 0 mod 4: ramified
        return 0 if D % 8 == 0 else 2
    if D % p == 0:
        return p if D % 2 else 0
    s = sqrt_mod_p(D % p, p)
    if s is None:
        return None
    b = s if (s - D) % 2 == 0 else p - s if (p - s - D) % 2 == 0 else s + p
    return b % (2 * p)


def _quadratic_ideal_product(D: int, L1: tuple[int, int, int], L2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of two integral ideals of the order of discriminant D, given as
    HNF triples (a, u, v) of the rows (a, 0), (u, v) over {1, theta} with
    theta = (D + sqrt D)/2, so theta^2 = D theta - (D^2 - D)/4."""
    s, t = D, -((D * D - D) // 4)
    a1, u1, v1 = L1
    a2, u2, v2 = L2
    rows = []
    for x1, y1 in ((a1, 0), (u1, v1)):
        for x2, y2 in ((a2, 0), (u2, v2)):
            # (x1 + y1 th)(x2 + y2 th) = x1x2 + y1y2 t + (x1y2 + x2y1 + y1y2 s) th
            rows.append([x1 * y2 + x2 * y1 + y1 * y2 * s, x1 * x2 + y1 * y2 * t])
    # HNF with the theta column first: rows [[v, u], [0, a]]
    (v, u), (_, a) = hnf_lattice(rows)
    return (a, u, v)


def _norm_form_key(D: int, L: tuple[int, int, int]) -> tuple[int, int, int]:
    """Gauss-reduced norm form of the ideal lattice: the class invariant."""
    a, u, v = L
    # N(x + y theta) = x^2 + D x y + y^2 (D^2 - D)/4 on e1 = (a, 0), e2 = (u, v)
    q = (D * D - D) // 4
    A, B, C = a * a, 2 * a * u + D * a * v, u * u + D * u * v + v * v * q
    n = a * v
    assert A % n == 0 and B % n == 0 and C % n == 0
    return gauss_reduce_binary(A // n, B // n, C // n)


def reduced_forms_by_ideal_products(D: int) -> list[tuple[int, int, int]]:
    """The reduced norm forms of the classes of the field of discriminant
    D < 0, sorted, from the ideals: every product of prime ideals of norm up
    to the Minkowski bound (2/pi) sqrt|D|, with its norm form Gauss-reduced."""
    bound = int((2.0 / math.pi) * (abs(D) ** 0.5) * (1 + 1e-12)) + 1
    prime_data = []
    for p in primes_up_to(bound):
        b = _prime_ideal_b(D, p)
        if b is None:
            continue  # inert primes only contribute principal content
        # Z*p + Z*(b + sqrt D)/2 = rows (p, 0), ((b - D)/2 mod p, 1)
        lat = (p, (b - D) // 2 % p, 1)
        conj = None if kronecker(D, p) == 0 else (p, (-b - D) // 2 % p, 1)
        prime_data.append((p, lat, conj))
    keys: set[tuple[int, int, int]] = set()

    def rec(i: int, cur: tuple[int, int, int], nm: int):
        keys.add(_norm_form_key(D, cur))
        if i == len(prime_data):
            return
        rec(i + 1, cur, nm)
        p, lat, conj = prime_data[i]
        # split primes take one-sided powers; mixed products are content
        # multiples, and a ramified prime squares to (p)
        for side in (lat, conj):
            if side is None:
                continue
            nm2, cur2 = nm, cur
            while True:
                nm2 *= p
                if nm2 > bound:
                    break
                cur2 = _quadratic_ideal_product(D, cur2, side)
                rec(i + 1, cur2, nm2)
                if conj is None:
                    break

    rec(0, (1, 0, 1), 1)
    return sorted(keys)


def fundamental_discs(limit: int) -> list[int]:
    """All fundamental discriminants D with -limit <= D < 0."""
    out = []
    for D in range(-3, -limit - 1, -1):
        if D % 4 == 1 and _squarefree(-D):
            out.append(D)
        elif D % 4 == 0:
            m = D // 4
            if (m % 4) in (2, 3) and _squarefree(-m):
                out.append(D)
    return out


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def hilbert_symbol_2adic_oracle(a: int, b: int) -> int:
    """Classical closed form of the 2-adic Hilbert symbol over Q."""

    def dec(x):
        v = 0
        while x % 2 == 0:
            x //= 2
            v += 1
        return v, x

    va, ua = dec(a)
    vb, ub = dec(b)
    eps_a = (ua - 1) // 2 % 2
    eps_b = (ub - 1) // 2 % 2
    om_a = (ua * ua - 1) // 8 % 2
    om_b = (ub * ub - 1) // 8 % 2
    e = eps_a * eps_b + va * om_b + vb * om_a
    return -1 if e % 2 else 1


# -- the dyadic Hilbert symbol by certified residue enumeration -------------------------
# The search that relclass.forms.hilbert_symbol ran at primes above 2 before its
# closed forms, kept verbatim but for the entry point's name.  It fails on
# arguments with negative valuation at a prime above a split 2: conj(g) is
# then a unit at the prime, multiplying by its square never clears the
# denominator, and the loop guard raises SearchBudgetExceeded.


def twoadic_symbol_by_enumeration(F: Field, s: FieldElem, d: FieldElem, pr: PrimeIdeal) -> int:
    """Symbol over a prime above 2 by certified residue enumeration.

    s and d are first normalized by exact squares (uniformizer powers) to
    valuation 0 or 1; solubility of z^2 = s x^2 + d y^2 is then decided
    modulo pr^(2e+1+slack) with a Hensel certificate on each witness.
    """
    g = pr.second_gen
    s = _reduce_by_square(F, s, pr, g)
    d = _reduce_by_square(F, d, pr, g)
    e = F.ideal(F.elem(2)).valuation(pr)
    m = 2 * e + 1
    for _attempt in range(3):
        res = _soluble_mod(F, pr, s, d, m)
        if res is not None:
            return 1 if res else -1
        m += 2
    raise NoRepresentedValueFound("2-adic solubility undecided after escalation")


def _reduce_by_square(F: Field, x: FieldElem, pr: PrimeIdeal, g: FieldElem) -> FieldElem:
    v = x.valuation(pr)
    k = v // 2
    for _ in range(k):
        x = x / (g * g)
    # clear denominators at p by multiplying with conjugate-uniformizer squares
    t = g.conj()
    guard = 0
    while x.den % pr.p == 0:
        x = x * t * t
        guard += 1
        if guard > 64:
            raise SearchBudgetExceeded("denominator clearing loop")
    return x


def _soluble_mod(F: Field, pr: PrimeIdeal, s: FieldElem, d: FieldElem, m: int):
    """True/False when certified; None when witnesses exist but none certifies.

    Enumerates primitive triples of z^2 = s x^2 + d y^2 modulo pr^m; a
    witness certifies solubility when m >= 2k+1 for k the minimal valuation
    among the partial derivatives (one-variable Hensel lifting), and an empty
    witness set certifies insolubility."""
    pm = pr.ideal**m
    p1 = pr.ideal
    s_int = _make_integral_mod(F, s, pr, m)
    d_int = _make_integral_mod(F, d, pr, m)
    reps = list(ideal_transversal(F, pm))
    in_p = [p1.contains(r) for r in reps]
    sq: dict = {}
    for iz, z in enumerate(reps):
        sq.setdefault(_red_key(F, z * z, pm), []).append(iz)
    sx2 = [_red_key(F, s_int * x * x, pm) for x in reps]
    dy2 = [_red_key(F, d_int * y * y, pm) for y in reps]
    sum_lookup = {}
    for ix, x in enumerate(reps):
        kx = sx2[ix]
        for iy, y in enumerate(reps):
            ky = dy2[iy]
            w = F.elem(kx[0] + ky[0], (kx[1] + ky[1]) if F.n == 2 else 0)
            key = _red_key(F, w, pm)
            if key not in sq:
                continue
            sum_lookup.setdefault(key, []).append((ix, iy))
    witness_uncertified = False
    for key, pairs in sum_lookup.items():
        for iz in sq[key]:
            for ix, iy in pairs:
                if in_p[ix] and in_p[iy] and in_p[iz]:
                    continue
                x, y, z = reps[ix], reps[iy], reps[iz]
                k = min(
                    _val_capped(F, 2 * s * x, pr, m),
                    _val_capped(F, 2 * d * y, pr, m),
                    _val_capped(F, 2 * z, pr, m),
                )
                if m >= 2 * k + 1:
                    return True
                witness_uncertified = True
    if witness_uncertified:
        return None
    return False


def _val_capped(F: Field, x: FieldElem, pr: PrimeIdeal, cap: int) -> int:
    if x.is_zero():
        return cap
    return min(cap, F.ideal(x).valuation(pr))


def _make_integral_mod(F: Field, w: FieldElem, pr: PrimeIdeal, m: int) -> FieldElem:
    """Integral representative of a pr-integral element modulo pr^m."""
    dw = w.den
    if dw == 1:
        return w
    assert dw % pr.p != 0, "denominator not coprime to p"
    num = w * F.elem(dw)
    i = pow(dw, -1, pr.p**m)
    return num * F.elem(i)


def _red_key(F: Field, x: FieldElem, modulus):
    """Canonical residue of an integral element modulo an integral ideal.

    HNF rows come pivot-ordered ([A, r], [0, C]): the first coordinate is
    reduced by the first row (which disturbs the second), then the second by
    the pivot-[0, C] row."""
    if F.n == 1:
        A = modulus.num[0][0]
        return (x.na % A,)
    aa, bb = x.na, x.nb
    r0, r1 = modulus.num[0], modulus.num[1]
    q = aa // r0[0]
    aa -= q * r0[0]
    bb -= q * r0[1]
    q = bb // r1[1]
    bb -= q * r1[1]
    return (aa, bb)


def ideal_count_oracle_quadratic(F, n: int) -> int:
    """Number of integral ideals of norm n in a quadratic field, by direct
    enumeration of multiplication-closed HNF sublattices [[a,0],[b,c]]."""
    count = 0
    c0, c1 = F.c0, F.c1
    for a in _divisors(n):
        c = n // a
        for b in range(a):
            # closure under multiplication by omega:
            # omega*(a,0) = (0,a) -> a*omega in lattice: need c | a and c | 0*...
            # rows: (a, 0), (b, c); omega*(a,0) = (0, a); omega*(b,c) = (c*c0, b + c*c1)
            if a % c != 0:
                continue
            # (0, a) = y*(b, c) + x*(a, 0): y = a/c, x*a = -b*a/c
            if (a // c) * b % a != 0:
                continue
            w1 = (c * c0, b + c * c1)
            y = w1[1]
            if y % c != 0:
                continue
            x = w1[0] - (y // c) * b
            if x % a != 0:
                continue
            count += 1
    return count


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def relation_class_number(K, budget: int = 2500, stable_window: int = 60):
    """(h_K, conjugation orbits) by relation-lattice determinant.

    Generators: one prime per split pair plus the ramified primes up to the
    Minkowski bound (inert primes extend base primes and are principal over
    an h_F = 1 base).  Relations come from factoring principal ideals (z):
    per-generator seeding with short vectors of each prime, then a global
    scan of small elements until the determinant is stable.  Conjugation is
    inversion on classes, so orbits = (h + #2-torsion)/2 with the 2-torsion
    read off the Smith form of the relation matrix.

    The scan stops once the determinant has been stable for stable_window
    relations.  The relations found span a sublattice of the full relation
    lattice, so the determinant is a multiple of h_K, and it is h_K only if
    the stop came late enough: nothing here certifies that.  Acceptance
    criterion 2 therefore also compares h_K with the corpus column, which is
    what pins the value.
    """
    assert K.F.h_F == 1
    bound = K.minkowski_bound()
    kps = kprimes_up_to(K, bound)
    gens = []
    seen_base = set()
    for kp in kps:
        if kp.rel_f == 2:
            continue
        bkey = (kp.base.p, kp.base.second_gen.a, kp.base.second_gen.b)
        if bkey in seen_base:
            continue
        seen_base.add(bkey)
        gens.append(kp)
    k = len(gens)
    if k == 0:
        return 1, 1
    conj_gens = [_conj_prime(K, g) for g in gens]
    # powers of every generator for elementwise valuations
    max_exp = 1
    nn = 2.0
    while nn < bound * bound * 4:
        nn *= 2
        max_exp += 1
    pow_tables = []
    for g in gens + conj_gens:
        powers = [K.maximal_order()]
        for _ in range(max_exp):
            powers.append(powers[-1] * g.ideal)
        pow_tables.append(powers)

    self_conj = [conj_gens[i].ideal.key() == gens[i].ideal.key() for i in range(k)]

    def elem_vec(z):
        # split pairs: the conjugate class is the inverse, subtract exponents;
        # self-conjugate (ramified) primes keep their full exponent
        vec = [0] * k
        for i in range(k):
            vi = _elem_val(z, pow_tables[i])
            vec[i] = vi if self_conj[i] else vi - _elem_val(z, pow_tables[k + i])
        return vec

    rels = []
    for i, g in enumerate(gens):
        if g.ramified:
            v = [0] * k
            v[i] = 2
            rels.append(v)
    # seeding: factor short elements of each prime and of pairwise products
    seed_ideals = [g.ideal for g in gens]
    for i in range(k):
        for j in range(i, k):
            seed_ideals.append(gens[i].ideal * gens[j].ideal)
        seed_ideals.append(gens[i].ideal * conj_gens[i].ideal)
    for idl in seed_ideals:
        found = 0
        q_bound = Fraction(4 * int(idl.norm()) + 8)
        while found < 4 and q_bound < 10**9:
            for z in kideal_short_vectors(idl, q_bound):
                nz = z.abs_norm()
                if nz <= 1 or not _norm_smooth(int(nz), gens):
                    continue
                rels.append(elem_vec(z))
                found += 1
                if found >= 8:
                    break
            q_bound *= 4
    h_cur = _lattice_h(rels, k)
    stable = 0
    count = 0
    for z in _small_k_elements(K):
        if h_cur is not None and stable >= stable_window:
            break
        count += 1
        if count > budget:
            break
        nz = z.abs_norm()
        if nz <= 1:
            continue
        if not _norm_smooth(int(nz), gens):
            continue
        rels.append(elem_vec(z))
        h = _lattice_h(rels, k)
        if h is None:
            continue
        if h == h_cur:
            stable += 1
        else:
            h_cur = h
            stable = 0
    if h_cur is None:
        raise RuntimeError("relation lattice rank deficient within budget")
    divisors = smith_normal_form(rels)
    two_torsion = 1
    for d in divisors:
        if d % 2 == 0:
            two_torsion *= 2
    orbits = (h_cur + two_torsion) // 2
    return h_cur, orbits


def _elem_val(z, powers) -> int:
    v = 0
    for kk in range(1, len(powers)):
        if powers[kk].contains(z):
            v = kk
        else:
            break
    return v


def _lattice_h(rels, k):
    h = hnf_lattice([list(r) for r in rels])
    if len(h) != k:
        return None
    return lattice_index(h)


# The determinant and the elementary divisors of a relation lattice.
def lattice_index(basis: list[list[int]]) -> int:
    """Determinant (covolume) of a full-rank square HNF basis."""
    det = 1
    for i in range(len(basis)):
        det *= basis[i][i]
    return abs(det)


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Elementary divisors of an integer matrix."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    divisors = []
    top = 0
    while top < min(nr, nc):
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        m[top], m[i0] = m[i0], m[top]
        for r in m:
            r[top], r[j0] = r[j0], r[top]
        done = True
        for i in range(top + 1, nr):
            q = m[i][top] // m[top][top]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            if m[i][top] != 0:
                done = False
        if done:
            for j in range(top + 1, nc):
                q = m[top][j] // m[top][top]
                if q:
                    for r in m:
                        r[j] -= q * r[top]
                if m[top][j] != 0:
                    done = False
        if not done:
            continue
        d = abs(m[top][top])
        bad = None
        for i in range(top + 1, nr):
            if any(m[i][j] % d for j in range(top + 1, nc)):
                bad = i
                break
        if bad is not None:
            m[top] = [a + b for a, b in zip(m[top], m[bad])]
            continue
        divisors.append(d)
        top += 1
    return divisors


def _conj_prime(K, kp):
    conj = kp.ideal.conj()
    for other in K.primes_above(kp.base):
        if other.ideal.num == conj.num and other.ideal.den == conj.den:
            return other
    return kp


def _norm_smooth(n: int, gens) -> bool:
    ps = sorted({g.base.p for g in gens})
    for p in ps:
        while n % p == 0:
            n //= p
    return n == 1


def _small_k_elements(K):
    """Deterministic scan of integral elements of K by box size."""
    deg = K.deg
    box = 1
    while True:
        for coords in _box_iter(deg, box):
            z = None
            for c, b in zip(coords, K.order_basis):
                if c:
                    t = b.scale(c)
                    z = t if z is None else z + t
            if z is not None:
                yield z
        box += 1


def _box_iter(dim, box):
    if dim == 0:
        yield ()
        return
    for rest in _box_iter(dim - 1, box):
        for x in range(-box, box + 1):
            coords = (x,) + rest
            if max(abs(v) for v in coords) == box:
                yield coords


def cholesky_rational(gram: list[list[Fraction]]):
    """LDL^T decomposition; returns (diag d, unit lower-triangular mu)."""
    n = len(gram)
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        mu[i][i] = Fraction(1)
        s = gram[i][i]
        for k in range(i):
            s -= d[k] * mu[i][k] * mu[i][k]
        d[i] = s
        if s <= 0:
            raise ValueError("Gram matrix not positive definite")
        for j in range(i + 1, n):
            t = gram[j][i]
            for k in range(i):
                t -= d[k] * mu[j][k] * mu[i][k]
            mu[j][i] = t / d[i]
    return d, mu


def short_vectors(reduced, bound) -> list[tuple[int, ...]]:
    """Reference short-vector enumeration: the Fraction implementation that
    relclass.lattice used before its integer one.  Interval tests on the
    quadratic form are exact rational; a padded float square root seeds each
    integer range."""
    G, U = reduced
    n = len(G)
    B = Fraction(bound)
    d, mu = cholesky_rational(G)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        c = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                c += mu[j][i] * x[j]
        rad = remaining / d[i]
        r = (math.sqrt(float(rad)) if rad > 0 else 0.0) + 1e-9
        lo = math.ceil(float(-c) - r) - 1
        hi = math.floor(float(-c) + r) + 1
        for xi in range(lo, hi + 1):
            t = d[i] * (xi + c) * (xi + c)
            if t <= remaining:
                x[i] = xi
                rec(i - 1, remaining - t)
        x[i] = 0

    rec(n - 1, B)
    canon = []
    seen = set()
    for v in out:
        # map back to the original basis
        w = tuple(sum(v[i] * U[i][j] for i in range(n)) for j in range(n))
        neg = tuple(-a for a in w)
        key = max(w, neg)
        if key not in seen:
            seen.add(key)
            canon.append(key)
    canon.sort()
    return canon


def lll_reduce_gram(gram, delta=Fraction(99, 100)):
    """Reference LLL: the Fraction implementation that relclass.lattice used
    before its integral one, kept verbatim.  It rebuilds the Gram matrix and
    its LDL^T data after every size-reduction step and every swap."""
    n = len(gram)
    G0 = [[Fraction(x) for x in row] for row in gram]
    U = [[1 if j == i else 0 for j in range(n)] for i in range(n)]

    def current_gram():
        out = []
        for i in range(n):
            tmp = [sum(U[i][a] * G0[a][b] for a in range(n)) for b in range(n)]
            out.append([sum(tmp[b] * U[j][b] for b in range(n)) for j in range(n)])
        return out

    G = current_gram()
    d, mu = cholesky_rational(G)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:  # pragma: no cover - LLL always terminates
            raise RuntimeError("LLL guard tripped")
        for j in range(k - 1, -1, -1):
            q = _nearest_int(mu[k][j])
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                G = current_gram()
                d, mu = cholesky_rational(G)
        if d[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * d[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            G = current_gram()
            d, mu = cholesky_rational(G)
            k = max(k - 1, 1)
    return G, U


def _nearest_int(x: Fraction) -> int:
    return int((2 * x + 1) // 2) if x >= 0 else -int((2 * (-x) + 1) // 2)


class FElem:
    """Reference element a + b*omega of a base field: the Fraction
    implementation that relclass.field used before its integer one, kept
    verbatim except that square_root builds reference elements."""

    __slots__ = ("F", "a", "b")

    def __init__(self, F: Field, a: Fraction, b: Fraction):
        self.F = F
        self.a = a
        self.b = b

    def _coerce(self, other) -> "FElem":
        if not isinstance(other, FElem):
            return FElem(self.F, Fraction(other), Fraction(0))
        if other.F != self.F:
            raise MixedFields(f"{self.F} vs {other.F}")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return FElem(self.F, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FElem(self.F, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        F = self.F
        a = self.a * o.a + self.b * o.b * F.c0
        b = self.a * o.b + self.b * o.a + self.b * o.b * F.c1
        return FElem(F, a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        c = o.conj()
        den = (o * c).a  # rational: product of the conjugates
        if den == 0:
            raise ZeroDivisionError
        num = self * c
        return FElem(self.F, num.a / den, num.b / den)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if other is None:
            return False
        if not isinstance(other, FElem):
            try:
                other = FElem(self.F, Fraction(other), Fraction(0))
            except (TypeError, ValueError):
                return NotImplemented
        return self.F == other.F and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.F, self.a, self.b))

    def __repr__(self):
        if self.F.n == 1 or self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}w)"

    def conj(self) -> "FElem":
        return FElem(self.F, self.a + self.b * self.F.c1, -self.b)

    def trace(self) -> Fraction:
        if self.F.n == 1:
            return self.a
        return 2 * self.a + self.b * self.F.c1

    def norm(self) -> Fraction:
        if self.F.n == 1:
            return self.a
        return self.a * self.a + self.F.c1 * self.a * self.b - self.F.c0 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    # sqrt(m)-coordinates: x = (u + v*sqrt m)/2
    def _uv(self) -> tuple[Fraction, Fraction]:
        if self.F.c1 == 0:
            return (2 * self.a, 2 * self.b)
        return (2 * self.a + self.b, self.b)

    def embedding_sign(self, i: int) -> int:
        """Exact sign of the i-th real embedding (index 0 sends sqrt m -> +)."""
        if self.F.n == 1:
            return (self.a > 0) - (self.a < 0)
        u, v = self._uv()
        if i == 1:
            v = -v
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        lhs, rhs = u * u, self.F.m * v * v
        if u > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    def is_totally_positive(self) -> bool:
        return all(self.embedding_sign(i) > 0 for i in range(self.F.n))

    def is_totally_negative(self) -> bool:
        return all(self.embedding_sign(i) < 0 for i in range(self.F.n))

    def embed(self, i: int) -> float:
        if self.F.n == 1:
            return float(self.a)
        return float(self.a) + float(self.b) * self.F.omega_embeddings[i]

    def is_square(self) -> bool:
        return self.square_root() is not None

    def square_root(self) -> "FElem | None":
        """Exact square root in the field, if one exists."""
        F = self.F
        if self.is_zero():
            return FElem(F, Fraction(0), Fraction(0))
        if F.n == 1:
            r = _rat_sqrt(self.a)
            return None if r is None else _ref_elem(F, r)
        # (p + q w)^2 = p^2 + q^2 c0 + (2pq + q^2 c1) w
        a, b = self.a, self.b
        if b == 0:
            r = _rat_sqrt(a)
            if r is not None:
                return _ref_elem(F, r)
            # may be sqrt of a rational times sqrt m: (q w')^2 with w' = sqrt m
            r2 = _rat_sqrt(a / F.m)
            if r2 is not None:
                return _ref_elem(F, 0, r2) if F.c1 == 0 else _ref_elem(F, -r2, 2 * r2)
            return None
        # q != 0: from 2pq + q^2 c1 = b and p^2 + q^2 c0 = a
        # substitute p = (b - q^2 c1)/(2 q): quartic in q; solve via norm: N(x) = (p^2+q^2c0)^2 - ...
        nrm = self.norm()
        rn = _rat_sqrt(nrm) if nrm >= 0 else None
        if rn is None:
            return None
        for sign in (rn, -rn):
            # p^2 + c1 p q - c0 q^2 = sign and candidate trace relation
            tr = self.trace()
            # x = y^2 => trace(x) = trace(y)^2 - 2*sign(N(y)) ... solve t^2 = tr + 2*sign
            t2 = tr + 2 * sign
            if t2 < 0:
                continue
            t = _rat_sqrt(t2)
            if t is None:
                continue
            for tt in {t, -t}:
                if tt == 0:
                    continue
                # y has trace tt and norm sign: y = (tt +- sqrt(tt^2-4 sign))/2 as element
                # solve y from linear system: y + conj(y) = tt, y*conj(y) = sign
                # y = a' + b' w with 2a' + b' c1 = tt and norm = sign
                # b' from: y - conj(y) = b'(2w - c1) = +-sqrt(d) ... use direct: y^2 = self
                # parametrize b' via y^2 relation: (y^2).b = b => 2 a' b' + b'^2 c1 = b
                # with a' = (tt - b' c1)/2: b'(tt - b' c1) + b'^2 c1 = b => b' tt = b
                if tt == 0:
                    continue
                bprime = self.b / tt
                aprime = (tt - bprime * F.c1) / 2
                y = _ref_elem(F, aprime, bprime)
                if y * y == self:
                    return y
        return None


def _rat_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _ref_elem(F, a, b=0) -> FElem:
    return FElem(F, Fraction(a), Fraction(b))


# -- box counting ---------------------------------------------------------------------
# The point-by-point counter that relclass.bounds used before its line-by-line
# one, kept verbatim but for the clamp of an empty box over Q to 0: it scans a
# padded (2*rmax+1)^2 square of coefficients and tests every point with four
# exact embedding signs.


def count_box(F: Field, idl: FIdeal, x0: tuple, c: tuple) -> int:
    """Exact number of lattice points of the ideal in the box
    |sigma_j(x) - x0_j| <= c_j; all comparisons are exact."""
    x0 = tuple(Fraction(v) for v in x0)
    c = tuple(Fraction(v) for v in c)
    if F.n == 1:
        g = Fraction(idl.num[0][0], idl.den)
        lo = (x0[0] - c[0]) / g
        hi = (x0[0] + c[0]) / g
        return max(0, math.floor(hi) - math.ceil(lo) + 1)
    b0, b1 = idl.basis_elems()
    # float ranges with margin, exact membership filter
    e = [[b.embed(i) for i in range(2)] for b in (b0, b1)]
    det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
    lim0 = float(c[0]) + abs(float(x0[0]))
    lim1 = float(c[1]) + abs(float(x0[1]))
    rmax = (
        int((abs(e[0][0]) + abs(e[0][1])) * (lim0 + lim1) / abs(det))
        + int((abs(e[1][0]) + abs(e[1][1])) * (lim0 + lim1) / abs(det))
        + 3
    )
    count = 0
    for r in range(-rmax, rmax + 1):
        for s in range(-rmax, rmax + 1):
            x = b0 * F.elem(r) + b1 * F.elem(s)
            if _in_box_exact(F, x, x0, c):
                count += 1
    return count


def _in_box_exact(F: Field, x, x0, c) -> bool:
    for i in range(F.n):
        hi = x - F.elem(x0[i] + c[i])
        lo = x - F.elem(x0[i] - c[i])
        if hi.embedding_sign(i) > 0 or lo.embedding_sign(i) < 0:
            return False
    return True


# The covering-bound check that relclass.bounds ran before it compared on
# integers, kept verbatim: prod(c) and N(a) enter as outward-rounded intervals,
# and the count must lie below the lower end of fac1 * prod(c) / N(a).  The
# count is the library's count_box, which the point scan above checks.


def box_bound_check_by_intervals(F: Field, consts, idl, x0: tuple, c: tuple) -> dict:
    """Exact count against the certified covering bound."""
    c = tuple(Fraction(v) for v in c)
    prod_c = math.prod(c)
    nm = idl.norm()
    pre_ok = prod_c >= Fraction(consts.T0.hi) * nm
    count = bounds.count_box(F, idl, x0, c)
    bound = consts.fac1 * Interval(prod_c) / Interval(Fraction(nm))
    ok = count <= bound.lo
    if pre_ok and not ok:
        raise BoundViolated(f"count {count} exceeds certified bound {bound}")
    return {"count": count, "bound": bound.lo, "precondition": pre_ok, "ok": ok or not pre_ok}


# -- ideals of the base field ---------------------------------------------------------
# The FIdeal that relclass.field used before one lattice ideal type served both
# F and K, kept verbatim with the helpers it called, but for the three lines
# marked "oracle" (this module's FElem is the Fraction one; the unit ideal and
# the prime's ideal are built as oracle ideals), and without principal_gen,
# which the library keeps unchanged.  It multiplies
# generators by {1, omega} as elements and takes the HNF of all the products.


def integer_rows(xs: list[FElem]) -> tuple[list[list[int]], int]:
    """(rows, D): the coordinates of each x over {1, omega} as an integer
    row over one common denominator D (one column when n = 1)."""
    den = math.lcm(*(x.den for x in xs))
    if xs and xs[0].F.n == 1:
        return [[x.na * (den // x.den)] for x in xs], den
    return [[x.na * (den // x.den), x.nb * (den // x.den)] for x in xs], den


def echelon_contains(rows: list[list[int]], target: list[int]) -> bool:
    """Whether target lies in the lattice spanned by echelon rows (for
    instance an HNF basis), by back-substitution."""
    n = len(target)
    t = list(target)
    piv = {}
    for r in rows:
        c = next(k for k in range(n) if r[k] != 0)
        piv[c] = r
    for c in range(n):
        if t[c] == 0:
            continue
        r = piv.get(c)
        if r is None or t[c] % r[c] != 0:
            return False
        q = t[c] // r[c]
        for k in range(c, n):
            t[k] -= q * r[k]
    return all(v == 0 for v in t)


class FIdeal:
    """Fractional ideal as a scaled integer HNF lattice over {1, omega}.

    The ideal equals (rows of num)/den; canonical after gcd reduction, so
    equality and hashing are structural.  Integral iff den == 1.
    """

    __slots__ = ("F", "num", "den", "_norm")

    def __init__(self, F: Field, num: list[list[int]], den: int):
        g = den
        for r in num:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
        self.F = F
        self.num = num
        self.den = den
        self._norm = None

    @staticmethod
    def from_generators(F: Field, gens: list[FElem]) -> "FIdeal":
        mults = F.maximal_order_basis()
        rows, den = integer_rows([g * mul for g in gens for mul in mults])
        h = hnf_lattice(rows)
        if len(h) != F.n:
            raise ZeroDivisionError("zero ideal")
        return FIdeal(F, h, den)

    def basis_elems(self) -> list[FElem]:
        if self.F.n == 1:
            return [_felem(self.F, self.num[0][0], 0, self.den)]
        return [_felem(self.F, r[0], r[1], self.den) for r in self.num]

    def norm(self) -> Fraction:
        if self._norm is None:
            det = 1
            for i in range(len(self.num)):
                det *= self.num[i][i]
            self._norm = Fraction(abs(det), self.den ** self.F.n)
        return self._norm

    def conj(self) -> "FIdeal":
        return FIdeal.from_generators(self.F, [e.conj() for e in self.basis_elems()])

    def __mul__(self, other):
        if isinstance(other, FieldElem):  # oracle: the library's element type
            other = FIdeal.from_generators(self.F, [other])
        gens = [x * y for x in self.basis_elems() for y in other.basis_elems()]
        return FIdeal.from_generators(self.F, gens)

    def inverse(self) -> "FIdeal":
        if self.F.n == 1:
            return FIdeal.from_generators(self.F, [self.F.elem(1 / self.norm())])
        inv_n = self.F.elem(1 / self.norm())
        return FIdeal.from_generators(self.F, [e.conj() * inv_n for e in self.basis_elems()])

    def __pow__(self, k: int) -> "FIdeal":
        if k < 0:
            return self.inverse() ** (-k)
        out = FIdeal.from_generators(self.F, [self.F.one()])  # oracle: not the library's
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def contains(self, x: FElem) -> bool:
        va, vb = x.na * self.den, x.nb * self.den
        if va % x.den or vb % x.den:
            return False
        if self.F.n == 1:
            return va // x.den % self.num[0][0] == 0
        return echelon_contains(self.num, [va // x.den, vb // x.den])

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        return (
            isinstance(other, FIdeal)
            and self.F == other.F
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.F, self.den, tuple(tuple(r) for r in self.num)))

    def __repr__(self):
        return f"FIdeal({self.num}/{self.den}, norm={self.norm()})"

    def valuation(self, prime: "PrimeIdeal") -> int:
        """Exact valuation at a prime of the base field."""
        num_ideal = FIdeal(self.F, [list(r) for r in self.num], 1)
        v = 0
        cur = num_ideal
        pinv = FIdeal.from_generators(self.F, prime.ideal.basis_elems()).inverse()  # oracle
        while True:
            nxt = cur * pinv
            if not nxt.is_integral():
                break
            cur = nxt
            v += 1
        vp_den = 0
        d = self.den
        while d % prime.p == 0:
            d //= prime.p
            vp_den += 1
        return v - prime.e * vp_den


# -- integral solves ------------------------------------------------------------------
# The Fraction Gauss-Jordan route that relclass.intmat.zspan_solve took before
# its echelon back-substitution, kept verbatim.


def solve_integral(basis: list[list[int]], target: list[int]):
    """Express `target` as an integer combination of basis rows; None if outside."""
    cols = len(target)
    mat = [[Fraction(basis[i][j]) for i in range(len(basis))] for j in range(cols)]
    sol = solve_exact(mat, [Fraction(t) for t in target])
    if sol is None:
        return None
    if any(s.denominator != 1 for s in sol):
        return None
    return [int(s) for s in sol]


# -- G3 quadrature -------------------------------------------------------------------
# relclass.bounds._g3_quadrature before it took Gamma in double precision and
# evaluated each node once: Gamma at 128 bits, every node evaluated as often as
# the Simpson segments and the stop test ask for it.


def g3_quadrature(table, prime_cap: int, eta: float, panels: int = 64) -> float:
    import cmath

    import mpmath

    from relclass.cascade import _simpson, _square_level_primes
    from relclass.field import primes_up_to

    F = table.F
    n = F.n
    level_norm = int(table.level.norm())
    sq_primes = _square_level_primes(table)
    pref = max(
        level_norm * F.d_F**2 / (2 * math.pi) ** (2 * n),
        F.d_F ** 1.5 / ((2 * math.pi) ** (1.5 * n) * level_norm ** (0.75 * n)),
    )
    for q in sq_primes:
        pref *= math.sqrt(q) / (q**0.25 - 1) ** 2

    primes_data = []
    for p in primes_up_to(min(prime_cap, 150)):
        for pr in F.splitting(p).primes:
            v = table.level_val(pr)
            primes_data.append(
                (math.log(pr.norm()), v, 0 if v else table.lam(pr))
            )

    def L_sym_over_zeta_fa(w: complex) -> complex:
        out = complex(1.0)
        for lq, v, lam in primes_data:
            t = cmath.exp(-w * lq)
            if v >= 2:
                out *= 1 - t  # only the zeta factor survives
                continue
            if v == 1:
                out *= (1 - t) / (1 - t * math.exp(-lq))
                continue
            u = cmath.exp(-(w + 1) / 2 * lq)
            out *= 1.0 / ((1 - lam * u + t) * (1 + lam * u + t))
        return out

    def integrand(s: complex) -> float:
        with mpmath.workprec(128):  # oracle: the precision the CLI ran at
            g = complex(mpmath.gamma(s + 0.5)) ** (2 * n)
        Ls = L_sym_over_zeta_fa(2 * s)
        return abs(g * Ls / (s - 0.5) ** 3)

    eta_p = eta
    # path pieces: two horizontals, one left vertical, two infinite verticals
    total = 0.0
    # horizontal segments at +- i eta'
    for sgn in (1, -1):
        total += _simpson(lambda x: integrand(complex(x, sgn * eta_p)), 0.5 - eta, 0.5, panels)
    # left vertical segment
    total += _simpson(lambda y: integrand(complex(0.5 - eta, y)), -eta_p, eta_p, panels)
    # infinite verticals at Re = 1/2, |Im| >= eta'
    y = eta_p
    step = 0.05
    while True:
        seg = _simpson(lambda t: integrand(complex(0.5, t)), y, y + step, 8)
        total += 2 * seg  # symmetric in the sign of the imaginary part
        y += step
        if y > 60 or integrand(complex(0.5, y)) < 1e-14:
            break
    return pref * total / (2 * math.pi)


# -- the class-group layer over Fractions and elements --------------------------------
#
# The KIdeal primitives as relclass.cm computed them before they moved onto
# integer order rows: Fraction Gram matrices through the Fraction LLL and
# enumeration above, relative norms from products of elements, products of
# ideals from all n^2 pairs of basis rows, and class representatives through
# the inverse of an ideal of K.


def kideal_basis_elems(idl):
    """The basis rows of a KIdeal as elements: sums of order-basis elements
    scaled by Fractions."""
    K = idl.K
    out = []
    for r in idl.num:
        z = K.zero()
        for c, b in zip(r, K.order_basis):
            if c:
                z = z + b.scale(Fraction(c, idl.den))
        out.append(z)
    return out


def kideal_gram(idl) -> list[list[Fraction]]:
    """The Fraction Gram matrix of Tr(z conj w) on the basis of a KIdeal."""
    bs = kideal_basis_elems(idl)
    return [[(z * w.conj()).rel_trace().trace() for w in bs] for z in bs]


def kideal_product(a, b):
    """a * b from the n^2 products of basis rows."""
    from relclass.field import _row_mul

    mt = a.K._mt
    return type(a).from_rows(a.K, [_row_mul(mt, r, s) for r in a.num for s in b.num], a.den * b.den)


def kideal_rel_norm(idl):
    """N_{K/F}(idl), generated by the N(z_i) and Tr(z_i conj z_j) computed
    as products of elements."""
    from relclass.field import FIdeal

    bs = kideal_basis_elems(idl)
    gens = [z.rel_norm() for z in bs]
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            gens.append((bs[i] * bs[j].conj()).rel_trace())
    return FIdeal.from_generators(idl.K.F, gens)


def kideal_inverse(idl):
    """conj(idl) * N(idl)^-1 o_K, with the extension built from elements."""
    from relclass.field import LatticeIdeal

    K = idl.K
    ext = type(idl).from_generators(
        K, [K.elem(e) for e in kideal_rel_norm(idl).inverse().basis_elems()]
    )
    return kideal_product(LatticeIdeal.conj(idl), ext)


def scaled_gram(gram: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, D * gram) with D the lcm of the denominators of a rational Gram
    matrix: the integer pair that relclass.lattice takes."""
    D = math.lcm(*(Fraction(x).denominator for row in gram for x in row))
    return D, [[int(x * D) for x in row] for row in gram]


def kideal_short_vectors(idl, q_bound) -> list:
    """The nonzero z with Tr(z conj z) <= q_bound, one of each +-pair, from
    the Gram matrix of elements.  The reduction and the enumeration are
    relclass.lattice's on the scaled matrix: test_lattice checks them
    against the Fraction references above, which would make the closure
    below too slow to run on every corpus field."""
    from relclass.lattice import lll_reduce_gram as integer_lll
    from relclass.lattice import short_vectors as integer_short_vectors

    bs = kideal_basis_elems(idl)
    out = []
    for v in integer_short_vectors(integer_lll(scaled_gram(kideal_gram(idl))), q_bound):
        z = idl.K.zero()
        for c, b in zip(v, bs):
            if c:
                z = z + b.scale(c)
        out.append(z)
    return out


def kideal_principal_gen(idl):
    """A generator among the short vectors of the unit window, as a float
    padded by 1 + 1e-9 bounds it, or None."""
    K = idl.K
    t = idl.norm()
    if K.F.n == 1:
        window = 2 * t
    else:
        e1 = K.F.eps.embed(0)
        bf = 2.0 * math.sqrt(float(t)) * (e1 + 1.0 / e1) * (1 + 1e-9)
        window = Fraction(math.ceil(bf * 2**20), 2**20)
    return next((z for z in kideal_short_vectors(idl, window) if z.abs_norm() == t), None)


def kideal_small_class_rep(idl):
    """(q^-1 z)^conj for the short z of least norm in q = den * idl, through
    the inverse of q."""
    from relclass.field import LatticeIdeal

    q = idl.scale(idl.den)
    n = idl.K.F.n
    base = float(2 * q.norm() ** Fraction(1, n))
    bound = Fraction(math.ceil(base * n * 1.2 * 2**10), 2**10)
    vecs = []
    while not vecs:
        vecs = kideal_short_vectors(q, bound)
        bound *= 2
    z = min(vecs, key=lambda w: w.abs_norm())
    red = LatticeIdeal.conj(kideal_product(kideal_inverse(q), type(q).from_generators(q.K, [z])))
    return red.scale(red.den)


def class_reps_by_closure(K) -> list:
    """The class representatives of the subgroup closure over the prime
    generators (h_F = 1), every step on the primitives above."""
    from relclass.field import LatticeIdeal

    def same_class(a, b):
        q = kideal_product(a, LatticeIdeal.conj(b))
        return kideal_principal_gen(q.scale(q.den)) is not None

    gens, seen_base = [], set()
    for kp in kprimes_up_to(K, K.minkowski_bound()):
        bkey = (kp.base.p, kp.base.second_gen)
        if kp.rel_f == 1 and bkey not in seen_base:
            seen_base.add(bkey)
            gens.append(kp)
    mo = K.maximal_order()
    elements = [mo]
    for g in gens:
        cur, powers = mo, []
        while True:
            cur = kideal_small_class_rep(kideal_product(cur, g.ideal))
            if any(same_class(cur, rep) for rep in elements):
                break
            powers.append(cur)
        elements = elements + [
            kideal_small_class_rep(kideal_product(pw, rep)) for pw in powers for rep in elements
        ]
    return elements


def kprimes_up_to(K, bound: float) -> list:
    """The primes of K of norm <= bound, built by CMField.primes_above and
    sorted by (norm, p, second generator of the base prime, HNF key)."""
    out = [kp for pr in K.F.primes_of_norm_up_to(bound) for kp in K.primes_above(pr) if kp.norm() <= bound]
    out.sort(key=lambda kp: (kp.norm(), kp.base.p, str(kp.base.second_gen), kp.ideal.key()))
    return out


def integral_ideals_up_to(K, bound: float) -> list:
    """All integral ideals of K of norm in [1, bound] (prime products),
    sorted by norm and key."""
    from relclass.field import prime_products

    uniq = {}
    for idl, _ in prime_products(K.maximal_order(), kprimes_up_to(K, bound), bound):
        uniq.setdefault(idl.key(), idl)
    return sorted(uniq.values(), key=lambda i: (i.norm(), i.key()))


def class_data_by_partition(K):
    """ClassData of K by the pairwise partition: every integral ideal below
    the Minkowski bound is tested against every representative found so far,
    each conjugate against every representative, and the image of Cl(F) is
    closed under products with the extensions of F's class representatives."""
    from relclass.cm import ClassData

    reps: list = []
    for idl in integral_ideals_up_to(K, K.minkowski_bound()):
        if not any(idl.in_same_class(r) for r in reps):
            reps.append(idl)

    def index(a):
        return next(ri for ri, r in enumerate(reps) if a.in_same_class(r))

    conj_pairs = [index(r.conj()) for r in reps]
    base_images = [index(K.extend_ideal(a)) for a in K.F.class_reps[1:]]
    image = {0}
    changed = True
    while changed:
        changed = False
        for bi in base_images:
            for i in list(image):
                kk = index(reps[i] * reps[bi])
                if kk not in image:
                    image.add(kk)
                    changed = True
    assert len(reps) % len(image) == 0
    N_reps, covered = [], set()
    for i, r in enumerate(reps):
        if i not in covered:
            N_reps.append(r)
            covered.update(index(r * reps[j]) for j in image)
    assert len(N_reps) * len(image) == len(reps)
    return ClassData(reps, conj_pairs, N_reps)


def class_data_by_full_sweep(K):
    """ClassData of K by the discrete-log closure over every generator below
    the Minkowski bound, with no stop at a known class number: the library's
    closure before it stopped at the certified h_K, and before it built its
    generators on demand (here they come from kprimes_up_to)."""
    from relclass.cm import ClassData, _reduce

    F = K.F
    gens = [K.extend_ideal(a).two_element() for a in F.class_reps[1:]]
    n_image = len(gens)
    seen_base = set()
    for kp in kprimes_up_to(K, K.minkowski_bound()):
        if kp.rel_f == 2:
            continue  # inert primes extend base primes: in the image of Cl(F)
        bkey = (kp.base.p, kp.base.second_gen)
        if bkey not in seen_base:  # one prime per split pair
            seen_base.add(bkey)
            gens.append(kp.ideal)
    k = len(gens)
    shift = [F.inverse_class(g.rel_norm()) - 1 if F.h_F > 1 else -1 for g in gens]
    mo = K.maximal_order()
    elements = [(tuple([0] * k), mo)]
    relations = []
    for i, g in enumerate(gens):
        cur, powers, d, rel = mo, [], 0, None
        while rel is None:
            cur = (cur * g).small_class_rep()
            d += 1
            for vec, rep in elements:
                if cur.in_same_class(rep):
                    rel = [d * int(t == i) - vec[t] for t in range(k)]
                    break
            if rel is None:
                powers.append(cur.two_element())
        relations.append(rel)
        new_elements = list(elements)
        for e in range(1, d):
            for vec, rep in elements:
                nv = list(vec)
                nv[i] += e
                new_elements.append((tuple(nv), (powers[e - 1] * rep).small_class_rep().two_element()))
        elements = new_elements
    rel_rows = hnf_lattice(relations) if relations else []
    index = {_reduce(vec, rel_rows): i for i, (vec, rep) in enumerate(elements)}
    assert len(index) == len(elements)
    conj_pairs = []
    for vec, rep in elements:
        c = [-x for x in vec]
        for t, s in enumerate(shift):
            if s >= 0:
                c[s] -= vec[t]
        conj_pairs.append(index[_reduce(c, rel_rows)])
    unit = [[int(t == i) for t in range(k)] for i in range(n_image)]
    image_rows = hnf_lattice(relations + unit) if n_image else rel_rows
    cosets = {}
    for vec, rep in elements:
        cosets.setdefault(_reduce(vec, image_rows), rep)
    return ClassData([rep for _, rep in elements], conj_pairs, list(cosets.values()))


def reduced_gram(red) -> list[list[int]]:
    """D * (U G U^T) for the LLLData of lattice.lll_reduce_gram: the reduced
    Gram matrix, which the enumeration does not need."""
    UG = [[sum(c * g for c, g in zip(row, col)) for col in zip(*red.DG)] for row in red.U]
    return [[sum(t * c for t, c in zip(ug, other)) for other in red.U] for ug in UG]


def hecke_extend(table, idl) -> int:
    """lambda at an integral ideal from its factorisation: multiplicative,
    the degree-2 recursion at good primes, geometric at bad primes; the
    reference for hecke.dirichlet_coeffs."""
    from relclass.errors import OutOfTableRange
    from relclass.hecke import _lam_power

    out = 1
    for pr, v in idl.factor():
        if pr.p > table.pmax:
            raise OutOfTableRange(f"prime {pr.p} beyond table range")
        out *= _lam_power(table, pr, v)
    return out


def coeff_series_mul(x: list[int], y: list[int]) -> list[int]:
    """Dirichlet convolution of two coefficient lists, to the shorter one's
    length: multiplying v_n by zeta_F(2s) gives zeta_K back."""
    X = min(len(x), len(y))
    out = [0] * X
    for i in range(1, X + 1):
        a = x[i - 1]
        if a == 0:
            continue
        for j in range(1, X // i + 1):
            b = y[j - 1]
            if b:
                out[i * j - 1] += a * b
    return out


def vseries_by_local_factors(K, X: int) -> list[int]:
    """v_1..v_X of zeta_K(s)/zeta_F(2s) as one product over the primes p of
    F, q = N(p): the local factor is (1 + q^-s)/(1 - q^-s) if p splits in K,
    1 + q^-s if it ramifies and 1 if it is inert."""
    from relclass.dseries import euler_coeffs

    factors = []
    for pr in K.F.primes_of_norm_up_to(X):
        kind = K.splitting_kind(pr)
        if kind == "split":
            # euler_coeffs stops at q^k > X, and k <= log2 X
            factors.append((pr.norm(), [1] + [2] * X.bit_length()))
        elif kind == "ramified":
            factors.append((pr.norm(), [1, 1]))
    return euler_coeffs(factors, X)


def canonical_unit_rep_F(F: Field, x):
    """Representative of x modulo the units of F, by FElem arithmetic: the
    minimiser of Tr(x^2) along the unit orbit, ties broken by the larger
    coordinate key, then the sign of the larger coordinate tuple."""
    if F.n == 1:
        return x if x.na >= 0 else -x

    def q(z):
        return (z * z).trace()

    eps = F.eps
    eps_inv = F.one() / eps
    cur = x
    while True:
        up, dn = cur * eps, cur * eps_inv
        qc = q(cur)
        if q(up) < qc:
            cur = up
        elif q(dn) < qc:
            cur = dn
        else:
            best = cur
            for cand in (up, dn):
                if q(cand) == qc:
                    ck = max(cand.coords(), (-cand).coords())
                    bk = max(best.coords(), (-best).coords())
                    if ck > bk:
                        best = cand
            cur = best
            break
    return cur if cur.coords() >= (-cur).coords() else -cur


# Ideal intersection and the F-part of a line as relclass computed them before
# LatticeIdeal.__and__: the lcm of two integral ideals from their
# factorisations, and {x in F : x alpha in M} from the kernel of the cross
# products with alpha, each kernel vector divided by alpha.


def ideal_lcm(F: Field, a, b):
    """lcm(a, b) of two integral F-ideals: the product of the prime powers of
    the larger valuation."""
    v = dict(b.factor())
    for pr, k in a.factor():
        v[pr] = max(k, v.get(pr, 0))
    out = F.unit_ideal()
    for pr, k in v.items():
        out = out * pr.ideal**k
    return out


def line_colon_ideal(K, alpha, module):
    """The fractional F-ideal {x in F : x*alpha in module}, as
    (module intersect F*alpha) / alpha: the basis vectors of the module on
    the line are the integer kernel combinations of the cross products
    x(b) y(alpha) - y(b) x(alpha)."""
    from relclass.field import FIdeal, order_rows
    from relclass.intmat import zspan_kernel

    F = K.F
    bs = module.basis_kelems()
    rows, _ = order_rows(F, [b.x * alpha.y - b.y * alpha.x for b in bs])
    gens = []
    for comb in zspan_kernel(rows):
        v = K.zero()
        for c, b in zip(comb, bs):
            if c:
                v = v + b.scale(c)
        x = v / alpha
        assert x.y.is_zero(), "intersection vector not on the line"
        gens.append(x.x)
    return FIdeal.from_generators(F, gens)


# -- principality over F by an r1 scan --------------------------------------------------
# relclass.field.FIdeal.principal_gen before the cycle of reduced forms, in its
# order and on its float window, with the norm equation solved on integers: the
# second coordinate r1 runs over a float range that bounds a generator's unit
# multiple with both |sigma_i(x)| <= sqrt(N) eps, and for each r1 the first
# coordinate r0 comes from one isqrt.

# most coordinates principal_gen_by_scan may scan before it gives up undecided
PRINCIPAL_SCAN_BUDGET = 10**6


def principal_gen_by_scan(idl) -> FieldElem | None:
    """Generator of matching norm, reduced into the unit fundamental domain.

    Any generator has a unit multiple with both |sigma_i(x)| <= sqrt(N)*eps,
    which pins its second coordinate to a finite range; for each such
    coordinate the norm equation is a quadratic in the first, solved
    exactly.  An empty scan certifies non-principality.

    On the HNF rows (a, b), (0, c) of J = den idl, b0 = (a + b omega)/den,
    b1 = c omega/den and x = r0 b0 + r1 b1 is (r0 a + (r0 b + r1 c) omega)/den,
    so den^2 N(x) = A r0^2 + B r0 r1 + C r1^2 with the integers below
    (N(u + v omega) = u^2 + c1 u v - c0 v^2), and N(x) = +-N(idl) reads
    A r0^2 + B r1 r0 + C r1^2 = +-a c.  For each r1 the targets +ac and -ac
    are tried in turn, and the roots r0 = (-B r1 +- s)/2A with s^2 the
    discriminant, +s first.
    """
    F = idl.F
    if F.n == 1:
        return F.elem(Fraction(idl.num[0][0], idl.den))
    eps1 = F.eps.embed(0)
    lim = math.sqrt(float(idl.norm())) * eps1 * 1.0000001 + 1e-12
    b0, b1 = idl.basis_elems()
    e00, e01 = b0.embed(0), b0.embed(1)
    e10, e11 = b1.embed(0), b1.embed(1)
    det = e00 * e11 - e01 * e10
    r1_max = int((abs(e00) + abs(e01)) * lim / abs(det)) + 2
    if 2 * r1_max + 1 > PRINCIPAL_SCAN_BUDGET:
        raise SearchBudgetExceeded("principality search budget exhausted")
    (a, b), (_, c) = idl.num
    A = a * a + F.c1 * a * b - F.c0 * b * b
    B = c * (F.c1 * a - 2 * F.c0 * b)
    C = -F.c0 * c * c
    target = a * c
    for r1 in range(-r1_max, r1_max + 1):
        for tt in (target, -target):
            disc = (B * r1) ** 2 - 4 * A * (C * r1 * r1 - tt)
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for sgn in (s, -s):
                r0, rest = divmod(-B * r1 + sgn, 2 * A)
                if rest or (r0 == 0 and r1 == 0):
                    continue
                return F.elem(Fraction(r0 * a, idl.den), Fraction(r0 * b + r1 * c, idl.den))
    return None


# -- the fundamental unit by a scan ----------------------------------------------------
# relclass.field.fundamental_unit_xy before its closed form, kept verbatim but
# for the name: after the continued fraction it scans y = 1 ... 2q for the
# least y with x^2 - m y^2 = +-4.


def fundamental_unit_by_scan(m: int) -> tuple[int, int]:
    """Fundamental unit of the maximal order of Q(sqrt m), as (x, y) with
    eps = (x + y*sqrt m)/2.

    The continued fraction of sqrt(m) yields a unit of Z[sqrt m], which bounds
    the search; the minimal y >= 1 with x^2 - m y^2 = +-4 (coordinates
    integral in the maximal order) is then the fundamental unit.
    """
    a0 = isqrt(m)
    if a0 * a0 == m:
        raise ValueError(f"{m} is a perfect square")
    P, Q, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        if Q == 1:
            break
        a = (a0 + P) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    y_cap = 2 * q_cur
    half_ok = m % 4 == 1
    for y in range(1, y_cap + 1):
        for sgn in (-4, 4):
            t2 = m * y * y + sgn
            if t2 <= 0:
                continue
            x = isqrt(t2)
            if x * x != t2:
                continue
            if half_ok:
                if (x - y) % 2 == 0:
                    return (x, y)
            elif x % 2 == 0 and y % 2 == 0:
                return (x, y)
    raise SearchBudgetExceeded("fundamental unit scan failed below CF bound")


# -- residue fields of base-field primes ------------------------------------------------
# The GF(p^f) type that relclass.cm and relclass.forms reduced through before
# field.residue_char and field.omega_root, kept verbatim but for the element
# type's local name: elements are pairs (a0, a1) over F_p modulo the minimal
# polynomial of omega in the inert case, a1 = 0 when f = 1.  Below it, the
# splitting data and the tame symbol as relclass computed them through it.


class ResidueField:
    """GF(p^f) attached to a prime of the base field, with the reduction map."""

    def __init__(self, F: Field, prime: PrimeIdeal):
        self.F = F
        self.prime = prime
        self.p = prime.p
        self.f = prime.f
        self.q = prime.p**prime.f
        if self.f == 1:
            # omega maps to a root of its minimal polynomial mod p
            if F.n == 1:
                self.omega_image = 0
            else:
                g = prime.second_gen  # omega - r (or p itself in degree-1 situations)
                if g.b != 0:
                    self.omega_image = int((-g.a / g.b) % self.p)
                else:
                    self.omega_image = 0
        else:
            self.omega_image = None  # omega is the residue generator itself

    # elements are tuples (a0, a1) mod p; a1 = 0 unless f = 2
    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def make(self, a0: int):
        return (a0 % self.p, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def mul(self, x, y):
        if self.f == 1:
            return ((x[0] * y[0]) % self.p, 0)
        c0, c1 = self.F.c0 % self.p, self.F.c1 % self.p
        a = (x[0] * y[0] + x[1] * y[1] * c0) % self.p
        b = (x[0] * y[1] + x[1] * y[0] + x[1] * y[1] * c1) % self.p
        return (a, b)

    def pow(self, x, k: int):
        out = self.one()
        base = x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, x):
        if x == (0, 0):
            raise ZeroDivisionError
        return self.pow(x, self.q - 2)

    def is_zero(self, x) -> bool:
        return x[0] == 0 and x[1] == 0

    def is_square(self, x) -> bool:
        if self.is_zero(x):
            return True
        if self.p == 2:
            return True  # squaring is a bijection in characteristic 2
        return self.pow(x, (self.q - 1) // 2) == self.one()

    def sqrt(self, x):
        """A square root in GF(q), or None."""
        if self.is_zero(x):
            return self.zero()
        if self.p == 2:
            # Frobenius inverse: sqrt = x^(q/2)
            return self.pow(x, self.q // 2)
        if self.f == 1:
            r = sqrt_mod_p(x[0], self.p)
            return None if r is None else (r, 0)
        if not self.is_square(x):
            return None
        # Tonelli-Shanks over GF(q)
        q1 = self.q - 1
        s = 0
        qq = q1
        while qq % 2 == 0:
            qq //= 2
            s += 1
        # GF(p) lies in the squares of GF(p^2), so the nonresidue is sought
        # among a0 + omega: their norms are the values of an irreducible
        # quadratic, and about half of them are nonsquares mod p
        z = next((a0, 1) for a0 in range(self.p) if not self.is_square((a0, 1)))
        m, c = s, self.pow(z, qq)
        t, r = self.pow(x, qq), self.pow(x, (qq + 1) // 2)
        while t != self.one():
            t2, i = t, 0
            while t2 != self.one():
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m, c = i, self.mul(b, b)
            t, r = self.mul(t, c), self.mul(r, b)
        return r

    def quadratic_roots(self, B, C):
        """Roots of X^2 - B X - C in GF(q), with multiplicity collapsed."""
        if self.p == 2:
            roots = []
            for a0 in range(2):
                for a1 in range(2 if self.f == 2 else 1):
                    x = (a0, a1)
                    if self.sub(self.mul(x, x), self.add(self.mul(B, x), C)) == self.zero():
                        roots.append(x)
            return roots
        disc = self.add(self.mul(B, B), self.mul(self.make(4), C))
        sd = self.sqrt(disc)
        if sd is None:
            return []
        inv2 = self.inv(self.make(2))
        r1 = self.mul(self.add(B, sd), inv2)
        r2 = self.mul(self.sub(B, sd), inv2)
        return [r1] if r1 == r2 else sorted({r1, r2})

    # -- reduction ----------------------------------------------------------

    def reduce_integral(self, x: FieldElem):
        """Image of an integral element."""
        assert x.is_integral()
        a, b = x.na, x.nb
        if self.f == 1:
            return ((a + b * self.omega_image) % self.p, 0)
        return (a % self.p, b % self.p)

    def reduce(self, x: FieldElem):
        """Image of any x with v_prime(x) >= 0 (denominators handled)."""
        F, p = self.F, self.p
        d = x.den
        num = F.elem(x.na, x.nb)  # x * d, integral
        correction = self.one()
        guard = 0
        while d % p == 0:
            guard += 1
            if guard > 64:  # pragma: no cover
                raise SearchBudgetExceeded("residue reduction loop")
            if num.na % p == 0 and num.nb % p == 0:
                num = F.elem(num.na // p, num.nb // p)
                d //= p
                continue
            # split prime: clear the conjugate-prime denominator
            t = self.prime.second_gen.conj()
            num = num * t
            correction = self.mul(correction, self.reduce_integral(t))
            g = gcd(num.na, num.nb, d)
            if g > 1:
                num = F.elem(num.na // g, num.nb // g)
                d //= g
        img = self.reduce_integral(num)
        dinv = self.inv(self.make(d % p))
        out = self.mul(img, dinv)
        if correction != self.one():
            out = self.mul(out, self.inv(correction))
        return out

    def unit_residue(self, x: FieldElem, val: int):
        """Image of x * pi^(-val), pi the stored uniformizer; nonzero by construction."""
        pi = self.prime.second_gen
        y = x
        for _ in range(val):
            y = y / pi
        for _ in range(-val):
            y = y * pi
        return self.reduce(y)

    def legendre(self, x) -> int:
        """Quadratic character of a nonzero residue: +1 square, -1 nonsquare."""
        if self.is_zero(x):
            return 0
        if self.p == 2:
            return 1
        return 1 if self.is_square(x) else -1


def local_quadratic(K, pr: PrimeIdeal):
    """(w, rf, roots, kind): an integral w of K that generates o_K over
    o_F locally at pr, the residue field rf of pr, the roots in rf of
    X^2 - B X - C (B, C the residues of Tr(w) and -N(w), so that w
    reduces to one of them), and the splitting kind of pr in K, read
    from the number of roots (Cohen, GTM 138, 1.5)."""
    from relclass.cm import KElem
    from relclass.field import elem_with_valuation

    F = K.F
    j = -K.c_inv.valuation(pr)
    tau = elem_with_valuation(K.c_inv, pr, -j)
    w = KElem(K, tau * K.b_shift, tau)
    assert w.is_integral()
    rf = ResidueField(F, pr)
    B, C = rf.reduce_integral(w.rel_trace()), rf.reduce_integral(-w.rel_norm())
    roots = rf.quadratic_roots(B, C)
    kind = {2: "split", 1: "ramified", 0: "inert"}[len(roots)]
    ram = K.rel_disc.valuation(pr) > 0
    assert (kind == "ramified") == ram, f"residue roots vs discriminant at {pr}"
    return w, rf, roots, kind


def primes_above_by_residue_field(K, pr: PrimeIdeal) -> list:
    """The KPrimes above pr: pr o_K when inert, else pr o_K + (w - r) o_K for
    each root r of local_quadratic, lifted to o_F."""
    from relclass.cm import KElem, KIdeal, KPrime
    from relclass.field import _row_mul

    F = K.F
    w, rf, roots, kind = local_quadratic(K, pr)
    pK = K.extend_ideal(pr.ideal)
    if kind == "inert":
        return [KPrime(pr, 2, False, pK)]
    out = []
    for r in roots:
        lift = F.elem(r[0]) if rf.f == 1 else F.elem(r[0], r[1])
        g = w - KElem(K, lift, F.zero())
        grow, den = K._to_order(g)
        rows = [[x * den for x in row] for row in pK.num]
        rows += [_row_mul(K._mt, grow, e) for e in K._unit_rows]
        ideal = KIdeal.from_rows(K, rows, den).two_element()
        out.append(KPrime(pr, 1, kind == "ramified", ideal))
    return out


def tame_symbol_by_residue_field(F: Field, s: FieldElem, d: FieldElem, pr: PrimeIdeal) -> int:
    """(s, d) at an odd prime from the residues of the unit parts of s and d."""
    rf = ResidueField(F, pr)
    alpha = s.valuation(pr)
    beta = d.valuation(pr)
    us = rf.unit_residue(s, alpha)
    ud = rf.unit_residue(d, beta)
    q = rf.q
    sign = -1 if (alpha * beta) % 2 == 1 and (q - 1) // 2 % 2 == 1 else 1
    chi_s = rf.legendre(us)
    chi_d = rf.legendre(ud)
    out = sign
    if beta % 2 == 1:
        out *= chi_s
    if alpha % 2 == 1:
        out *= chi_d
    return out


def relevant_primes_by_trial_division(Q, nq) -> list[PrimeIdeal]:
    """The primes at which forms.is_fundamental once ran its local tests:
    those above the primes dividing |N(a)|, |N(b)|, |N(c)|, 2 or the norm of
    the Steinitz ideal of the form Q, found by trial division, by ascending
    p.  It takes forms._relevant_primes's arguments but does not read the
    norm ideal nq.  Unlike the primes of D* = disc ideal / nq^2 this set
    can miss an odd prime that divides b^2 - 4ac but none of a, b, c."""
    F = Q.F
    nums = set()
    for x in (Q.a, Q.b, Q.c, F.elem(2)):
        if not x.is_zero():
            nm = abs(x.norm())
            nums.add(nm.numerator)
            nums.add(nm.denominator)
    nums.add(int(Q.steinitz.norm().numerator))
    nums.add(int(Q.steinitz.norm().denominator))
    ps = set()
    for n in nums:
        ps.update(prime_divisors(n))
    return [pr for p in sorted(ps) for pr in F.splitting(p).primes]


def make_form(F: Field, a, b, c, steinitz=None):
    """The form (a, b, c) on o + steinitz (default o_F), with rational
    coefficients taken into F."""
    conv = lambda v: v if isinstance(v, FieldElem) else F.elem(Fraction(v))
    return PseudoForm(F, steinitz if steinitz is not None else F.unit_ideal(), conv(a), conv(b), conv(c))


def definite_forms(F: Field, rng, count: int) -> list:
    """count random definite forms over F with small coefficients, drawn from
    rng (the forms of acceptance criterion 6; unit Steinitz ideal, not
    necessarily fundamental)."""
    out = []
    while len(out) < count:
        if F.n == 1:
            Qf = make_form(F, 1 + rng.randrange(8), rng.randrange(-8, 9), 1 + rng.randrange(9))
        else:
            a = F.elem(1 + rng.randrange(4), rng.randrange(-1, 2))
            b = F.elem(rng.randrange(-3, 4), rng.randrange(-1, 2))
            c = F.elem(1 + rng.randrange(4), rng.randrange(-1, 2))
            Qf = make_form(F, a, b, c)
        d = Qf.field_disc()
        if not d.is_zero() and d.is_totally_negative():
            out.append(Qf)
    return out
