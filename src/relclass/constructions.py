"""The paper's constructions that no command runs: representation of an
element by a form, a form with prescribed genus characters, the search for
the unique sub-threshold line, and the decomposition of an ideal against
the class representatives.

The acceptance gate runs minimal_lines on random definite forms, and the
unit tests check the rest; classify, verify and bound never import this
module, so none of them compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cm import CMField, KElem, KIdeal, line_colon_ideal
from .errors import (
    CriterionFails,
    DecompositionFailed,
    DegenerateForm,
    LemmaViolation,
    SearchBudgetExceeded,
)
from .field import FElem, Field, FIdeal, canonical_unit_row, is_prime_int, order_rows
from .forms import (
    PseudoForm,
    free_module_basis,
    genus_places,
    genus_vector,
    hilbert_symbol,
    ideal_to_form,
)
from .intmat import hnf_lattice
from .lattice import lll_reduce_gram, short_vectors

# cap on the elements prescribe_genus scans
GENUS_SCAN_BUDGET = 200_000


# -- representability and genus prescription ---------------------------------------------


def representable_criterion(K: CMField, s: FElem) -> bool:
    """v_p(s) even at every prime inert in K."""
    F = K.F
    if s.is_zero():
        raise ValueError("s must be nonzero")
    for pr, v in F.ideal(s).factor():
        if K.splitting_kind(pr) == "inert" and v % 2 == 1:
            return False
    return True


def represent_search(K: CMField, s: FElem):
    """A fundamental definite form Q_A / gamma representing s, with witness.

    Returns (Q: PseudoForm, A, gamma, witness (x, y)) with Q.value(x, y) = s.
    """
    F = K.F
    if not representable_criterion(K, s):
        raise CriterionFails(f"{s} has odd valuation at an inert prime")
    # B with N_{K/F}(B) = (s)
    B = K.maximal_order()
    for pr, v in F.ideal(s).factor():
        kind = K.splitting_kind(pr)
        kps = K.primes_above(pr)
        B = B * (kps[0].ideal ** (v // 2 if kind == "inert" else v))
    assert s.is_integral()
    assert B.rel_norm() == F.ideal(s)
    # z in B small, A = (z) B^{-1}
    z = B.small_nonzero()
    A = B.inverse() * z
    assert A.is_integral()
    gamma = z.rel_norm() / s
    Q = ideal_to_form(K, A)
    Qs = PseudoForm(F, F.unit_ideal(), Q.a / gamma, Q.b / gamma, Q.c / gamma)
    # witness: coordinates of z in the free basis of A
    alpha, beta = free_module_basis(K, A)
    xy = _coords_in_basis(z, alpha, beta)
    assert Qs.value(xy[0], xy[1]) == s
    return Qs, A, gamma, xy


def _coords_in_basis(z: KElem, alpha: KElem, beta: KElem):
    # z = x alpha + y beta with x, y in F: solve 2x2 linear system over F
    det = alpha.x * beta.y - alpha.y * beta.x
    x = (z.x * beta.y - z.y * beta.x) / det
    y = (alpha.x * z.y - alpha.y * z.x) / det
    return (x, y)


def prescribe_genus(K: CMField, signs: dict):
    """A form whose genus vector matches the requested signs (product must be 1).

    Scans totally-controlled principal primes satisfying the sign and
    congruence conditions, then represents the found element."""
    F = K.F
    reals, primes = genus_places(K)
    keys = [("inf", i) for i in reals] + [("p", pr.p, str(pr.second_gen)) for pr in primes]
    assert set(signs) == set(keys), f"signs must cover {keys}"
    prod = 1
    for v in signs.values():
        prod *= v
    if prod != 1:
        raise ValueError("sign system must have product 1")
    delta = K.delta
    count = 0
    for e0 in _small_elements(F):
        count += 1
        if count > GENUS_SCAN_BUDGET:
            raise SearchBudgetExceeded("genus prescription scan budget")
        if e0.is_zero():
            continue
        ok = True
        for i in reals:
            if (1 if e0.embedding_sign(i) > 0 else -1) != signs[("inf", i)]:
                ok = False
                break
        if not ok:
            continue
        nrm = abs(e0.norm())
        if nrm.denominator != 1 or nrm == 0:
            continue
        if not is_prime_int(int(nrm)):
            continue
        for pr in primes:
            if e0.valuation(pr) != 0:
                ok = False
                break
            if hilbert_symbol(F, e0, delta, pr) != signs[("p", pr.p, str(pr.second_gen))]:
                ok = False
                break
        if not ok:
            continue
        # (e0) is a prime element; the reciprocity bookkeeping makes it split
        pr_e = F.splitting(int(nrm)).primes
        target = next((q for q in pr_e if e0.valuation(q) > 0), None)
        if target is None or K.splitting_kind(target) != "split":
            continue
        if not representable_criterion(K, e0):
            continue
        Q, A, gamma, xy = represent_search(K, e0)
        gv = genus_vector(Q, K)
        if all(gv[k] == signs[k] for k in keys):
            return Q, e0
    raise SearchBudgetExceeded("no qualifying element found within the scan")


def _small_elements(F: Field):
    """Deterministic scan of integral elements by box size."""
    if F.n == 1:
        k = 1
        while True:
            yield F.elem(k)
            yield F.elem(-k)
            k += 1
    else:
        box = 1
        while True:
            for x in range(-box, box + 1):
                for y in range(-box, box + 1):
                    if max(abs(x), abs(y)) == box:
                        yield F.elem(x, y)
            box += 1


# -- the unique-line lemma ---------------------------------------------------------


def minimal_lines(Q: PseudoForm) -> list[tuple]:
    """Saturated rank-1 submodules N with |I(Q,N)| below sqrt|disc|/2^n.

    Exhaustive under the threshold; two or more would contradict the
    uniqueness lemma and raise."""
    F = Q.F
    if not Q.is_definite():
        raise DegenerateForm("line search needs a definite form")
    # per-embedding signs (a definite form may flip sign between embeddings)
    eps_signs = tuple(Q.a.embedding_sign(i) for i in range(F.n))
    disc_norm = Q.disc_ideal().norm()
    mod_basis = Q.module_lattice()
    nb = len(mod_basis)
    gram = [[Fraction(0)] * nb for _ in range(nb)]
    mixed = F.n == 2 and eps_signs[0] != eps_signs[1]
    sqrt_scale = 1.0
    for i, (x1, y1) in enumerate(mod_basis):
        for j, (x2, y2) in enumerate(mod_basis):
            val = (
                Q.a * x1 * x2
                + Q.b * (x1 * y2 + x2 * y1) * F.elem(Fraction(1, 2))
                + Q.c * y1 * y2
            )
            if not mixed:
                gram[i][j] = Fraction(val.trace()) * eps_signs[0]
            else:
                # (sigma_1 - sigma_2)(val)/sqrt(m) is rational and the twisted
                # form stays positive definite
                k = 2 if F.c1 == 0 else 1
                gram[i][j] = Fraction(val.b) * k * eps_signs[0]
    if mixed:
        sqrt_scale = math.sqrt(F.m)
    # enumerate z with the twisted trace of q(z) within the unit window
    thr2 = disc_norm / Fraction(4**F.n)  # |I|^2 < thr2 required
    if F.n == 1:
        q_bound = Fraction(math.isqrt(int(thr2 * 2**40)) + 1, 2**20)
    else:
        e1 = F.eps.embed(0)
        tf = math.sqrt(float(thr2)) ** 0.5  # fourth root of thr2 = sqrt of threshold
        q_bound = Fraction(
            math.ceil(tf * (e1 * e1 + 1 / (e1 * e1)) / sqrt_scale * (1 + 1e-9) * 2**20), 2**20
        )
    D = math.lcm(*(x.denominator for row in gram for x in row))
    vecs = short_vectors(lll_reduce_gram((D, [[int(x * D) for x in row] for row in gram])), q_bound)
    lines = {}
    for v in vecs:
        x = F.zero()
        y = F.zero()
        for c, (bx, by) in zip(v, mod_basis):
            if c:
                x = x + bx * F.elem(c)
                y = y + by * F.elem(c)
        qv = Q.value(x, y)
        if qv.is_zero():
            continue
        # the saturated line through (x, y): coefficient ideal b = {t : t*(x,y) in M}
        b_id = _line_colon(F, Q, x, y)
        I = F.ideal(qv) * (b_id * b_id)
        lhs = I.norm() * I.norm()
        if lhs * Fraction(4**F.n) < disc_norm:
            key = _line_key(x, y, b_id)
            lines.setdefault(key, (I, (x, y)))
    out = sorted(lines.items(), key=lambda t: str(t[0]))
    if len(out) > 1:
        raise LemmaViolation(f"{len(out)} sub-threshold saturated lines found")
    return [(key, I, wit) for key, (I, wit) in out]


def _line_colon(F: Field, Q: PseudoForm, x: FElem, y: FElem) -> FIdeal:
    """{t in F : t*(x, y) in o + steinitz} as a fractional ideal."""
    # t*x in o and t*y in steinitz
    c1 = F.ideal(x).inverse() if not x.is_zero() else None
    c2 = (Q.steinitz * F.ideal(y).inverse()) if not y.is_zero() else None
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    return c1 & c2


def _line_key(x: FElem, y: FElem, b_id: FIdeal):
    """Canonical key of the saturated line {(t x, t y) : t in b_id}: the HNF
    of the pairs' order rows over one denominator."""
    ts = b_id.basis_elems()
    rows, den = order_rows(b_id.F, [t * z for z in (x, y) for t in ts])
    k = len(ts)
    h = hnf_lattice([rx + ry for rx, ry in zip(rows[:k], rows[k:])])
    return (den, tuple(tuple(r) for r in h))


# -- decomposition of ideals against the class representatives ------------------------


def canonical_unit_rep(K: CMField, alpha: KElem) -> KElem:
    """Deterministic representative of alpha modulo o_F^x = {+-eps^k}: the
    unit-orbit walk of field.canonical_unit_row on its order row."""
    row, den = K._to_order(alpha)
    return K._from_order(canonical_unit_row(K, row), den)


def decompose_ideal(K: CMField, M: KIdeal):
    """Write an integral module as a * (o alpha) * N_i^{-1}, alpha canonical.

    Returns (i, a: FIdeal, alpha: KElem) with o*alpha saturated in N_i;
    recomposition is verified exactly.
    """
    if K.F.h_F != 1:
        raise DecompositionFailed("decomposition implemented for trivial base class group")
    cd = K.class_data()
    for i, Ni in enumerate(cd.N_reps):
        prod = M * Ni
        prod_int = prod.scale(prod.den)
        gen = prod_int.principal_gen()
        if gen is None:
            continue
        alpha = gen.scale(Fraction(1, prod.den))
        b = line_colon_ideal(K, alpha, Ni)
        g = b.principal_gen()
        if g is None:
            raise DecompositionFailed("coefficient ideal not principal over h_F = 1 base")
        alpha_sat = canonical_unit_rep(K, alpha * g)
        a_ideal = b.inverse()
        recomposed = (
            K.extend_ideal(a_ideal) * KIdeal.from_generators(K, [alpha_sat]) * Ni.inverse()
        )
        if recomposed.num == M.num and recomposed.den == M.den:
            return (i, a_ideal, alpha_sat)
    raise DecompositionFailed("no representative matched")
