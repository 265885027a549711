import random

import pytest

from oracles import ResidueField

from relclass.field import make_field, primes_up_to


def _inert_residue_fields():
    for m in (2, 3, 5):
        F = make_field(2, m)
        for p in primes_up_to(99):
            pr = F.splitting(p).primes[0]
            if pr.f == 2:
                yield pytest.param(ResidueField(F, pr), id=f"m{m}-p{p}")


@pytest.mark.parametrize("rf", list(_inert_residue_fields()))
def test_gf_p2_square_roots_and_quadratic_roots(rf):
    p = rf.p
    elems = [(a0, a1) for a0 in range(p) for a1 in range(p)]
    squares = {rf.mul(y, y) for y in elems}
    rng = random.Random(p)
    for x in rng.sample(elems, min(len(elems), 40)):
        sq = rf.mul(x, x)
        r = rf.sqrt(sq)
        assert rf.mul(r, r) == sq
        if x not in squares:
            assert rf.sqrt(x) is None
    # two roots, a double root, a random pair, and no root: X^2 - z for a
    # nonsquare z (in characteristic 2 every element is a square)
    r1, r2, r3 = rng.sample(elems, 3)
    pairs = [
        (rf.add(r1, r2), rf.sub(rf.zero(), rf.mul(r1, r2))),
        (rf.add(r3, r3), rf.sub(rf.zero(), rf.mul(r3, r3))),
        (rng.choice(elems), rng.choice(elems)),
    ]
    pairs += [(rf.zero(), z) for z in sorted(set(elems) - squares)[:1]]
    for B, C in pairs:
        scan = sorted(y for y in elems if rf.sub(rf.mul(y, y), rf.add(rf.mul(B, y), C)) == rf.zero())
        assert rf.quadratic_roots(B, C) == scan
