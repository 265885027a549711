"""Class groups of imaginary quadratic fields as Gauss's reduced forms.

Each class of discriminant D < 0 holds exactly one reduced form (a, b, c),
-a < b <= a <= c with b >= 0 when a = c (Cohen, GTM 138, 5.3), and
3a^2 <= -D for it, so the classes are listed by a scan over (a, b) in
integers.  cm counts the classes of K over Q here, and of the imaginary
quadratic subfields of a biquadratic K for Kuroda's formula.
"""

from __future__ import annotations


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """The reduced forms of discriminant D < 0, sorted: one per class."""
    out = []
    a = 1
    while 3 * a * a <= -D:
        # 4a | b^2 - D forces b = D mod 2
        for b in range(-a + 1 + (a + 1 + D) % 2, a + 1, 2):
            c, r = divmod(b * b - D, 4 * a)
            if r == 0 and (c > a or (c == a and b >= 0)):
                out.append((a, b, c))
        a += 1
    return out


def field_disc(x: int) -> int:
    """The discriminant of Q(sqrt x), x < 0: the squarefree part s of x, times
    4 unless s = 1 mod 4."""
    d = 2
    while d * d <= -x:
        while x % (d * d) == 0:
            x //= d * d
        d += 1
    return x if x % 4 == 1 else 4 * x


def class_group_counts(D: int) -> tuple[int, int]:
    """(h, conjugation orbit count) for the field of discriminant D < 0.
    Conjugation maps (a, b, c) to (a, -b, c), so each orbit holds exactly one
    reduced form with b >= 0."""
    forms = reduced_forms(D)
    return len(forms), sum(1 for _, b, _ in forms if b >= 0)
