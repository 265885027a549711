"""Small exact linear algebra over the integers.

Everything here works on lists of lists of ints (row vectors).
Dimensions stay tiny (<= 8), so the quadratic algorithms are fine.
"""

from __future__ import annotations


def hnf_lattice(rows: list[list[int]]) -> list[list[int]]:
    """HNF basis of the integer lattice spanned by possibly redundant rows.

    Row-style, lower-left echelon: pivot columns increase, pivots positive,
    entries above each pivot reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        # reduce the other rows by the one of least |entry| in this column,
        # until one row is left; the rows it clears move on to later columns
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            p = piv[col]
            rest = [piv]
            for r in live:
                if r is piv:
                    continue
                q = r[col] // p
                if q:
                    r = [x - q * y for x, y in zip(r, piv)]
                if r[col]:
                    rest.append(r)
                elif any(r):
                    work.append(r)
            live = rest
        if not live:
            continue
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    # normalize above-pivot entries; ascending pivot order keeps earlier
    # columns clean since row i has zeros before its pivot
    for i in range(len(basis)):
        c = next(k for k in range(ncols) if basis[i][k] != 0)
        for j in range(i):
            q = basis[j][c] // basis[i][c]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def echelon_solve(rows: list[list[int]], target: list[int]) -> list[int] | None:
    """Integer coefficients of target over echelon rows (for instance an HNF
    basis), by back-substitution; None if target is outside their lattice.
    The rows are independent, so the coefficients are unique."""
    n = len(target)
    t = list(target)
    piv = {}
    for i, r in enumerate(rows):
        piv[next(k for k in range(n) if r[k] != 0)] = i
    coeffs = [0] * len(rows)
    for c in range(n):
        if t[c] == 0:
            continue
        i = piv.get(c)
        if i is None or t[c] % rows[i][c] != 0:
            return None
        q = coeffs[i] = t[c] // rows[i][c]
        r = rows[i]
        for k in range(c, n):
            t[k] -= q * r[k]
    return coeffs


def vec_mat(v: list[int], mat) -> list[int]:
    """The row vector v times the matrix whose rows are mat: one pass over
    the rows with a nonzero coefficient."""
    out = [0] * len(mat[0])
    for a, row in zip(v, mat):
        if a:
            out = [o + a * x for o, x in zip(out, row)]
    return out


def _augmented_hnf(rows: list[list[int]], width: int) -> list[list[int]]:
    """HNF of [rows | I], used to track transformations and kernels."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    work = aug
    basis: list[list[int]] = []
    for col in range(width):
        with_pivot = [r for r in work if r[col] != 0]
        without = [r for r in work if r[col] == 0]
        if not with_pivot:
            work = without
            continue
        piv = with_pivot[0]
        for r in with_pivot[1:]:
            a, b = piv, r
            while b[col] != 0:
                q = a[col] // b[col]
                a = [x - q * y for x, y in zip(a, b)]
                a, b = b, a
            piv = a
            without.append(b)
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = without
    basis.extend(work)  # rows whose lattice part is zero carry kernel combinations
    return basis


def zspan_solve(vectors: list[list[int]], target: list[int]):
    """Integer coefficients c with sum c_i * vectors[i] = target, or None."""
    width = len(target)
    aug = _augmented_hnf(vectors, width)
    lattice_rows = [r[:width] for r in aug if any(r[:width])]
    coeffs_rows = [r[width:] for r in aug if any(r[:width])]
    sol = echelon_solve(lattice_rows, target)
    if sol is None:
        return None
    n = len(vectors)
    out = [0] * n
    for s, crow in zip(sol, coeffs_rows):
        for k in range(n):
            out[k] += s * crow[k]
    return out


def zspan_kernel(vectors: list[list[int]]) -> list[list[int]]:
    """Basis of integer combinations of `vectors` summing to zero."""
    width = len(vectors[0]) if vectors else 0
    aug = _augmented_hnf(vectors, width)
    return [r[width:] for r in aug if not any(r[:width])]
