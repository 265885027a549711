"""The commands that run over a corpus, verify and bound.

Expected values of a corpus row are asserted only when present.  An error
in one row becomes that row's status and the run goes on; the exit code is
the largest over the rows.  The CLI loads this module only for these two
commands.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

# verify imports cm, bounds and dseries when it starts.  bound checks each
# row's delta and the 37-splitting parity on the base field first, and only
# for a row that passes builds K and imports cm, bounds, hecke, dseries and
# the cascade.
from .errors import InequalityViolated, InvalidArgument, ParityFails, RelclassError
from .field import cm_radicand, parity_applicable
from .formats import ALL_CHECKS, EXIT_INPUT, EXIT_OK, emit, fmt, load_corpus, outcome


def run_corpus(path: str, run_row):
    """Apply run_row(entry, row) to each row of the corpus file, in order.

    run_row fills the row dict; an error it raises becomes the row's status.
    Returns (rows, exit code), or (None, EXIT_INPUT) when the corpus cannot
    be read."""
    try:
        corpus = load_corpus(path)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"corpus error: {exc}\n")
        return None, EXIT_INPUT
    rows = []
    worst = EXIT_OK
    for entry in corpus:
        row = {"entry": entry.label(), "line": entry.lineno}
        try:
            run_row(entry, row)
            row["status"] = "ok"
        except RelclassError as exc:
            prefix, code = outcome(exc)
            row["status"] = f"{prefix}: {exc}"
            worst = max(worst, code)
        rows.append(row)
    return rows, worst


def cmd_verify(args) -> int:
    from . import bounds as bnd
    from . import dseries
    from .cm import class_counts, lower_bound_t

    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        sys.stderr.write(f"unknown checks: {bad}\n")
        return EXIT_INPUT
    lat_cache: dict = {}
    t_a, samples = Fraction(5), [2.0, 5.0, 10.0]  # the bounds of normcounts (a) and measures

    def lattice(F):
        if F not in lat_cache:
            lat_cache[F] = bnd.lattice_constants(F)
        return lat_cache[F]

    def run_row(entry, row):
        K = entry.cm()
        row["reldisc"] = K.rel_disc_norm
        row["unit_equal"] = K.unit_equal
        h_K, _, orbits = class_counts(K)
        row["h_K"] = h_K
        row["orbits"] = orbits
        if "regression" in checks and entry.expected_hK is not None:
            if entry.expected_hK != h_K:
                raise InequalityViolated(f"expected h_K = {entry.expected_hK}, computed {h_K}")
            row["regression"] = "ok"
        if "genus" in checks and K.unit_equal:
            t, bound = lower_bound_t(K)
            if entry.expected_t is not None and entry.expected_t != t:
                raise InequalityViolated(f"expected t = {entry.expected_t}, computed {t}")
            row["genus"] = f"2^{t - 1}<={h_K}"
        if "vsum" in checks and K.unit_equal:
            rep = dseries.vsum_check(K)
            row["vsum"] = f"{rep['partial_sum']}<={rep['h']}"
        if "lemma41" in checks and K.unit_equal and K.rel_disc_norm > 4**K.F.n:
            bp = bnd.bound_params(K)
            row["lemma41"] = f"V={bp.V:.4g},U={bp.U:.4g},R={bp.R}"
        if "normcounts" in checks and "measures" in checks and K.unit_equal:
            # one scan of the lines of o_K, at the larger bound, serves both
            # checks: line_norms keeps it on K and filters it to each bound
            bound = max(bnd.norm_count_scan_bound(K, t_a), dseries.mu_K_scan_bound(max(samples)))
            dseries.line_norms(K, K.maximal_order(), bound)
        if "normcounts" in checks and K.unit_equal:
            lat = lattice(K.F)
            bnd.norm_count_check_K(K, K.maximal_order(), t_a, lat)
            bnd.norm_count_check_F(K.F.unit_ideal(), Fraction(7), lat)
            row["normcounts"] = "ok"
        if "measures" in checks and K.unit_equal:
            lat = lattice(K.F)
            dseries.measure_compare(K, samples, lat.A1.hi, lat.A2.hi)
            row["measures"] = "ok"

    rows, worst = run_corpus(args.corpus, run_row)
    if rows is None:
        return worst
    summary = {
        "entries": len(rows),
        "checks": ",".join(checks),
        "violations": sum(1 for r in rows if str(r.get("status", "")).startswith("VIOLATION")),
    }
    sys.stdout.write(emit(rows if args.csv else {"summary": summary, "rows": rows}, args))
    return worst


def cmd_bound(args) -> int:
    strategy = args.strategy
    injected = None
    if strategy.startswith("injected:"):
        path = strategy.split(":", 1)[1]
        try:
            with open(path) as fh:
                injected = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidArgument(f"--strategy injected: cannot read {path}: {exc}") from None
        if not isinstance(injected, dict):
            raise InvalidArgument(f"--strategy injected: {path} holds no JSON object")
        strategy = "injected"
    elif strategy != "heuristic":
        raise InvalidArgument(f"--strategy takes heuristic or injected:FILE, got {strategy!r}")
    grid = None
    if args.lambda_grid is not None:
        try:
            grid = [float(x) for x in args.lambda_grid.split(",")]
        except ValueError:
            grid = []
        if not grid or not all(0 < x < math.inf for x in grid):
            raise InvalidArgument(
                f"--lambda-grid takes a comma list of finite positive numbers, got {args.lambda_grid!r}"
            )
    bundles: dict = {}

    def bundle(F):
        if F not in bundles:
            from . import bounds as bnd
            from . import hecke
            from .cascade import PRIME_CAP
            from .cm import make_cm

            # the G constants read no prime over p > PRIME_CAP, so the tables
            # stop there: a larger --pmax changes nothing
            cap = min(PRIME_CAP, args.pmax)
            table = hecke.gz_table(cap)
            if F.n == 2:
                table = hecke.base_change_table(table, F)
            f_table = hecke.twist_table(table, hecke.QuadChar(make_cm(F, -139)))
            bundles[F] = bnd.make_bundle(F, f_table, strategy, injected, lambda_grid=grid)
        return bundles[F]

    def run_row(entry, row):
        F = entry.field()
        delta = cm_radicand(F, F.elem(entry.delta_a, entry.delta_b))
        if not parity_applicable(F):
            raise ParityFails("the 37-splitting parity condition fails for this base field")
        from . import bounds as bnd
        from . import dseries
        from .cm import lower_bound_t, make_cm

        K = make_cm(F, delta)
        b = bundle(F)
        fc = bnd.final_C(b)
        fb = bnd.final_bound(K, b, C=fc["C"])
        t, genus_bound = lower_bound_t(K)
        vs = dseries.vsum_check(K)
        row.update(
            {
                "reldisc": K.rel_disc_norm,
                "t": t,
                "h_K": fb["h_K"],
                "genus_bound": genus_bound,
                "vsum_ok": vs["ok"],
                "bound": fmt(fb["bound"]),
                "branch_split": fmt(fb["branch_split"]),
                "branch_main": fmt(fb["branch_main"]),
                "C": fmt(fb["C"]),
                "lambda": fmt(float(fc["lambda"])),
                "slack": fmt(fb["slack"]),
                "rigor_G1": b.rigor["G1"],
            }
        )

    rows, worst = run_corpus(args.corpus, run_row)
    if rows is not None:
        sys.stdout.write(emit(rows, args))
    return worst
