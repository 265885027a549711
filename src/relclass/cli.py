"""Batch front-end: corpus ingestion, invariant suites, bound tables.

Corpus lines are "n,m,delta_a,delta_b[,hK,t]" with delta = delta_a +
delta_b * omega; '#' comments.  Reports are byte-deterministic: sorted keys,
fixed-precision floats, rows emitted in input order.

Exit codes: 0 success, 1 inequality/lemma violation, 2 input error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

# Each command imports only what its work reaches: field the base field
# alone; the others cm with their first CM field, classify forms, verify
# bounds and dseries.  bound imports bounds, and mpmath, hecke and dseries
# once a row passes the parity test; that row's cascade runs at 128 bits.
from .errors import (
    AssumptionViolated,
    BoundViolated,
    InequalityViolated,
    LemmaViolation,
    NoFeasibleLambda,
    ParityFails,
    RelclassError,
    SearchBudgetExceeded,
)
from .field import make_field

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _emit(data, args) -> str:
    if args.csv:
        buf = io.StringIO()
        rows = data if isinstance(data, list) else [data]
        keys = sorted({k for r in rows for k in r})
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(keys)
        for r in rows:
            w.writerow([_fmt(r.get(k, "")) for k in keys])
        return buf.getvalue()
    return json.dumps(data, sort_keys=True, default=_fmt, indent=1) + "\n"


class CorpusEntry:
    def __init__(self, line: str, lineno: int):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (4, 5, 6):
            raise ValueError(f"line {lineno}: expected 4-6 fields, got {len(parts)}")
        self.n = int(parts[0])
        self.m = int(parts[1]) if parts[1] not in ("", "-") else None
        self.delta_a = int(parts[2])
        self.delta_b = int(parts[3])
        self.expected_hK = int(parts[4]) if len(parts) > 4 and parts[4] != "" else None
        self.expected_t = int(parts[5]) if len(parts) > 5 and parts[5] != "" else None
        self.lineno = lineno

    def field(self):
        return make_field(self.n, self.m)

    def cm(self):
        from .cm import make_cm

        F = self.field()
        return make_cm(F, F.elem(self.delta_a, self.delta_b))

    def label(self) -> str:
        if self.n == 1:
            return f"Q(sqrt({self.delta_a}))"
        return f"Q(sqrt{self.m})(sqrt({self.delta_a}+{self.delta_b}w))"


def load_corpus(path: str) -> list[CorpusEntry]:
    out = []
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            out.append(CorpusEntry(line, i))
    return out


def cmd_field(args) -> int:
    F = make_field(args.n, args.m)
    data = json.loads(F.to_json())
    data["regulator"] = F.regulator
    data["class_reps"] = len(F.class_reps)
    sys.stdout.write(_emit(data, args))
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import forms
    from .cm import class_counts, make_cm

    F = make_field(args.n, args.m)
    K = make_cm(F, F.elem(args.delta_a, args.delta_b))
    h_K, h, orbits = class_counts(K)
    strong, weak = forms.classify(K)
    decorated = []
    for Q in weak:
        decorated.append(
            (
                Q.norm_ideal().norm(),
                (Q.a.a, Q.a.b, Q.b.a, Q.b.b, Q.c.a, Q.c.b),
                {
                    "a": str(Q.a),
                    "b": str(Q.b),
                    "c": str(Q.c),
                    "norm_ideal": _fmt(Q.norm_ideal().norm()),
                    "disc_ideal": _fmt(Q.disc_ideal().norm()),
                },
            )
        )
    decorated.sort(key=lambda t: (t[0], t[1]))
    entries = [t[2] for t in decorated]
    data = {
        "field": K.F.to_json(),
        "reldisc": K.rel_disc_norm,
        "h_K": h_K,
        "h": h,
        "weak_classes": len(weak),
        "strong_refinements": len(strong),
        "orbits": orbits,
        "bijection_ok": len(weak) == orbits and len(weak) <= h_K <= 2 * len(weak),
        "unit_equal": K.unit_equal,
        "classes": entries,
    }
    sys.stdout.write(_emit(data, args))
    return EXIT_OK if data["bijection_ok"] else EXIT_VIOLATION


# Row status prefix and exit code for each error a corpus row or a
# single-field command may end in, matched on the error's class or nearest
# listed base class; any other RelclassError is an input error.
ROW_OUTCOMES = {
    InequalityViolated: ("VIOLATION", EXIT_VIOLATION),
    LemmaViolation: ("VIOLATION", EXIT_VIOLATION),
    BoundViolated: ("VIOLATION", EXIT_VIOLATION),
    SearchBudgetExceeded: ("BUDGET", EXIT_BUDGET),
    AssumptionViolated: ("skipped", EXIT_OK),
    ParityFails: ("ParityFails", EXIT_OK),
    NoFeasibleLambda: ("NoFeasibleLambda", EXIT_OK),
}


def outcome(exc: RelclassError) -> tuple[str, int]:
    """(status prefix, exit code) of a package error, from ROW_OUTCOMES."""
    listed = [ROW_OUTCOMES[t] for t in type(exc).__mro__ if t in ROW_OUTCOMES]
    return listed[0] if listed else (f"INPUT: {type(exc).__name__}", EXIT_INPUT)


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


ALL_CHECKS = ("regression", "genus", "vsum", "lemma41", "normcounts", "measures")


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
        if "normcounts" in checks and K.unit_equal:
            lat = lattice(K.F)
            bnd.norm_count_check_K(K, K.maximal_order(), Fraction(5), lat)
            bnd.norm_count_check_F(K.F, K.F.unit_ideal(), Fraction(7), lat)
            row["normcounts"] = "ok"
        if "measures" in checks and K.unit_equal:
            lat = lattice(K.F)
            dseries.measure_compare(K, [2.0, 5.0, 10.0], lat.A1.hi, lat.A2.hi)
            row["measures"] = "ok"

    rows, worst = run_corpus(args.corpus, run_row)
    if rows is None:
        return worst
    summary = {
        "entries": len(rows),
        "checks": ",".join(checks),
        "violations": sum(1 for r in rows if str(r.get("status", "")).startswith("VIOLATION")),
    }
    sys.stdout.write(_emit(rows if args.csv else {"summary": summary, "rows": rows}, args))
    return worst


def cmd_bound(args) -> int:
    from . import bounds as bnd
    from .cm import lower_bound_t, make_cm

    strategy = args.strategy
    injected = None
    if strategy.startswith("injected:"):
        with open(strategy.split(":", 1)[1]) as fh:
            injected = json.load(fh)
        strategy = "injected"
    grid = [float(x) for x in args.lambda_grid.split(",")] if args.lambda_grid else None
    bundles: dict = {}

    def bundle(F):
        if F not in bundles:
            from . import hecke

            table = hecke.gz_table(args.pmax)
            if F.n == 2:
                table = hecke.base_change_table(table, F)
            f_table = hecke.twist_table(table, hecke.QuadChar(make_cm(F, -139)))
            bundles[F] = bnd.make_bundle(
                F, f_table, strategy, injected, lambda_grid=grid, prime_cap=min(300, args.pmax)
            )
        return bundles[F]

    def run_row(entry, row):
        K = entry.cm()
        if not bnd.parity_applicable(K.F):
            raise ParityFails("the 37-splitting parity condition fails for this base field")
        import mpmath

        from . import dseries

        with mpmath.workprec(128):
            b = bundle(K.F)
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
                "bound": _fmt(fb["bound"]),
                "branch_split": _fmt(fb["branch_split"]),
                "branch_main": _fmt(fb["branch_main"]),
                "C": _fmt(fb["C"]),
                "lambda": _fmt(float(fc["lambda"])),
                "slack": _fmt(fb["slack"]),
                "rigor_G1": b.rigor["G1"],
            }
        )

    rows, worst = run_corpus(args.corpus, run_row)
    if rows is not None:
        sys.stdout.write(_emit(rows, args))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="relclass", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="base field report")
    p_field.set_defaults(run=cmd_field)
    p_field.add_argument("--n", type=int, required=True)
    p_field.add_argument("--m", type=int, default=None)

    p_cls = sub.add_parser("classify", help="form classes of one extension")
    p_cls.set_defaults(run=cmd_classify)
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--m", type=int, default=None)
    p_cls.add_argument("--delta-a", dest="delta_a", type=int, required=True)
    p_cls.add_argument("--delta-b", dest="delta_b", type=int, default=0)

    p_ver = sub.add_parser("verify", help="invariant suites over a corpus")
    p_ver.set_defaults(run=cmd_verify)
    p_ver.add_argument("--corpus", required=True)
    p_ver.add_argument("--checks", default=None, help=",".join(ALL_CHECKS))

    p_bnd = sub.add_parser("bound", help="per-extension bound table")
    p_bnd.set_defaults(run=cmd_bound)
    p_bnd.add_argument("--corpus", required=True)
    p_bnd.add_argument("--strategy", default="heuristic")
    p_bnd.add_argument("--lambda-grid", dest="lambda_grid", default=None)
    p_bnd.add_argument("--pmax", type=int, default=2000)

    for p in (p_field, p_cls, p_ver, p_bnd):
        p.add_argument("--csv", action="store_true")

    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except RelclassError as exc:
        # field and classify report one object, so its error ends the command;
        # a row status that exits 0 (such as skipped) still leaves it unanswered
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return outcome(exc)[1] or EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
