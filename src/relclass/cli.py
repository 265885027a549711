"""Batch front-end: corpus ingestion, invariant suites, bound tables.

Corpus lines are "n,m,delta_a,delta_b[,hK,t]" with delta = delta_a +
delta_b * omega; '#' comments.  Reports are byte-deterministic: sorted keys,
fixed-precision floats, rows emitted in input order.

Exit codes: 0 success, 1 inequality/lemma violation, 2 input error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports only what its work reaches: field the base field
# alone, classify cm and forms, and csv only under --csv.  verify and bound,
# the commands over a corpus, live in relclass.corpus and load it when run.
from .errors import RelclassError
from .field import make_field
from .formats import ALL_CHECKS, EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, emit, fmt, outcome
# re-exported: perfbench/setup_probe.py reads corpora through relclass.cli
from .formats import load_corpus  # noqa: F401


def cmd_field(args) -> int:
    F = make_field(args.n, args.m)
    data = json.loads(F.to_json())
    data["regulator"] = F.regulator
    data["class_reps"] = len(F.class_reps)
    sys.stdout.write(emit(data, args))
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
                    "norm_ideal": fmt(Q.norm_ideal().norm()),
                    "disc_ideal": fmt(Q.disc_ideal().norm()),
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
    sys.stdout.write(emit(data, args))
    return EXIT_OK if data["bijection_ok"] else EXIT_VIOLATION


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
    p_ver.add_argument("--corpus", required=True)
    p_ver.add_argument("--checks", default=None, help=",".join(ALL_CHECKS))

    p_bnd = sub.add_parser("bound", help="per-extension bound table")
    p_bnd.add_argument("--corpus", required=True)
    p_bnd.add_argument("--strategy", default="heuristic")
    p_bnd.add_argument("--lambda-grid", dest="lambda_grid", default=None)
    p_bnd.add_argument("--pmax", type=int, default=2000)

    for p in (p_field, p_cls, p_ver, p_bnd):
        p.add_argument("--csv", action="store_true")

    args = ap.parse_args(argv)
    run = getattr(args, "run", None)
    if run is None:
        from . import corpus

        run = {"verify": corpus.cmd_verify, "bound": corpus.cmd_bound}[args.command]
    try:
        return run(args)
    except RelclassError as exc:
        # field and classify report one object, so its error ends the command;
        # a row status that exits 0 (such as skipped) still leaves it unanswered
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return outcome(exc)[1] or EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
