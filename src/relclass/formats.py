"""The formats the commands read and write: corpus lines, reports, and exit
codes with the row status that each package error gives.

Corpus lines are "n,m,delta_a,delta_b[,hK,t]" with delta = delta_a +
delta_b * omega; '#' comments.  Reports are byte-deterministic: sorted keys,
fixed-precision floats, rows emitted in input order; JSON unless --csv is
given.

Exit codes: 0 success, 1 inequality/lemma violation, 2 input error,
3 budget exceeded.
"""

from __future__ import annotations

import json
from fractions import Fraction

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

# the checks of verify, which name the keys of its rows
ALL_CHECKS = ("regression", "genus", "vsum", "lemma41", "normcounts", "measures")


def fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def emit(data, args) -> str:
    if args.csv:
        import csv
        import io

        buf = io.StringIO()
        rows = data if isinstance(data, list) else [data]
        keys = sorted({k for r in rows for k in r})
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(keys)
        for r in rows:
            w.writerow([fmt(r.get(k, "")) for k in keys])
        return buf.getvalue()
    return json.dumps(data, sort_keys=True, default=fmt, indent=1) + "\n"


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
        if self.n == 1 and self.m is None and self.delta_b == 0:
            return f"Q(sqrt({self.delta_a}))"
        if self.n == 1:  # a malformed row: show the m and delta_b it carries
            m = "-" if self.m is None else self.m
            return f"Q(sqrt({self.delta_a}+{self.delta_b}w))[m={m}]"
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
