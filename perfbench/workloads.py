"""The four workloads: their seeded inputs, the child processes of one pass,
and the check of every output against the references in ``refs/``.

A pass is what one closed-loop client asks of the program at a time; its
requests run one after another, each in a fresh process.  ``verify`` and
``bound`` run a fixed slice of each corpus in fixed chunks of CHUNK_ROWS
rows, one corpus file and process per chunk, and the seed sets the order of
the chunks and of the rows in each.  ``boxes`` and ``classify`` take their inputs
from fixed pools cut into strata by a measure of their cost, the middle input
of every stratum, and the seed sets the order in which they run.  Drawing a
different input per stratum for each seed made the spread between seeds
larger than the benchmark's bounds (item_p50_ms on boxes, wall_s on
classify), so every seed runs the same work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"
REFS = BENCH / "refs"

# Every tenth row keeps one pass near six seconds at the seed commit while
# still covering all four quartic base fields and the largest q50 class
# number (h = 56).  The full corpora take about 75 s (verify) and 32 s
# (bound), which would not leave three passes inside one run.
VERIFY_HALVES = (("quartic80", slice(0, None, 10)), ("q50", slice(0, None, 10)))
# bound: the quartic slice keeps two rows over Q(sqrt 3), the only base
# field where the parity condition holds, so the D/B/G/E/F cascade runs;
# the other rows end in ParityFails, which is part of the reference.
BOUND_HALVES = (("quartic80", slice(0, None, 8)), ("q50", slice(0, None, 10)))
# Rows per process.  Short processes leave gaps between them where the
# runner samples the host's speed (run.py); fixed chunks keep what each
# process can cache the same for every seed.
CHUNK_ROWS = 3
BOUND_ARGS = {
    "q50": ["--lambda-grid", "1e29,1e30,1e31", "--pmax", "500"],
    # 1e29-1e31 is infeasible for every parity-applicable quartic row.
    "quartic80": ["--lambda-grid", "1e41,1e45,1e50", "--pmax", "500"],
}
BOX_FIELDS = (None, 2, 3, 5, 13)  # radicands; None is Q
BOX_POOL_PER_FIELD = 60
BOX_STRATA_PER_FIELD = 20  # a pass runs the middle box of each


@dataclass
class Request:
    """One child process: ``target`` is ``cli`` (python -m relclass.cli) or
    ``boxes`` (perfbench/boxdriver.py); ``check(rc, stdout)`` returns the
    number of failed items among ``items``."""

    target: str
    args: list
    items: int
    check: object
    timings: Path | None = None
    label: str = ""


def corpus_rows(name: str) -> list[str]:
    """Data lines of a corpus file, comments and blanks dropped."""
    out = []
    for raw in (CORPUS / f"{name}.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def row_label(line: str) -> str:
    """The entry label the CLI prints for a corpus line."""
    n, m, a, b = [p.strip() for p in line.split(",")[:4]]
    if n == "1":
        return f"Q(sqrt({a}))"
    return f"Q(sqrt{m})(sqrt({a}+{b}w))"


def load_refs(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


def _dump(data) -> str:
    # The CLI's JSON layout (relclass.cli._emit); rebuilding it from the
    # reference rows makes a one-byte change of the report visible.
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# -- verify and bound --------------------------------------------------------------


def _corpus_requests(workload, halves, seed, k, work: Path, refs: dict):
    rng = _rng(workload, seed, k)
    reqs = []
    for name, sl in halves:
        rows = corpus_rows(name)[sl]
        chunks = [rows[i : i + CHUNK_ROWS] for i in range(0, len(rows), CHUNK_ROWS)]
        rng.shuffle(chunks)
        for j, chunk in enumerate(chunks):
            rng.shuffle(chunk)
            reqs.append(_corpus_request(workload, name, chunk, work / f"{workload}-{name}-{k}-{j}.txt", refs))
    return reqs


def _corpus_request(workload, name, rows, path: Path, refs: dict) -> Request:
    path.write_text("\n".join(rows) + "\n")
    args = [workload, "--corpus", str(path)]
    args += BOUND_ARGS[name] if workload == "bound" else []
    labels = [row_label(r) for r in rows]
    checker = _rows_checker(workload, labels, refs[name])
    return Request("cli", args, len(rows), checker, label=f"{workload}:{name}")


def _rows_checker(workload: str, labels: list[str], ref: dict):
    """Rows are compared one by one against the reference row of their label
    (without ``line``); the whole report is then compared byte for byte with
    the one the reference rows give, so a format change fails every row."""

    def check(rc: int, stdout: str) -> int:
        if rc != 0:
            return len(labels)
        try:
            data = json.loads(stdout)
            rows = data["rows"] if workload == "verify" else data
        except (ValueError, KeyError, TypeError):
            return len(labels)
        if not isinstance(rows, list) or len(rows) != len(labels):
            return len(labels)
        failed = 0
        expected_rows = []
        for i, (label, row) in enumerate(zip(labels, rows)):
            want = dict(ref["rows"][label], line=i + 1)
            expected_rows.append(want)
            if row != want:
                failed += 1
        if workload == "verify":
            want_summary = dict(ref["summary"], entries=len(labels))
            expected = _dump({"summary": want_summary, "rows": expected_rows})
        else:
            expected = _dump(expected_rows)
        if stdout != expected and failed == 0:
            failed = len(labels)
        return failed

    return check


# -- boxes -------------------------------------------------------------------------


def box_pool() -> list[dict]:
    """Boxes drawn as acceptance criterion 7 draws them, with its seed: an
    ideal above 1, 2, 3 or 5, a centre in (1/2)Z, and widths just above the
    T0 N(a) precondition.  Needs relclass importable; used by make_refs.py
    only, the pool itself is stored in refs/boxes.json."""
    from relclass import bounds as bnd
    from relclass.field import make_field

    rng = random.Random(11)
    pool = []
    for m in BOX_FIELDS:
        F = make_field(1) if m is None else make_field(2, m)
        lat = bnd.lattice_constants(F)
        ideals = [F.unit_ideal()] + [pr.ideal for p in (2, 3, 5) for pr in F.splitting(p).primes]
        for _ in range(BOX_POOL_PER_FIELD):
            idl = ideals[rng.randrange(len(ideals))]
            x0 = [Fraction(rng.randrange(-8, 9), 2) for _ in range(F.n)]
            base = (lat.T0.hi * float(idl.norm())) ** (1.0 / F.n)
            c = [Fraction(math.ceil((base + rng.random() * 4) * 8), 8) for _ in range(F.n)]
            pool.append(
                {
                    "m": m,
                    "num": idl.num,
                    "den": idl.den,
                    "x0": [str(v) for v in x0],
                    "c": [str(v) for v in c],
                }
            )
    return pool


def _box_scan_size(box: dict) -> Fraction:
    """(|x0| + c)^2 / N(a), summed over embeddings: the scan behind
    count_box grows with it (rank correlation 0.9 with the seed commit's
    time per box)."""
    norm = Fraction(math.prod(row[i] for i, row in enumerate(box["num"])), box["den"] ** len(box["num"]))
    reach = sum(abs(Fraction(v)) for v in box["x0"]) + sum(Fraction(v) for v in box["c"])
    return reach * reach / norm


def _box_requests(seed, k, work: Path, refs: dict):
    rng = _rng("boxes", seed, k)
    chosen = []
    n = BOX_STRATA_PER_FIELD
    for m in BOX_FIELDS:
        idx = [i for i, b in enumerate(refs["pool"]) if b["m"] == m]
        idx.sort(key=lambda i: _box_scan_size(refs["pool"][i]))
        chosen += [idx[(2 * j + 1) * len(idx) // (2 * n)] for j in range(n)]
    rng.shuffle(chosen)
    path = work / f"boxes-{k}.json"
    path.write_text(json.dumps([refs["pool"][i] for i in chosen]))
    timings = work / f"boxes-{k}.times"
    counts = [refs["counts"][i] for i in chosen]

    def check(rc: int, stdout: str) -> int:
        lines = stdout.splitlines()
        if rc != 0 or len(lines) != len(counts):
            return len(counts)
        failed = 0
        for line, want in zip(lines, counts):
            try:
                got = json.loads(line)
            except ValueError:
                got = None
            if got != {"count": want, "ok": True}:
                failed += 1
        return failed

    return [Request("boxes", [str(path), str(timings)], len(chosen), check, timings, "boxes")]


# -- classify ----------------------------------------------------------------------


def classify_fields() -> list[str]:
    """Corpus lines of the fields classify draws from: all of q50, and the
    quartic80 fields with h <= 4.  The 18 quartic fields with h > 4 take
    0.8-9 s per call at the seed commit, so drawing one would set a run's
    item_p90_ms; verify's quartic slice runs large class groups, and q50
    keeps the class-group closure at h up to 56 here."""
    return corpus_rows("q50") + [r for r in corpus_rows("quartic80") if int(r.split(",")[4]) <= 4]


# Strata per corpus.  Each corpus's fields are sorted by (h, norm of the
# relative discriminant), the two things that set the cost of a call, and
# cut into this many strata of equal size; a pass runs the middle field of
# each, so every pass of every seed holds the same work.
CLASSIFY_STRATA = {"1": 6, "2": 7}


def classify_strata(refs: dict) -> list[list[str]]:
    strata = []
    for n, count in CLASSIFY_STRATA.items():
        lines = [r for r in classify_fields() if r.split(",")[0] == n]
        reldisc = {r: json.loads(refs[row_label(r)]["stdout"])["reldisc"] for r in lines}
        lines.sort(key=lambda r: (int(r.split(",")[4]), reldisc[r], r))
        strata += [lines[i * len(lines) // count : (i + 1) * len(lines) // count] for i in range(count)]
    return strata


def classify_args(line: str) -> list[str]:
    n, m, a, b = [p.strip() for p in line.split(",")[:4]]
    args = ["classify", "--n", n]
    if m not in ("", "-"):
        args += ["--m", m]
    return args + ["--delta-a", a, "--delta-b", b]


def _classify_requests(seed, k, work: Path, refs: dict):
    rng = _rng("classify", seed, k)
    chosen = [stratum[len(stratum) // 2] for stratum in classify_strata(refs)]
    rng.shuffle(chosen)
    (work / f"classify-{k}.txt").write_text("\n".join(chosen) + "\n")
    reqs = []
    for line in chosen:
        label = row_label(line)
        ref = refs[label]
        expected_hK = int(line.split(",")[4])

        def check(rc, stdout, ref=ref, expected_hK=expected_hK):
            if rc != ref["rc"] or stdout != ref["stdout"]:
                return 1
            # independent of the reference run: the corpus's own h_K
            return 0 if json.loads(stdout)["h_K"] == expected_hK else 1

        reqs.append(Request("cli", classify_args(line), 1, check, label=label))
    return reqs


# -- entry point -------------------------------------------------------------------

WORKLOADS = ("verify", "bound", "boxes", "classify")
# Where a workload's latency samples come from: the box driver's per-call
# timings, each request's process, or the whole pass.  verify and bound take
# the pass: their chunks differ in size, and a percentile over a few samples
# of each falls between two chunks and moves with the noise of both.
LATENCY = {"verify": "pass", "bound": "pass", "boxes": "timings", "classify": "request"}


def pass_requests(workload: str, seed: int, k: int, work: Path, refs: dict) -> list[Request]:
    """The requests of pass ``k`` of a run with ``seed``."""
    if workload == "verify":
        return _corpus_requests("verify", VERIFY_HALVES, seed, k, work, refs)
    if workload == "bound":
        return _corpus_requests("bound", BOUND_HALVES, seed, k, work, refs)
    if workload == "boxes":
        return _box_requests(seed, k, work, refs)
    if workload == "classify":
        return _classify_requests(seed, k, work, refs)
    raise ValueError(f"unknown workload {workload!r}")


def setup_files(workload: str, k: int, work: Path, requests: list[Request]) -> list[str]:
    """The input files pass ``k`` parses, for the set-up probe."""
    if workload in ("verify", "bound"):
        return [r.args[2] for r in requests]
    if workload == "boxes":
        return [requests[0].args[0]]
    return [str(work / f"classify-{k}.txt")]
