"""The set-up a user pays before any work: import relclass.cli, parse the
workload's input files and build their base fields with make_field.

    python perfbench/setup_probe.py FILE...

A ``.txt`` file is parsed as a corpus, a ``.json`` file as a box list.
Prints the path of the relclass package it imported.
"""

import json
import sys

from relclass import cli
from relclass.field import make_field


def main(paths: list[str]) -> int:
    fields = set()
    for path in paths:
        if path.endswith(".json"):
            fields |= {(1, None) if b["m"] is None else (2, b["m"]) for b in json.load(open(path))}
        else:
            fields |= {(e.n, e.m) for e in cli.load_corpus(path)}
    for n, m in sorted(fields, key=str):
        make_field(n, m)
    print(cli.__file__)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
