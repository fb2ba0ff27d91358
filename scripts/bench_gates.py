#!/usr/bin/env python3
"""Check the bench reports in the current directory against bench/gates.json.

Each row of the table names a report (BENCH_<report>.json), a value, one
bound ("max" or "min") and the reason for it ("why"). The value is the
number that "path" reaches in the report. A path is "/"-separated, and
each segment is one of:
  key        a dict key (counter and histogram names keep their dots);
  a|b        several dict keys, each of which must exist;
  *          every child of a dict or list;
  field=N    the list entries whose field equals N.
A path that reaches more than one number needs "reduce" ("min" or "max").
With "per", the value is path / per, each resolved the same way.

Every gated number is simulated-clock time or a count, so it repeats
exactly from run to run. A row fails when its value crosses the bound,
and also when its report, a key or a list entry is missing.

usage (from the directory holding the reports):  scripts/bench_gates.py
Prints one line per row. Exit status: 0 all rows ok, 1 a row failed,
2 a malformed table or an argument given.
"""

import json
import os
import sys

GATES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "gates.json")
KEYS = {"report", "path", "per", "reduce", "max", "min", "why"}
REDUCERS = {"min": min, "max": max}


class GateError(Exception):
    """A malformed gates.json row."""


def load_gates(path=GATES):
    """Returns the rows of a gates table; raises GateError on a bad row."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    for index, row in enumerate(rows):
        where = f"{path} row {index}"
        unknown = sorted(set(row) - KEYS)
        if unknown:
            raise GateError(f"{where}: unknown key(s) {unknown}")
        missing = sorted({"report", "path", "why"} - set(row))
        if missing:
            raise GateError(f"{where}: missing key(s) {missing}")
        if ("max" in row) == ("min" in row):
            raise GateError(f"{where}: needs exactly one of max and min")
        if row.get("reduce", "min") not in REDUCERS:
            raise GateError(f"{where}: reduce must be min or max")
    return rows


def lookup(node, segments):
    """Yields every value `segments` reaches under `node`."""
    if not segments:
        yield node
        return
    head, rest = segments[0], segments[1:]
    if head == "*":
        children = list(node.values() if isinstance(node, dict) else node)
    elif "=" in head:
        field, want = head.split("=", 1)
        children = [entry for entry in node if entry.get(field) == float(want)]
    else:
        children = [node[key] for key in head.split("|")]
    if not children:
        raise KeyError(head)
    for child in children:
        yield from lookup(child, rest)


def resolve(report, path, reduce):
    values = list(lookup(report, path.split("/")))
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        raise TypeError(f"{path} reaches a non-number")
    if len(values) > 1 and reduce is None:
        raise TypeError(f"{path} reaches {len(values)} numbers; "
                        "the row needs reduce")
    return REDUCERS[reduce or "min"](values)


def check(row, reports):
    """Returns (line, ok) for one row; `reports` caches parsed reports."""
    kind = "max" if "max" in row else "min"
    bound = row[kind]
    label = f"{row['report']} {row['path']}"
    if "per" in row:
        label += f" / {row['per']}"
    try:
        name = f"BENCH_{row['report']}.json"
        if name not in reports:
            with open(name, encoding="utf-8") as fh:
                reports[name] = json.load(fh)
        value = resolve(reports[name], row["path"], row.get("reduce"))
        if "per" in row:
            value = value / resolve(reports[name], row["per"], row.get("reduce"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        return f"FAIL {label}: no value ({type(exc).__name__}: {exc})", False
    ok = value <= bound if kind == "max" else value >= bound
    shown = f"{value:.6g}" if isinstance(value, float) else value
    return f"{'ok  ' if ok else 'FAIL'} {label}: {shown} ({kind} {bound})", ok


def main(argv):
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = load_gates()
    except (OSError, ValueError, GateError) as exc:
        print(f"bench_gates: {exc}", file=sys.stderr)
        return 2
    reports = {}
    failed = 0
    for row in rows:
        line, ok = check(row, reports)
        print(line)
        failed += not ok
    print(f"bench_gates: {len(rows) - failed}/{len(rows)} rows ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
