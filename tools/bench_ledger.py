#!/usr/bin/env python3
"""Summarize cladobench runs of a parent and a change into a ledger.

Usage:
    bench_ledger.py [--json] <runs.jsonl>...

Each input line is one tagged run:
    {"side": "parent" | "change", "workload": "<name>", "trace": 0 | 1,
     "run": <the JSON line `python3 cladobench/run.py` printed last>}
A file may also be a ledger this tool wrote with --json; its "runs" are read.

Runs are grouped by (workload, trace). For every metric in a group the tool
prints the parent's and the change's median and interquartile range, the
change's median minus the parent's, and that delta in units of the parent's
IQR. When the repo's BENCHMARK.json names the metric's better direction,
it also counts the pairs (the i-th parent run against the i-th change run,
in input order, so alternating runs pair up) in which the change was better.

--json prints the ledger instead: {"runs": [...], "summary": [...]}, the
format of the committed BENCH_<n>.json files.

The tool reports and never gates: it exits 0 whatever the numbers say, and
2 only on malformed input.
"""

import argparse
import json
import os
import statistics
import sys

SIDES = ("parent", "change")


def quartiles(values):
    """Returns (q1, median, q3) by linear interpolation between order stats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            whole = json.loads(text)
        except ValueError:
            whole = None
        if isinstance(whole, dict) and "runs" in whole:
            runs.extend(whole["runs"])
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("side") not in SIDES or "workload" not in run or "run" not in run:
                raise ValueError(f"{path}:{lineno}: need side (parent|change), workload, run")
            runs.append(run)
    return runs


def directions():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def summarize(runs, better):
    groups = {}
    for run in runs:
        key = (run["workload"], int(run.get("trace", 0)))
        side = groups.setdefault(key, {s: [] for s in SIDES})
        side[run["side"]].append(run["run"].get("metrics", {}))

    summary = []
    for (workload, trace), sides in sorted(groups.items()):
        names = sorted({n for s in SIDES for m in sides[s] for n in m})
        for name in names:
            values = {s: [m[name]["value"] for m in sides[s] if name in m] for s in SIDES}
            row = {"workload": workload, "trace": trace, "metric": name}
            for s in SIDES:
                if values[s]:
                    q1, med, q3 = quartiles(values[s])
                    row[s] = {"n": len(values[s]), "median": med, "iqr": q3 - q1}
            if "parent" in row and "change" in row:
                delta = row["change"]["median"] - row["parent"]["median"]
                row["delta"] = delta
                iqr = row["parent"]["iqr"]
                row["delta_in_parent_iqr"] = delta / iqr if iqr > 0 else None
                direction = better.get(name)
                if direction in ("higher", "lower"):
                    pairs = list(zip(values["parent"], values["change"]))
                    sign = 1 if direction == "higher" else -1
                    row["change_better_pairs"] = sum(1 for p, c in pairs if sign * (c - p) > 0)
                    row["pairs"] = len(pairs)
            summary.append(row)
    return summary


def ledger_json(ledger):
    """JSON with one run or summary row per line, so ledgers diff line by line."""
    def value(v, indent):
        if isinstance(v, list):
            items = [" " * (indent + 1) + json.dumps(x) for x in v]
            return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
        if isinstance(v, dict):
            items = [" " * (indent + 1) + json.dumps(k) + ": " + value(x, indent + 1)
                     for k, x in v.items()]
            return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
        return json.dumps(v)
    return value(ledger, 0)


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def print_table(summary):
    group = None
    for row in summary:
        if (row["workload"], row["trace"]) != group:
            group = (row["workload"], row["trace"])
            print(f"== {row['workload']} trace={row['trace']}")
            print(f"  {'metric':32} {'parent med [IQR] n':>26} {'change med [IQR] n':>26}"
                  f" {'delta':>10} {'/IQR':>7} {'better':>7}")
        cells = []
        for s in SIDES:
            side = row.get(s)
            cells.append(f"{fmt(side['median'])} [{fmt(side['iqr'])}] {side['n']}" if side else "-")
        delta = fmt(row.get("delta"))
        ratio = fmt(row.get("delta_in_parent_iqr"))
        wins = f"{row['change_better_pairs']}/{row['pairs']}" if "pairs" in row else "-"
        print(f"  {row['metric']:32} {cells[0]:>26} {cells[1]:>26} {delta:>10} {ratio:>7}"
              f" {wins:>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+", help="tagged run lines or a --json ledger")
    parser.add_argument("--json", action="store_true", help="print the ledger as JSON")
    args = parser.parse_args()
    try:
        runs = load_runs(args.runs)
        summary = summarize(runs, directions())
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"bench_ledger: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(ledger_json({"runs": runs, "summary": summary}))
    else:
        print_table(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
