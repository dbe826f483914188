#!/usr/bin/env python3
"""Inserts measured Criterion results into EXPERIMENTS.md.

Parses bench_output.txt (the `cargo bench -p graql-bench` transcript) and
replaces each `<!--BENCH:group-->` marker with a markdown table of the
group's median times.

Usage: python3 scripts/fill_experiments.py [bench_output.txt] [EXPERIMENTS.md]
"""

import re
import sys


def parse(bench_path):
    groups = {}   # group -> list of (bench id, low, mid, high)
    text = open(bench_path, encoding="utf-8").read()
    # Criterion emits "group/name[/param]\n  time: [lo mid hi]".
    # Criterion puts short ids and their time on one line, longer ids on
    # two; accept both.
    pat = re.compile(
        r"^([A-Za-z0-9_]+)/(\S+)\s*\n?\s+time:\s+\[(\S+ \S+) (\S+ \S+) (\S+ \S+)\]",
        re.M,
    )
    for m in pat.finditer(text):
        group, bench = m.group(1), m.group(2)
        groups.setdefault(group, []).append((bench, m.group(3), m.group(4), m.group(5)))
    return groups


def table(rows):
    out = ["| bench | median time |", "|---|---|"]
    for bench, _lo, mid, _hi in rows:
        out.append(f"| `{bench}` | {mid} |")
    return "\n".join(out)


def main():
    bench_path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    md_path = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"
    groups = parse(bench_path)
    md = open(md_path, encoding="utf-8").read()
    missing = []
    for group in re.findall(r"<!--BENCH:([a-z_]+)-->", md):
        if group not in groups:
            missing.append(group)
            continue
        md = md.replace(f"<!--BENCH:{group}-->", table(groups[group]))
    open(md_path, "w", encoding="utf-8").write(md)
    if missing:
        print(f"WARNING: no results found for: {', '.join(missing)}")
    print(f"filled {len(groups)} groups into {md_path}")


if __name__ == "__main__":
    main()
