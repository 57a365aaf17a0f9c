#!/usr/bin/env python3
"""Organise bench output for check_shapes.py / reproduce.sh.

Three modes:

1. JSON (preferred): point it at a ``BENCH_*.json`` file, or at a
   directory containing several, and each report is pretty-printed to
   ``results/<artifact>.json``::

       scripts/split_bench_output.py build/bench results/

2. Text fallback: a concatenated ``for b in build/bench/*`` sweep
   transcript is split on banners into per-artifact ``.txt`` files,
   exactly as before the benches learned to emit JSON.

3. Trend diff: compare two machine-readable reports row by row::

       scripts/split_bench_output.py --diff old/BENCH_x.json new/BENCH_x.json

   Rows are keyed by (query, engine); every shared numeric metric gets
   a percentage delta, so a throughput regression shows up as e.g.
   ``gbps -12.3%``.
"""

import json
import re
import sys
from pathlib import Path

BANNER_TO_FILE = {
    "Table 4": "table4_datasets.txt",
    "Table 5": "table5_queries.txt",
    "Table 2": "table23_methods.txt",
    "Table 6": "table6_ff_ratio.txt",
    "Figure 10": "fig10_large_record.txt",
    "Figure 11": "fig11_small_seq.txt",
    "Figure 12": "fig12_small_par.txt",
    "Figure 13": "fig13_memory.txt",
    "Figure 14": "fig14_scalability.txt",
    "Ablation": "ablation.txt",
    "multiquery": "multiquery.txt",
    "Extension: descendant operator": "ext_descendant.txt",
}

SCHEMA = "jsonski-bench-v1"


def load_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a {SCHEMA} report "
                 f"(schema={doc.get('schema')!r})")
    return doc


def split_json(paths, out_dir: Path) -> None:
    out_dir.mkdir(exist_ok=True)
    for path in paths:
        doc = load_report(path)
        dest = out_dir / f"{doc['artifact']}.json"
        dest.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {dest} ({len(doc.get('rows', []))} rows)")


def split_text(src: Path, out_dir: Path) -> None:
    out_dir.mkdir(exist_ok=True)
    current = None
    chunks = {}
    for line in src.read_text().splitlines(keepends=True):
        m = re.match(r"^== (.+) ==$", line.rstrip())
        if m:
            label = m.group(1).strip()
            current = None
            for prefix, fname in BANNER_TO_FILE.items():
                if label.startswith(prefix):
                    current = fname
                    break
        if current:
            chunks.setdefault(current, []).append(line)
    for fname, lines in chunks.items():
        (out_dir / fname).write_text("".join(lines))
        print(f"wrote {out_dir / fname} ({len(lines)} lines)")


def numeric_metrics(row: dict):
    """Flat {name: value} for every numeric field, descending into the
    ff sub-object (telemetry is too deep to diff usefully here)."""
    out = {}
    for key, value in row.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
        elif key == "ff" and isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    out[f"ff.{k}"] = float(v)
    return out


def diff_reports(old_path: Path, new_path: Path) -> int:
    old_doc = load_report(old_path)
    new_doc = load_report(new_path)
    old_rows = {(r["query"], r["engine"]): r for r in old_doc["rows"]}
    new_rows = {(r["query"], r["engine"]): r for r in new_doc["rows"]}

    print(f"diff {old_path} -> {new_path} "
          f"(artifact {new_doc['artifact']})")
    shared = sorted(old_rows.keys() & new_rows.keys())
    for key in shared:
        old_m = numeric_metrics(old_rows[key])
        new_m = numeric_metrics(new_rows[key])
        deltas = []
        for name in sorted(old_m.keys() & new_m.keys()):
            a, b = old_m[name], new_m[name]
            if a == b:
                continue
            if a == 0:
                deltas.append(f"{name} {a:g} -> {b:g}")
            else:
                deltas.append(f"{name} {100.0 * (b - a) / a:+.1f}%")
        label = f"{key[0]} / {key[1]}"
        print(f"  {label}: {', '.join(deltas) if deltas else 'unchanged'}")
    for key in sorted(old_rows.keys() - new_rows.keys()):
        print(f"  {key[0]} / {key[1]}: removed")
    for key in sorted(new_rows.keys() - old_rows.keys()):
        print(f"  {key[0]} / {key[1]}: added")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--diff":
        if len(args) != 3:
            sys.exit("usage: split_bench_output.py --diff old.json new.json")
        return diff_reports(Path(args[1]), Path(args[2]))

    src = Path(args[0] if args else "bench_output.txt")
    out_dir = Path(args[1] if len(args) > 1 else "results")
    if src.is_dir():
        reports = sorted(src.glob("BENCH_*.json"))
        if not reports:
            sys.exit(f"{src}: no BENCH_*.json files found")
        split_json(reports, out_dir)
    elif src.suffix == ".json":
        split_json([src], out_dir)
    else:
        split_text(src, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
