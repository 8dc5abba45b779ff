"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories (or single files) of saved `run.py` standard
output, one run per file. Runs are grouped by the workload named in their
`{"info": ...}` line. For every workload and metric the table gives each
side's median and quartiles, the number of runs, and the ratio new/base of
the medians with the base named, e.g. `x1.042 vs base`.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _load(path: Path):
    """(workload, trace, metrics) of one saved run, or None if it has no result."""
    info, result = None, None
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "info" in obj:
            info = obj["info"]
        elif "metrics" in obj:
            result = obj
    if info is None or result is None:
        return None
    return info["workload"], info.get("trace", 0), result


def load_side(spec: str) -> dict:
    root = Path(spec)
    files = sorted(p for p in root.iterdir() if p.is_file()) if root.is_dir() else [root]
    runs: dict[tuple, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for f in files:
        loaded = _load(f)
        if loaded is None:
            continue
        workload, trace, result = loaded
        bucket = runs.setdefault((workload, trace), {})
        for name, m in result["metrics"].items():
            bucket.setdefault(name, []).append(float(m["value"]))
            units[name] = m["unit"]
    return {"runs": runs, "units": units}


def _summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(base_spec: str, new_spec: str) -> str:
    base, new = load_side(base_spec), load_side(new_spec)
    base_name, new_name = Path(base_spec).name or base_spec, Path(new_spec).name or new_spec
    lines = [f"base = {base_name}, new = {new_name}; median [q1, q3] (runs)"]
    for key in sorted(set(base["runs"]) | set(new["runs"])):
        workload, trace = key
        lines.append(f"\n{workload}" + (" (traced)" if trace else ""))
        b, n = base["runs"].get(key, {}), new["runs"].get(key, {})
        for metric in sorted(set(b) | set(n)):
            unit = base["units"].get(metric) or new["units"].get(metric, "")
            cells = []
            for side in (b, n):
                vals = side.get(metric)
                if vals:
                    med, q1, q3 = _summary(vals)
                    cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(vals)})")
                else:
                    cells.append("-")
            ratio = "-"
            if b.get(metric) and n.get(metric) and statistics.median(b[metric]) != 0:
                ratio = (f"x{statistics.median(n[metric]) / statistics.median(b[metric]):.3f}"
                         f" vs {base_name}")
            lines.append(f"  {metric:40s} {unit:9s} base {cells[0]:32s} new {cells[1]:32s} {ratio}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(compare(argv[0], argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
