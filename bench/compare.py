"""Compare two run records written by ``bench/run.py``.

    python3 bench/compare.py .bench_out/BASE.json .bench_out/NEW.json

Refuses (exit code 2) when the records ran different workloads or different
inputs: the input digest hashes every generated parameter, so a changed
sampler shows as a changed workload rather than as a speed-up.  Otherwise
prints each metric of both runs with the ratio new / base.
"""
from __future__ import annotations

import json
import sys


def compare(base: dict, new: dict) -> list[str]:
    """Lines comparing the metrics of two records; raises ValueError when the
    records are not comparable."""
    for key in ("workload", "trace", "digest"):
        if base[key] != new[key]:
            raise ValueError(f"records differ in {key}: {base[key]!r} vs "
                             f"{new[key]!r}; refusing to compare")
    lines = [f"workload {base['workload']}, digest {base['digest'][:16]}"]
    for name, m in base["metrics"].items():
        b, n = m["value"], new["metrics"][name]["value"]
        ratio = f"{n / b:.4f}" if b else "n/a"
        lines.append(f"  {name}: {b:.6g} -> {n:.6g} {m['unit']} (x{ratio})")
    lines.append(f"  failed: {base['failed']} -> {new['failed']}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        base, new = json.load(a), json.load(b)
    try:
        print("\n".join(compare(base, new)))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
