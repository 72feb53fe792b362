"""Compare two benchmark reports written by ``python3 -m bench run --out``.

    python3 bench/compare.py A.json B.json

One row per workload and end-to-end metric: each side's median and
quartiles, B's change against A, and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

``worse`` / ``better``
    B's median is further than the bound from A's, against B / in B's
    favour;
``unchanged``
    the medians are within the bound of each other;
``unresolved``
    a side's quartile spread exceeds the bound, so the medians are not
    known to that precision -- unless every run of one side beats every
    run of the other, which settles the order whatever the spread.

The counted :data:`GUARDS` may not grow at all.  Exits 1 when any row
is worse, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer counts that no change may increase (absolute bound 0):
#: chaos runs that leave state un-quiesced.
GUARDS = ("core.failures.quiesce_violations",)


def _spread(side: dict) -> float:
    return (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """B's relative change against A, and the verdict for it.

    ``a`` and ``b`` hold ``values``, ``median``, ``q1`` and ``q3``.
    """
    sign = 1.0 if better == "lower" else -1.0
    if a["median"]:
        change = (b["median"] - a["median"]) / abs(a["median"])
    else:  # from zero, any move is beyond every relative bound
        change = math.copysign(math.inf, b["median"]) if b["median"] else 0.0
    worse_by = sign * change
    # Oriented so that lower is better on both sides.
    ranked_a = [sign * v for v in a["values"]]
    ranked_b = [sign * v for v in b["values"]]
    separated = max(ranked_b) < min(ranked_a) or max(ranked_a) < min(ranked_b)
    if max(_spread(a), _spread(b)) > bound and not separated:
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "unchanged"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """Rows for every workload both reports measured."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = side_a["end_to_end"][name], side_b["end_to_end"][name]
            change, result = verdict(ma, mb, metric["better"], metric["bound"])
            rows.append(
                {"workload": workload, "metric": name, "a": ma, "b": mb,
                 "change": change, "bound": metric["bound"], "verdict": result}
            )
        for name in GUARDS:
            va, vb = side_a["per_layer"][name], side_b["per_layer"][name]
            result = "worse" if vb > va else "better" if vb < va else "unchanged"
            rows.append(
                {"workload": workload, "metric": name,
                 "a": {"median": va, "q1": va, "q3": va},
                 "b": {"median": vb, "q1": vb, "q3": vb},
                 "change": vb - va, "bound": 0, "verdict": result}
            )
    return rows


def _cell(side: dict) -> str:
    return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, json.loads(SPEC_PATH.read_text()))
    print(f"A: {argv[0]} (seed {a['seed']}, {a['machine']['cpu_model']})")
    print(f"B: {argv[1]} (seed {b['seed']}, {b['machine']['cpu_model']})")
    print(
        f"{'workload':18s} {'metric':34s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        if row["metric"] in GUARDS:
            change = f"{row['change']:+g}"
        else:
            change = f"{row['change']:+.2%}"
        print(
            f"{row['workload']:18s} {row['metric']:34s} {_cell(row['a']):>34s} "
            f"{_cell(row['b']):>34s} {change:>8s} {row['bound']:>6g}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
