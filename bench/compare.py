"""Compare two result files written by ``python -m bench run --out``."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

COUNT_KEYS = ("user_slots", "sim_updates", "sim_energy_kj", "sim_decisions")


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for one lower-is-better metric.

    ``unresolved`` means the run-to-run spread of either side is wider than
    the bound, so a regression of the bound's size could hide in it — unless
    every run of B reads better than every run of A.
    """
    bound = a["bound"]
    if a["median"] == 0.0 and b["median"] == 0.0:  # no shard workers on either side
        return "same"
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (a, b))
    if spread > bound:
        return "better" if max(b["samples"]) < min(a["samples"]) else "unresolved"
    if b["median"] > a["median"] * (1.0 + bound):
        return "worse"
    if a["median"] - b["median"] > a["q3"] - a["q1"] and b["q3"] < a["q1"]:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> Tuple[List[str], bool]:
    """Report lines, and whether B is acceptable against A."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines = [
        f"A: {path_a}  commit {a['host']['git_commit']}  seed {a['seed']}  rounds {a['rounds']}",
        f"B: {path_b}  commit {b['host']['git_commit']}  seed {b['seed']}  rounds {b['rounds']}",
        f"{'workload':<22}{'metric':<13}{'A median [q1, q3]':>32}{'B median [q1, q3]':>32}"
        f"{'bound':>7}  verdict",
    ]
    ok = True
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            lines.append(f"{name:<22}missing from B")
            ok = False
            continue
        for metric, stats_a in side_a["metrics"].items():
            stats_b = side_b["metrics"][metric]
            result = verdict(stats_a, stats_b)
            ok = ok and result != "worse"

            def cell(stats: Dict[str, Any]) -> str:
                return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] {stats['unit']}"

            lines.append(
                f"{name:<22}{metric:<13}{cell(stats_a):>32}{cell(stats_b):>32}"
                f"{stats_a['bound']:>7.2f}  {result}"
            )
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side["failed_frac"] > 0:
                lines.append(f"{name:<22}failed_frac {side['failed_frac']:.4f} in {label}")
                ok = False
        if a["seed"] == b["seed"]:
            same = all(side_a[key] == side_b[key] for key in COUNT_KEYS)
            lines.append(f"{name:<22}sim counts {'identical' if same else 'DIFFER'}")
            ok = ok and same
    return lines, ok
