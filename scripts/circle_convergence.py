"""Spectral versus geodesic distance on lattice circles.

For N = 8, 16, 32 vertices on the unit circle (or --sizes), builds the
incidence-Dirac triple and reports the entrywise deviation between the
spectral distance matrix and the shortest-path metric, and the wall time of
that comparison (the full distance matrix). At this resolution the two
coincide up to solver precision; the table makes that visible per lattice
size.
"""

import argparse
import json
import time

import finspec as fs
from finspec.geometry import compare_metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    for n in args.sizes:
        g, t = fs.lattice_circle(n, args.radius)
        start = time.perf_counter()
        report = compare_metrics(g, t, seed=args.seed)
        matrix_s = time.perf_counter() - start
        d_adj = fs.connes_distance(
            t, t.algebra.pure_state(0), t.algebra.pure_state(1), seed=args.seed
        )
        rows.append({
            "N": n,
            "spacing": 2 * 3.141592653589793 * args.radius / n,
            "adjacent_distance": d_adj.value,
            "max_relative_deviation": report.max_relative_deviation,
            "mean_relative_deviation": report.mean_relative_deviation,
            "matrix_s": matrix_s,
        })
        print(f"N={n:3d}  adjacent d={d_adj.value:.10f}  "
              f"max dev={report.max_relative_deviation:.2e}  "
              f"mean dev={report.mean_relative_deviation:.2e}  "
              f"matrix {matrix_s:.2f} s")
    print(json.dumps({"pass": True, "rows": rows}, indent=2))


if __name__ == "__main__":
    main()
