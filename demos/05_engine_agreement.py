"""Do the two simulators tell the same story?

The 3D engine builds a fresh city every run and ray-tests pooled circle
users; the geometry engine never builds a city at all.  Run both over
an elevation grid in the same environment and look at the gap, with the
independence-product model alongside to show where a closed form drifts
optimistic.

Sample sizes here are trimmed for a quick run; the shipped acceptance
test does the same comparison at full size in three environments.
"""

import time

from uavlos import ENVIRONMENTS, compare_engines

ENV = "dense-urban"
THETAS = (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)


def main() -> None:
    params = ENVIRONMENTS[ENV]
    start = time.perf_counter()
    rows = compare_engines(params, THETAS, n3d=120, ngeom=600, seed=0)
    elapsed = time.perf_counter() - start

    print(f"{ENV}: 120 cities/point for the 3D engine, 600 links/point "
          f"for the geometry engine ({elapsed:.1f}s)\n")
    print(f"{'theta':>6} {'3D':>7} {'geometry':>9} {'|delta|':>8} {'grid model':>11}")
    for row in rows:
        print(f"{row.theta_deg:>6.0f} {row.sim3d.p_hat:>7.3f} {row.geom.p_hat:>9.3f} "
              f"{row.abs_delta:>8.3f} {row.baselines['grid']:>11.3f}")

    worst = max(r.abs_delta for r in rows)
    print(f"\nlargest engine gap: {worst:.3f}")


if __name__ == "__main__":
    main()
