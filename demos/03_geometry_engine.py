"""The geometry engine, from a single link to a full estimate.

No city is materialized here.  For one user/UAV pair the engine lists
the handful of buildings the ground track enters, compares the ray
height at each entry point against that building's Rayleigh roof and
calls the link.  This script prints that candidate list for one link, then runs
the estimator over elevation angles for each user zone, including the
aligned-view cases that must come out at exactly 1.0.
"""

import numpy as np

from uavlos import (
    ENVIRONMENTS,
    GeomScenario,
    Node,
    derive_layout,
    estimate_plos,
    track_entries,
    uav_position_from_angles,
)

SEED = 3


def show_one_link() -> None:
    params = ENVIRONMENTS["urban"]
    layout = derive_layout(params)
    rng = np.random.default_rng(SEED)
    # Street users fill the segment x in [0, s], y in [s, s + w] next to
    # the origin crossroad.
    user = Node(rng.uniform(0.0, layout.s), rng.uniform(layout.s, layout.s + layout.w), 1.5)
    uav = uav_position_from_angles(user, theta_deg=25.0, phi_deg=30.0, h_uav=100.0)

    print(f"user at ({user.x:.1f}, {user.y:.1f}), UAV at "
          f"({uav.x:.1f}, {uav.y:.1f}, {uav.z:.0f}), elevation 25 deg\n")
    dx, dy = uav.x - user.x, uav.y - user.y
    r_rx = float(np.hypot(dx, dy))
    print(f"{'entry at':>18} {'r_op':>8} {'building':>10}")
    _, ix, iy, t = track_entries(layout, user.x, user.y, uav.x, uav.y)
    # The kernel lists the boxes by column, then row; print them along
    # the track, nearest the UAV first.
    order = np.argsort(-t, kind="stable")
    for bx, by, tb in zip(ix[order].tolist(), iy[order].tolist(), t[order].tolist()):
        print(f"({user.x + tb * dx:>7.1f}, {user.y + tb * dy:>7.1f}) "
              f"{(1.0 - tb) * r_rx:>8.1f} {f'({bx}, {by})':>10}")


def sweep_zones() -> None:
    params = ENVIRONMENTS["urban"]
    thetas = (10.0, 25.0, 45.0, 65.0, 85.0)
    print(f"\n{'theta':>6} {'street':>8} {'crossroad':>10}")
    for theta in thetas:
        row = []
        for zone in ("street", "crossroad"):
            sc = GeomScenario(params, zone, theta_deg=theta, h_uav=100.0)
            row.append(estimate_plos(sc, n_runs=2000, seed=SEED).p_hat)
        print(f"{theta:>6.0f} {row[0]:>8.3f} {row[1]:>10.3f}")

    aligned = GeomScenario(params, "street", theta_deg=25.0, phi_deg=90.0, h_uav=100.0)
    est = estimate_plos(aligned, n_runs=2000, seed=SEED)
    print(f"\nlooking straight down the street (phi=90): p = {est.p_hat} exactly")


if __name__ == "__main__":
    show_one_link()
    sweep_zones()
