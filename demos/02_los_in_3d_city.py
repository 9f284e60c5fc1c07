"""Walk one synthetic city and test links against its skyline.

Materializes a 1 km urban block grid from its city key, hovers a UAV
over a random street point drawn from the same key's stream, and places
users on the 30-degree elevation circle around it.
Each link is resolved twice: with the building-edge walk the engines
use, and with brute-force 0.1 m sampling along the ray.  The two must
never disagree.
"""

from uavlos import (
    ENVIRONMENTS,
    RandomOverCity,
    check_los_dense,
    check_los_edges,
    generate_city,
    place_uav,
)
from uavlos.citygeom import LinkGeometry, Node
from uavlos.sim3d import place_users, user_directions

SEED = 7


def main() -> None:
    params = ENVIRONMENTS["urban"]
    city = generate_city(params, 1000.0, 1000.0, seed=SEED)  # a one-city Cities
    heights = city.heights[0]
    print(f"city: {heights.shape[0]} x {heights.shape[1]} buildings, "
          f"mean roof {heights.mean():.1f} m, tallest {heights.max():.1f} m")

    uavs = place_uav(city, RandomOverCity(h=100.0))
    uav = Node(*(float(c[0]) for c in uavs))
    _, x, y = place_users(city.layout, uavs, 30.0, user_directions(30.0, 12))
    users = [Node(ux, uy, 1.5) for ux, uy in zip(x.tolist(), y.tolist())]
    print(f"UAV at ({uav.x:.0f}, {uav.y:.0f}, {uav.z:.0f}), "
          f"{len(users)} of 12 circle users fall on open ground\n")

    print(f"{'user':>4} {'x':>6} {'y':>6} {'LoS':>5}  blocker")
    agree = 0
    for i, user in enumerate(users):
        link = LinkGeometry.from_nodes(uav, user)
        fast = check_los_edges(city, link)
        slow = check_los_dense(city, link, step=0.1)
        agree += fast.is_los == slow.is_los
        if fast.blocker is None:
            where = "-"
        else:
            b = fast.blocker
            where = f"building ({b.ix}, {b.iy}) at {b.r_op:.0f} m out"
        print(f"{i:>4} {user.x:>6.0f} {user.y:>6.0f} {str(fast.is_los):>5}  {where}")

    print(f"\nedge walk vs 0.1 m sampling: {agree}/{len(users)} links agree")


if __name__ == "__main__":
    main()
