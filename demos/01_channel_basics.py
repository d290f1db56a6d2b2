"""
Air-to-ground channel walkthrough
=================================

How the link budget between a hovering base station and a ground user
changes with horizontal distance, and why altitude buys line of sight.
"""

import math

import numpy as np

from absim.channel import link_matrix, los_probability
from absim.scenario import ScenarioConfig

cfg = ScenarioConfig()


def links(grounds):
    """Slant range [m], elevation [deg] and loss [dB] from a platform above
    the origin to users at the given ground distances along x."""
    users = np.column_stack([grounds, np.zeros(len(grounds))])
    d, loss = link_matrix(np.zeros((1, 2)), users, cfg)
    return d[:, 0], np.degrees(np.arcsin(cfg.altitude_m / d[:, 0])), loss[:, 0]


# reference loss at 1 m comes from the carrier frequency alone
print(f"carrier {cfg.carrier_hz / 1e9:.1f} GHz -> reference loss "
      f"{10 * math.log10(cfg.ref_loss_k0_value()):.2f} dB at 1 m")

# a user straight below the platform sees a 90 degree elevation angle;
# the angle falls as the user walks away
print("\nground distance vs elevation angle and LoS probability (h = 100 m)")
print(f"{'ground m':>9} {'slant m':>9} {'elev deg':>9} {'P(LoS)':>7}")
grounds = (0.0, 100.0, 250.0, 386.0, 600.0, 900.0, 1146.0, 1500.0)
for ground, d, theta, _ in zip(grounds, *links(grounds)):
    print(f"{ground:9.0f} {d:9.1f} {theta:9.2f} {los_probability(theta, cfg):7.3f}")

# the probability is exactly 1 above one angle threshold and exactly 0
# below another, so coverage has a plateau and a cliff
lo = cfg.altitude_m / math.sin(math.radians(cfg.plos_xi_deg + 1.0 / cfg.plos_b1))
hi = cfg.altitude_m / math.sin(math.radians(cfg.plos_xi_deg))
print(f"\npure LoS out to a slant range of {lo:.0f} m,"
      f" pure NLoS beyond {hi:.0f} m")

# path loss picks up the blended excess on top of free space
print("\npath loss profile")
grounds = (50.0, 200.0, 386.0, 500.0, 800.0, 1146.0, 1500.0)
for ground, l_db in zip(grounds, links(grounds)[2]):
    bar = "#" * int((l_db - 75.0) / 1.5)
    print(f"{ground:7.0f} m  {l_db:7.2f} dB  {bar}")

# the jump past the plateau is the switch from the 1 dB LoS excess to the
# 20 dB NLoS excess; distance alone only contributes alpha decades
(near_d, far_d), _, (near_db, far_db) = links((386.0, 1146.0))
fspl = 10 * cfg.path_alpha * math.log10(far_d / near_d)
total = far_db - near_db
print(f"\n386 m -> 1146 m ground: +{total:.1f} dB total, "
      f"of which {fspl:.1f} dB is distance and {total - fspl:.1f} dB is lost LoS")
