"""
Does the condenser choice matter downstream?
============================================

Train the same learner on vocabularies from all three condensers, two
seeds each, and compare what the greedy policies deliver. Roughly a
minute of compute; the command line `absim compare` does the same and
writes the artifacts.
"""

import numpy as np

from absim.scenario import ScenarioConfig
from absim.sim import METHODS, compare_methods

N_SEEDS = 2
# all six runs train in lockstep, so "learn s" is each run's share (1/6) of
# the batch's wall time
results = compare_methods(ScenarioConfig(), N_SEEDS)

print(f"{'method':>8} {'net outage':>14} {'priority':>9} {'regular':>9} "
      f"{'condense s':>11} {'learn s':>8}")
for m in METHODS:
    reports = [r.report for r in results[m]]
    net = [r.eval_outage["network"] for r in reports]
    pr = [r.eval_outage["priority"] for r in reports]
    nr = [r.eval_outage["regular"] for r in reports]
    tc = [r.condense_time_s for r in reports]
    tr = [r.rl_time_s for r in reports]
    print(f"{m:>8} {np.mean(net):7.3f} +-{np.std(net):5.3f} "
          f"{np.mean(pr):9.3f} {np.mean(nr):9.3f} "
          f"{np.mean(tc):11.2f} {np.mean(tr):8.2f}")

# the two distortion optimizers produce near interchangeable vocabularies,
# so their downstream numbers track each other; the user-weighted greedy
# picker trades worse regular-user coverage for its hot spots
print("\nper-seed network outage")
for m in METHODS:
    vals = ", ".join(f"seed {r.report.seed}: {r.report.eval_outage['network']:.3f}"
                     for r in results[m])
    print(f"  {m:>8}: {vals}")

# every run, regardless of condenser, improves while it learns
print("\nreward gain, last 50 episodes vs first 50")
for m in METHODS:
    gains = [float(np.mean(r.report.reward_curve[-50:])
                   - np.mean(r.report.reward_curve[:50]))
             for r in results[m]]
    print(f"  {m:>8}: " + ", ".join(f"{g:+7.1f}" for g in gains))
