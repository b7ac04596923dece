"""Schedule-level identities for cumulative age and detection delay, which
``verify thm1`` checks on random schedules.

Each identity takes a ``ScheduleBlock`` and returns one integer per row, from
the same ``aoi_block`` and ``detection_block`` arrays the ensembles read.
Cumulative AoI is accounted over slots 0..T-1 (age 0 at slot 0, where the
monitor knows the state), which is the convention under which the closed form
T^2/2 - T/2 - sum_i s_i (d_{i+1} - d_i) holds exactly in integer arithmetic.
Detection delays are restricted to the horizon: a change never covered by a
delivered sample contributes T - n.
"""

from __future__ import annotations

import numpy as np

from .schedule import ScheduleBlock, aoi_block, detection_block


def cumulative_aoi(block: ScheduleBlock) -> np.ndarray:
    """Total age over slots 0..T-1 of every row, by direct summation of the sawtooth."""
    return aoi_block(block).sum(axis=1)


def closed_form_aoi(block: ScheduleBlock) -> np.ndarray:
    """Total age of every row via T^2/2 - T/2 - sum_i s_i (d_{i+1} - d_i),
    in integers; past a row's last update d_{i+1} is T, so padding adds 0."""
    t = block.horizon
    gaps = np.diff(block.deliveries, axis=1, append=t)
    return t * (t - 1) // 2 - (block.samples * gaps).sum(axis=1)


def delay_double_sum(block: ScheduleBlock) -> np.ndarray:
    """sum_i sum_{j=s_i+1}^{s_{i+1}} (d_{i+1} - j) of every row: per-slot delay totals.

    Slot j's change (if any) is detected at d_{i+1}, the delivery of the first
    sample taken at or after j, which ``detection_block`` reads off for every
    j = 1..T.  Equals ``closed_form_aoi`` for every valid schedule.
    """
    slots = np.arange(1, block.horizon + 1)
    return (detection_block(block)[:, 1:] - slots).sum(axis=1)
