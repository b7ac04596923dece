"""Schedule-level identities for cumulative age and detection delay, and
the proportionality report of ``verify thm1``.

Each identity takes a ``ScheduleBlock`` and returns one integer per row, from
the same ``aoi_block`` and ``detection_block`` arrays the ensembles read.
Cumulative AoI is accounted over slots 0..T-1 (age 0 at slot 0, where the
monitor knows the state), which is the convention under which the closed form
T^2/2 - T/2 - sum_i s_i (d_{i+1} - d_i) holds exactly in integer arithmetic.
Detection delays are restricted to the horizon: a change never covered by a
delivered sample contributes T - n.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ProportionalityReport:
    """Three views of the same quantity: GAoI/rate, AoI, delay/p_change.

    ``gaoi_scaled`` is None when the entropy rate is zero (the GAoI ratio is
    undefined; a periodic system carries no uncertainty).
    """

    gaoi_scaled: float | None
    aoi: float
    delay_scaled: float
    aoi_se: float
    delay_scaled_se: float
    inconsistent: bool

    @property
    def rel_gap_delay(self) -> float:
        """Relative gap between the AoI and delay-based quantities."""
        if self.aoi == 0.0:
            return 0.0 if self.delay_scaled == 0.0 else float("inf")
        return abs(self.delay_scaled - self.aoi) / abs(self.aoi)

    @property
    def rel_gap_gaoi(self) -> float | None:
        if self.gaoi_scaled is None:
            return None
        if self.aoi == 0.0:
            return 0.0 if self.gaoi_scaled == 0.0 else float("inf")
        return abs(self.gaoi_scaled - self.aoi) / abs(self.aoi)


def verify_proportionality(
    mean_cum_gaoi: float,
    mean_cum_aoi: float,
    mean_cum_delay: float,
    rate: float,
    p_change: float,
    se_cum_aoi: float = 0.0,
    se_cum_delay: float = 0.0,
) -> ProportionalityReport:
    """Scale ensemble means into the three comparable quantities.

    GAoI is divided by the entropy rate and delay by the per-slot change
    probability; all three agree for stationary models under state-independent
    policies.  A zero rate with nonzero GAoI is flagged as inconsistent.
    """
    inconsistent = rate == 0.0 and mean_cum_gaoi != 0.0
    gaoi_scaled = None if rate == 0.0 else mean_cum_gaoi / rate
    return ProportionalityReport(
        gaoi_scaled=gaoi_scaled,
        aoi=mean_cum_aoi,
        delay_scaled=mean_cum_delay / p_change,
        aoi_se=se_cum_aoi,
        delay_scaled_se=se_cum_delay / p_change,
        inconsistent=inconsistent,
    )
