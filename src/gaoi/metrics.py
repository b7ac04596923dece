"""Schedule-level identities for cumulative age and detection delay, and
the proportionality report of ``verify thm1``.

Cumulative AoI is accounted over slots 0..T-1 (age 0 at slot 0, where the
monitor knows the state), which is the convention under which the closed form
T^2/2 - T/2 - sum_i s_i (d_{i+1} - d_i) holds exactly in integer arithmetic.
Detection delays are restricted to the horizon: a change never covered by a
delivered sample contributes T - n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schedule import UpdateSchedule, aoi_series


def cumulative_aoi(schedule: UpdateSchedule) -> int:
    """Total age over slots 0..T-1, by direct summation of the sawtooth."""
    return int(aoi_series(schedule).sum())


def closed_form_aoi(schedule: UpdateSchedule) -> int:
    """Total age via T^2/2 - T/2 - sum_i s_i (d_{i+1} - d_i), exact integers."""
    t = schedule.horizon
    d_cap = schedule.capped_deliveries()
    total = t * (t - 1) // 2
    for i, s in enumerate(schedule.samples, start=1):
        total -= s * (d_cap[i + 1] - d_cap[i])
    return total


def delay_double_sum(schedule: UpdateSchedule) -> int:
    """sum_i sum_{j=s_i+1}^{s_{i+1}} (d_{i+1} - j): per-slot delay totals.

    Slot j's change (if any) is detected at d_{i+1}, the delivery of the first
    sample taken at or after j.  Equals ``closed_form_aoi`` for every valid
    schedule.
    """
    s_cap = schedule.capped_samples()
    d_cap = schedule.capped_deliveries()
    total = 0
    for i in range(len(s_cap) - 1):
        for j in range(s_cap[i] + 1, s_cap[i + 1] + 1):
            total += d_cap[i + 1] - j
    return total


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
