"""Advertiser-facing performance reporting.

The Treads threat model (paper section 3.1, "Privacy analysis") grants the
transparency provider exactly what this module exposes: "the performance
statistics reported by the advertising platform (e.g., for billing
purposes); this could include estimates about the number of users reached
by different ads". The provider can therefore *count* how many opted-in
users carry each attribute — but the platform never names users, and
demographic breakdowns are withheld below a minimum-reach threshold, so
reports alone cannot de-anonymize an individual (benchmark E5 ablates the
threshold to show what would leak without it).

Breakdowns only ever need counts. On a compact delivery engine they come
straight from the columns: the ad's shown bitset decodes to a row array,
the age and gender columns are gathered at those rows, and one
``np.bincount`` over ``age_bucket * genders + gender_code`` tallies every
cell — no user id is formatted or parsed. Engines that keep full logs
use the per-profile loop, which also serves as the test oracle for the
column path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import registry as obs_registry
from repro.platform.ads import AdInventory
from repro.platform.billing import BillingLedger
from repro.platform.delivery import DeliveryEngine
from repro.platform.users import UserStore


@dataclass(frozen=True)
class AdPerformanceReport:
    """What an advertiser sees about one of its ads.

    ``reach`` is a (possibly quantized) count of distinct users reached;
    ``demographics`` is None below the breakdown threshold. There is no
    field that could identify an individual user — that absence is the
    design property the whole Treads mechanism leans on.
    """

    ad_id: str
    impressions: int
    spend: float
    reach: int
    effective_cpm: float
    clicks: int = 0
    demographics: Optional[Dict[str, int]] = None

    @property
    def ctr(self) -> float:
        """Click-through rate (clicks / impressions)."""
        if self.impressions == 0:
            return 0.0
        return self.clicks / self.impressions


@dataclass
class ReportingConfig:
    """Knobs modelling the platform's aggregation behaviour."""

    #: Reach is rounded to the nearest multiple of this (1 = exact counts).
    reach_quantum: int = 1
    #: Age/gender breakdowns are suppressed below this many reached users.
    breakdown_min_reach: int = 100


class ReportingService:
    """Builds advertiser-facing reports from platform-internal logs."""

    def __init__(
        self,
        inventory: AdInventory,
        ledger: BillingLedger,
        delivery: DeliveryEngine,
        users: UserStore,
        config: Optional[ReportingConfig] = None,
    ):
        self._inventory = inventory
        self._ledger = ledger
        self._delivery = delivery
        self._users = users
        self.config = config or ReportingConfig()
        reg = obs_registry()
        self._obs_on = reg.enabled
        self._obs_reports = reg.counter("reporting.reports")
        self._obs_breakdown_users = reg.counter("reporting.breakdown_users")

    def _quantize_reach(self, true_reach: int) -> int:
        quantum = self.config.reach_quantum
        if quantum <= 1:
            return true_reach
        return int(round(true_reach / quantum)) * quantum

    def report_for_ad(self, ad_id: str, account_id: str) -> AdPerformanceReport:
        """One ad's performance report, for its owning advertiser only."""
        ad = self._inventory.ad(ad_id)
        if ad.account_id != account_id:
            raise PermissionError(
                f"account {account_id!r} does not own ad {ad_id!r}"
            )
        true_reach = self._delivery.reach_count(ad_id)
        reach = self._quantize_reach(true_reach)
        demographics: Optional[Dict[str, int]] = None
        if true_reach >= self.config.breakdown_min_reach:
            # Only decode the reached users when a breakdown is owed;
            # reach itself comes from the delivery engine's per-ad index.
            rows = self._delivery.shown_rows(ad_id)
            if rows is None:
                demographics = self._demographic_breakdown(
                    self._delivery.unique_reach(ad_id)
                )
            else:
                demographics = self._column_breakdown(rows)
            if self._obs_on:
                self._obs_breakdown_users.inc(true_reach)
        if self._obs_on:
            self._obs_reports.inc()
        return AdPerformanceReport(
            ad_id=ad_id,
            impressions=self._ledger.impressions_for_ad(ad_id),
            spend=self._ledger.spend_for_ad(ad_id),
            reach=reach,
            effective_cpm=self._ledger.effective_cpm(ad_id),
            clicks=self._delivery.clicks_for_ad(ad_id),
            demographics=demographics,
        )

    def _demographic_breakdown(self, user_ids) -> Dict[str, int]:
        """Coarse age-bucket x gender counts, platform-style, one
        profile lookup per reached user (the full-log path)."""
        breakdown: Dict[str, int] = {}
        for user_id in user_ids:
            profile = self._users.get(user_id)
            bucket = f"{_age_bucket(profile.age)}|{profile.gender}"
            breakdown[bucket] = breakdown.get(bucket, 0) + 1
        return breakdown

    def _column_breakdown(self, rows: np.ndarray) -> Dict[str, int]:
        """The same counts as :meth:`_demographic_breakdown`, from the
        columnar store's age/gender columns gathered at ``rows``."""
        cols = self._users.columns
        genders = cols.genders.values
        width = len(genders)
        cells = (_age_bucket_indices(cols.age[rows]) * width
                 + cols.gender[rows])
        counts = np.bincount(cells, minlength=len(AGE_BUCKETS) * width)
        return {
            f"{AGE_BUCKETS[cell // width]}|{genders[cell % width]}":
                int(counts[cell])
            for cell in np.flatnonzero(counts).tolist()
        }

    def reports_for_account(self, account_id: str) -> List[AdPerformanceReport]:
        """Reports for every ad the account owns (the provider's view of a
        whole Tread campaign)."""
        return [
            self.report_for_ad(ad.ad_id, account_id)
            for ad in self._inventory.ads_owned_by(account_id)
        ]


#: The standard reporting age buckets as inclusive ``(low, high)`` ages.
#: An age inside no edge reports as the catch-all last bucket — ages
#: below 13 included.
AGE_EDGES: Tuple[Tuple[int, int], ...] = (
    (13, 17), (18, 24), (25, 34), (35, 44), (45, 54), (55, 64))
AGE_BUCKETS: Tuple[str, ...] = (
    tuple(f"{low}-{high}" for low, high in AGE_EDGES) + ("65+",))


def _age_bucket_index(age: int) -> int:
    for index, (low, high) in enumerate(AGE_EDGES):
        if low <= age <= high:
            return index
    return len(AGE_EDGES)


def _age_bucket(age: int) -> str:
    """The standard reporting age bucket of one age."""
    return AGE_BUCKETS[_age_bucket_index(age)]


#: Vectorised :func:`_age_bucket_index`: one entry per age from one
#: below the lowest edge to one above the highest. Every age past either
#: end falls in the same bucket as that end, so clipping into the table
#: preserves the mapping.
_AGE_LUT_LOW = min(low for low, _ in AGE_EDGES) - 1
_AGE_LUT_HIGH = max(high for _, high in AGE_EDGES) + 1
_AGE_LUT = np.array([_age_bucket_index(age)
                     for age in range(_AGE_LUT_LOW, _AGE_LUT_HIGH + 1)],
                    dtype=np.intp)


def _age_bucket_indices(ages: np.ndarray) -> np.ndarray:
    """Bucket index (into :data:`AGE_BUCKETS`) of every age in ``ages``."""
    clipped = np.clip(ages.astype(np.intp), _AGE_LUT_LOW, _AGE_LUT_HIGH)
    return _AGE_LUT[clipped - _AGE_LUT_LOW]
