"""Tests for advertiser-facing reporting and its privacy behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.ads import AdCreative
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.reporting import (
    AGE_BUCKETS,
    ReportingConfig,
    _age_bucket,
    _age_bucket_indices,
)
from repro.platform.catalog import build_us_catalog
from repro.workloads.competition import zero_competition


def _platform(reach_quantum=1, breakdown_min_reach=100):
    return AdPlatform(
        config=PlatformConfig(
            name="rpt",
            reporting=ReportingConfig(
                reach_quantum=reach_quantum,
                breakdown_min_reach=breakdown_min_reach,
            ),
        ),
        catalog=build_us_catalog(platform_count=40, partner_count=25),
        competing_draw=zero_competition(),
    )


def _run_campaign(platform, user_count, attr_index=0, bid=10.0):
    account = platform.create_ad_account("np", budget=100.0)
    campaign = platform.create_campaign(account.account_id, "c")
    attr = platform.catalog.partner_attributes()[attr_index]
    for _ in range(user_count):
        platform.register_user().set_attribute(attr)
    ad = platform.submit_ad(
        account.account_id, campaign.campaign_id,
        AdCreative("h", "neutral"), f"attr:{attr.attr_id} & country:US",
        bid_cap_cpm=bid,
    )
    platform.run_until_saturated()
    return account, ad


class TestReports:
    def test_report_fields(self):
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=5)
        report = platform.report(account.account_id, ad.ad_id)
        assert report.impressions == 5
        assert report.reach == 5
        assert report.spend >= 0.0

    def test_no_user_identities_in_report(self):
        """The property Treads' privacy analysis relies on."""
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=3)
        report = platform.report(account.account_id, ad.ad_id)
        field_names = set(vars(report))
        assert not any("user" in name for name in field_names)

    def test_foreign_account_denied(self):
        platform = _platform()
        account, ad = _run_campaign(platform, user_count=2)
        other = platform.create_ad_account("spy", budget=1.0)
        with pytest.raises(PermissionError):
            platform.report(other.account_id, ad.ad_id)

    def test_reports_for_account(self):
        platform = _platform()
        account, _ = _run_campaign(platform, user_count=2)
        assert len(platform.reports(account.account_id)) == 1


class TestReachQuantization:
    def test_exact_by_default(self):
        platform = _platform(reach_quantum=1)
        account, ad = _run_campaign(platform, user_count=7)
        assert platform.report(account.account_id, ad.ad_id).reach == 7

    def test_quantized_reach(self):
        platform = _platform(reach_quantum=5)
        account, ad = _run_campaign(platform, user_count=7)
        report = platform.report(account.account_id, ad.ad_id)
        assert report.reach == 5  # 7 -> nearest multiple of 5

    def test_impressions_remain_exact(self):
        """Billing-grade numbers are exact even when reach is quantized."""
        platform = _platform(reach_quantum=5)
        account, ad = _run_campaign(platform, user_count=7)
        assert platform.report(account.account_id, ad.ad_id).impressions == 7


class TestDemographicBreakdown:
    def test_suppressed_below_threshold(self):
        platform = _platform(breakdown_min_reach=100)
        account, ad = _run_campaign(platform, user_count=10)
        assert platform.report(account.account_id,
                               ad.ad_id).demographics is None

    def test_present_above_threshold(self):
        platform = _platform(breakdown_min_reach=5)
        account, ad = _run_campaign(platform, user_count=10)
        demographics = platform.report(account.account_id,
                                       ad.ad_id).demographics
        assert demographics is not None
        assert sum(demographics.values()) == 10

    def test_age_buckets(self):
        assert _age_bucket(13) == "13-17"
        assert _age_bucket(30) == "25-34"
        assert _age_bucket(70) == "65+"
        assert _age_bucket(12) == "65+"  # below every edge: catch-all
        ages = np.arange(-1, 131, dtype=np.int16)  # the age column dtype
        vectorised = [AGE_BUCKETS[i] for i in _age_bucket_indices(ages)]
        assert vectorised == [_age_bucket(int(age)) for age in ages]


_GENDERS = ("female", "male", "unknown", "nonbinary")
#: Setter targets, two of which no row carries at registration.
_REASSIGNED_GENDERS = ("male", "agender", "late-gender")


@st.composite
def _compact_worlds(draw):
    """A small compact columnar population, one ad's shown set, a
    breakdown threshold, and demographic edits made after delivery."""
    population = draw(st.lists(
        st.tuples(st.integers(-5, 120), st.sampled_from(_GENDERS)),
        max_size=120))
    n = len(population)
    min_reach = draw(st.integers(0, n))
    reach = draw(st.one_of(st.just(0), st.just(min_reach),
                           st.integers(0, n)))
    shown = draw(st.permutations(range(n)))[:reach]
    edits = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)),
                  st.none() | st.integers(-5, 120),
                  st.none() | st.sampled_from(_REASSIGNED_GENDERS)),
        max_size=10 if n else 0))
    return population, min_reach, shown, edits


@settings(max_examples=60, deadline=None)
@given(_compact_worlds())
def test_column_breakdown_matches_per_profile_oracle(world):
    """The compact engine's bincount breakdown equals the per-profile
    loop over ``unique_reach`` + ``users.get`` — across out-of-bucket
    ages, genders interned after rows exist, setter reassignments, empty
    shown sets and a reach exactly at the breakdown threshold."""
    population, min_reach, shown, edits = world
    platform = AdPlatform(
        config=PlatformConfig(
            name="rptcol", columnar_users=True, compact_delivery=True,
            reporting=ReportingConfig(breakdown_min_reach=min_reach)),
        catalog=build_us_catalog(platform_count=4, partner_count=3),
        competing_draw=zero_competition(),
    )
    attr = platform.catalog.partner_attributes()[0]
    users = [platform.register_user(age=age, gender=gender)
             for age, gender in population]
    for row in shown:
        users[row].set_attribute(attr)
    account = platform.create_ad_account("np", budget=1000.0)
    campaign = platform.create_campaign(account.account_id, "c")
    ad = platform.submit_ad(
        account.account_id, campaign.campaign_id,
        AdCreative("h", "neutral"), f"attr:{attr.attr_id}",
        bid_cap_cpm=10.0)
    platform.run_until_saturated()
    for row, age, gender in edits:
        if age is not None:
            users[row].age = age
        if gender is not None:
            users[row].gender = gender

    delivery, reporting = platform.delivery, platform.reporting
    rows = delivery.shown_rows(ad.ad_id)
    assert sorted(rows.tolist()) == sorted(shown)
    oracle = reporting._demographic_breakdown(
        delivery.unique_reach(ad.ad_id))
    assert reporting._column_breakdown(rows) == oracle
    report = platform.report(account.account_id, ad.ad_id)
    assert report.reach == len(shown)
    expected = oracle if len(shown) >= min_reach else None
    assert report.demographics == expected
