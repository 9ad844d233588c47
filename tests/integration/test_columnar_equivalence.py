"""End-to-end equivalence: columnar store vs legacy object store.

The acceptance bar for the columnar refactor: the 2,000-user x full
partner-sweep delivery tier must produce **byte-identical** advertiser
reports on both storage backends, and the deliver-iff-match invariant
must hold on the columnar and compact-delivery paths exactly as it does
on the legacy path.

Byte-identity is a fair demand because everything downstream of storage
is deterministic given the match sets: user registration order fixes id
assignment and delivery order, ``KeyedCompetition``/zero competition fix
auction outcomes per (user, slot), and report serialization sorts keys.
So any byte diff in the reports means the columnar store changed *who
matched what* — which is precisely the regression this test exists to
catch.
"""

import dataclasses
import json
import random

import pytest

from repro.core.provider import TransparencyProvider
from repro.errors import StoreError
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.reporting import ReportingConfig
from repro.platform.web import WebDirectory
from repro.workloads.competition import zero_competition


#: Genders of the varied-demographics world; the last is only ever set
#: through the ``gender`` setter after registration.
_GENDERS = ("female", "male", "unknown", "nonbinary")
_LATE_GENDER = "agender"


def _sweep_world(columnar: bool, users: int = 2000, compact: bool = False,
                 sweep: bool = False, demographics_seed=None,
                 breakdown_min_reach: int = 100):
    """The scale-tier world: ``users`` users, 10 rotating partner
    attributes each, full partner sweep launched. ``sweep`` routes
    delivery through the vectorized batch sweep engine instead of the
    scalar per-user loop. Users are 30 and of gender ``"unknown"``
    unless ``demographics_seed`` is given: then ages (including ones
    below and above every report bucket) and genders are drawn from
    that seed, and every seventh user's gender is reassigned after
    registration."""
    platform = AdPlatform(
        config=PlatformConfig(
            name="coleq", columnar_users=columnar,
            compact_delivery=compact,
            reporting=ReportingConfig(
                breakdown_min_reach=breakdown_min_reach)),
        catalog=build_us_catalog(614, 507),
        competing_draw=zero_competition(),
    )
    provider = TransparencyProvider(platform, WebDirectory(), budget=5000.0)
    attrs = platform.catalog.partner_attributes()
    rng = random.Random(demographics_seed)
    for i in range(users):
        if demographics_seed is None:
            user = platform.register_user()
        else:
            user = platform.register_user(
                age=rng.randint(-1, 99), gender=rng.choice(_GENDERS))
            if i % 7 == 3:
                user.gender = _LATE_GENDER
        for k in range(10):
            user.set_attribute(attrs[(i * 10 + k) % len(attrs)])
        provider.optin.via_page_like(user.user_id)
    provider.launch_partner_sweep()
    provider.run_delivery(sweep=sweep)
    return platform, provider


def _canonical_reports(platform, account_id):
    """Every ad report for the account as one canonical JSON string."""
    reports = [dataclasses.asdict(r)
               for r in platform.reports(account_id)]
    reports.sort(key=lambda r: r["ad_id"])
    return json.dumps(reports, sort_keys=True)


class TestScaleSweepEquivalence:
    def test_reports_byte_identical_legacy_vs_columnar(self):
        legacy_platform, legacy_provider = _sweep_world(columnar=False)
        columnar_platform, columnar_provider = _sweep_world(columnar=True)

        assert legacy_provider.total_impressions() == 2000 * 11
        assert columnar_provider.total_impressions() == 2000 * 11

        legacy_json = _canonical_reports(
            legacy_platform, legacy_provider.account.account_id)
        columnar_json = _canonical_reports(
            columnar_platform, columnar_provider.account.account_id)
        assert legacy_json == columnar_json
        assert json.loads(legacy_json), "reports must be non-empty"

        legacy_invoice = legacy_platform.invoice(
            legacy_provider.account.account_id)
        columnar_invoice = columnar_platform.invoice(
            columnar_provider.account.account_id)
        assert legacy_invoice.total == columnar_invoice.total
        assert legacy_invoice.impressions == columnar_invoice.impressions

    def test_varied_demographics_byte_identical_across_stores(self):
        """The same pin with seeded ages and genders and a breakdown
        threshold every Tread clears, so the legacy per-profile loop and
        the compact engine's column bincount both tally many buckets."""
        worlds = {
            "legacy": _sweep_world(columnar=False, demographics_seed=7,
                                   breakdown_min_reach=20),
            "columnar": _sweep_world(columnar=True, demographics_seed=7,
                                     breakdown_min_reach=20),
            "compact": _sweep_world(columnar=True, compact=True,
                                    demographics_seed=7,
                                    breakdown_min_reach=20),
            "compact-sweep": _sweep_world(columnar=True, compact=True,
                                          sweep=True, demographics_seed=7,
                                          breakdown_min_reach=20),
        }
        canonical = {
            name: _canonical_reports(platform,
                                     provider.account.account_id)
            for name, (platform, provider) in worlds.items()
        }
        assert len(set(canonical.values())) == 1, (
            f"reports differ between stores: {sorted(canonical)}")
        reports = json.loads(canonical["legacy"])
        assert all(r["demographics"] for r in reports)
        buckets = {key for r in reports for key in r["demographics"]}
        assert {"65+|agender", "13-17|nonbinary"} <= buckets
        assert len(buckets) >= 20

    @pytest.mark.parametrize("compact", [False, True])
    def test_reports_byte_identical_scalar_vs_batch_sweep(self, compact):
        """The batch-sweep acceptance bar: the vectorized engine must
        reproduce the scalar loop's 2,000-user reports byte for byte."""
        scalar_platform, scalar_provider = _sweep_world(
            columnar=True, compact=compact)
        batch_platform, batch_provider = _sweep_world(
            columnar=True, compact=compact, sweep=True)

        assert batch_provider.total_impressions() == 2000 * 11

        scalar_json = _canonical_reports(
            scalar_platform, scalar_provider.account.account_id)
        batch_json = _canonical_reports(
            batch_platform, batch_provider.account.account_id)
        assert scalar_json == batch_json
        assert json.loads(batch_json), "reports must be non-empty"

        scalar_invoice = scalar_platform.invoice(
            scalar_provider.account.account_id)
        batch_invoice = batch_platform.invoice(
            batch_provider.account.account_id)
        assert scalar_invoice.total == batch_invoice.total
        assert scalar_invoice.impressions == batch_invoice.impressions


class TestDeliverIffMatch:
    """The paper's core premise, pinned on each storage/delivery mode."""

    @pytest.mark.parametrize("columnar,sweep", [
        (False, False), (True, False), (True, True)])
    def test_each_user_gets_exactly_their_treads(self, columnar, sweep):
        platform, provider = _sweep_world(columnar=columnar, users=300,
                                          sweep=sweep)
        attrs = platform.catalog.partner_attributes()
        # ad_id -> the attribute its Tread reveals (None for control).
        ad_attr = {tread.ad_id: tread.payload.attr_id
                   for tread in provider.treads if tread.launched}
        user_ids = platform.users.user_ids()
        for i in range(300):
            expected = {attrs[(i * 10 + k) % len(attrs)].attr_id
                        for k in range(10)}
            feed = platform.feed(user_ids[i])
            # 10 attribute Treads + the control ad, nothing else.
            assert len(feed) == 11
            received = {ad_attr[ad.ad_id] for ad in feed}
            assert received - {None} == expected

    def test_compact_mode_counts_match_full_mode(self):
        full_platform, full_provider = _sweep_world(
            columnar=True, users=300)
        compact_platform, compact_provider = _sweep_world(
            columnar=True, users=300, compact=True)

        assert compact_provider.total_impressions() == \
            full_provider.total_impressions() == 300 * 11
        assert compact_provider.total_spend() == \
            full_provider.total_spend()

        full_engine = full_platform.delivery
        compact_engine = compact_platform.delivery
        for ad in full_platform.inventory.ads_owned_by(
                full_provider.account.account_id):
            assert compact_engine.reach_count(ad.ad_id) == \
                full_engine.reach_count(ad.ad_id)
            assert compact_engine.unique_reach(ad.ad_id) == \
                full_engine.unique_reach(ad.ad_id)

        with pytest.raises(StoreError, match="compact delivery"):
            compact_engine.impressions()
        with pytest.raises(StoreError, match="charge log"):
            compact_platform.ledger.all_charges()

    def test_second_saturation_delivers_nothing(self):
        """Frequency caps hold in compact mode: saturation is stable."""
        platform, provider = _sweep_world(
            columnar=True, users=100, compact=True)
        before = provider.total_impressions()
        provider.run_delivery()
        assert provider.total_impressions() == before
