"""The batch sweep engine: vectorized delivery == scalar delivery.

The integration equivalence suite pins the full 2,000-user partner
sweep; these tests pin the engine-level machinery — precondition
errors, the packed-word claim kernel against the unpacked argmax it
replaced, partial row ranges, per-spec matcher fallback routing,
multi-account runner-up pricing, and the sweep's observability counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.platform import bitset
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.delivery import claim_slots
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import HasAttr, lower_spec
from repro.workloads.competition import fixed_competition, zero_competition


def make_world(compact=False, users=130, n_ads=6, draw=None,
               budget=100.0, accounts=1, store=None):
    """A columnar delivery world with ``accounts`` competing advertisers."""
    platform = AdPlatform(
        config=PlatformConfig(name="sweng", columnar_users=True,
                              compact_delivery=compact),
        catalog=build_us_catalog(40, 25),
        competing_draw=draw if draw is not None else zero_competition(),
        store=store,
    )
    attrs = platform.catalog.partner_attributes()[:n_ads]
    ads = []
    for a in range(accounts):
        account = platform.create_ad_account(f"adv-{a}", budget=budget)
        campaign = platform.create_campaign(account.account_id, "camp")
        for i, attr in enumerate(attrs):
            ads.append(platform.submit_ad(
                account.account_id, campaign.campaign_id,
                AdCreative("h", f"ref {a}/{attr.attr_id}"),
                f"attr:{attr.attr_id} & country:US",
                bid_cap_cpm=10.0 - a,  # distinct bids across accounts
            ))
    for i in range(users):
        user = platform.register_user(age=20 + i % 50)
        user.set_attribute(attrs[i % len(attrs)])
        if i % 3 == 0:
            user.set_attribute(attrs[(i + 1) % len(attrs)])
    return platform, ads


def engine_state(platform, ads):
    """Canonical observable delivery state for equality comparisons."""
    engine = platform.delivery
    state = {
        "impressions": engine.impression_count(),
        "by_ad": {ad.ad_id: engine.impression_count_for_ad(ad.ad_id)
                  for ad in ads},
        "reach": {ad.ad_id: engine.reach_count(ad.ad_id) for ad in ads},
        "spend": {ad.ad_id: platform.ledger.spend_for_ad(ad.ad_id)
                  for ad in ads},
        "budgets": {ad.account_id: platform.inventory.account(
            ad.account_id).budget for ad in ads},
    }
    return json.dumps(state, sort_keys=True)


class TestPreconditions:
    def test_needs_columnar_store(self):
        platform = AdPlatform(
            config=PlatformConfig(name="legacy"),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        with pytest.raises(StoreError, match="columnar"):
            platform.delivery.sweep_slots()
        with pytest.raises(StoreError, match="columnar"):
            platform.run_sweep()

    def test_needs_unit_frequency_cap(self):
        platform, _ads = make_world()
        platform.delivery.frequency_cap = 3
        with pytest.raises(ValueError, match="frequency cap"):
            platform.delivery.sweep_slots()

    def test_range_validation(self):
        platform, _ads = make_world(users=70)
        with pytest.raises(ValueError, match="boundary"):
            platform.delivery.sweep_slots((10, 70))
        with pytest.raises(ValueError, match="outside"):
            platform.delivery.sweep_slots((0, 1000))


def argmax_oracle(avail, candidates, bids, accounts, n):
    """The claim kernel's reference: the unpacked-matrix auction.

    Unpack the candidates' availability rows to a (candidates x users)
    0/1 matrix; a user's winner is the first 1 in its column
    (``argmax``), the runner-up the first 1 among other accounts'
    candidates, the contender count the accounts with any 1.
    """
    block = np.unpackbits(avail[candidates].view(np.uint8), axis=1,
                          count=n, bitorder="little")
    positions = np.arange(n)
    wpos = block.argmax(axis=0)
    rows = np.flatnonzero(block[wpos, positions] == 1)
    acct = accounts[candidates]
    others = np.where(acct[:, None] == acct[wpos][None, :], 0, block)
    rpos = others.argmax(axis=0)
    runner = np.where(others[rpos, positions] == 1,
                      bids[candidates[rpos]], 0.0)
    counts = np.zeros(n, dtype=np.int64)
    for a in np.unique(acct):
        counts += block[acct == a].any(axis=0)
    return rows, candidates[wpos[rows]], runner[rows], counts[rows]


@st.composite
def claim_inputs(draw):
    """Availability matrices of 1-40 candidates over 1-300 rows with
    1-4 accounts, some candidate rows and user columns forced empty,
    and a round-candidate subset in priority order."""
    entries = draw(st.integers(1, 40))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]))
    flags = rng.random((entries, n)) < density
    flags[draw(st.lists(st.integers(0, entries - 1), max_size=5))] = False
    flags[:, draw(st.lists(st.integers(0, n - 1), max_size=20))] = False
    avail = np.stack([bitset.pack_bools(row) for row in flags])
    bids = np.sort(rng.choice([1.0, 2.5, 4.0, 7.0, 10.0],
                              size=entries))[::-1].copy()
    accounts = rng.integers(0, draw(st.integers(1, 4)), size=entries)
    chosen = draw(st.lists(st.integers(0, entries - 1), min_size=1,
                           unique=True))
    candidates = np.array(sorted(chosen), dtype=np.int64)
    return avail, candidates, bids, accounts, n


class TestClaimKernel:
    @settings(max_examples=200, deadline=None)
    @given(inputs=claim_inputs())
    def test_claim_equals_unpacked_argmax(self, inputs):
        avail, candidates, bids, accounts, n = inputs
        expected = argmax_oracle(avail, candidates, bids, accounts, n)
        before = avail.copy()
        scratch = np.full_like(avail, np.uint64(0xFFFFFFFFFFFFFFFF))
        got = claim_slots(avail, candidates, scratch, bids, accounts)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)
        assert np.array_equal(avail, before)
        if len(np.unique(accounts[candidates])) == 1:
            # The single-account shortcut gives the same answer.
            single = claim_slots(avail, candidates, scratch, bids, None)
            for want, have in zip(expected, single):
                assert np.array_equal(want, have)


class TestBlockDecomposition:
    def test_partial_ranges_compose_to_full_sweep(self):
        platform_a, ads_a = make_world(users=150)
        platform_b, ads_b = make_world(users=150)
        platform_a.delivery.sweep_slots((0, 64))
        platform_a.delivery.sweep_slots((64, 150))
        platform_b.delivery.sweep_slots()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    def test_empty_range_is_a_noop(self):
        platform, _ads = make_world(users=70)
        stats = platform.delivery.sweep_slots((64, 64))
        assert stats.slots == 0


class TestScalarEquality:
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("accounts", [1, 2])
    def test_sweep_equals_scalar_loop(self, compact, accounts):
        platform_a, ads_a = make_world(compact=compact, accounts=accounts)
        platform_b, ads_b = make_world(compact=compact, accounts=accounts)
        stats_sweep = platform_a.run_sweep()
        stats_scalar = platform_b.run_until_saturated()
        assert stats_sweep == stats_scalar
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)

    def test_multi_account_second_price_matches(self):
        """Two accounts bidding on the same users: the sweep's runner-up
        column must reproduce the scalar auction's clearing prices."""
        platform_a, ads_a = make_world(accounts=2,
                                       draw=fixed_competition(1.0))
        platform_b, ads_b = make_world(accounts=2,
                                       draw=fixed_competition(1.0))
        platform_a.run_sweep()
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        # Winner pays the runner-up's bid, not its own: spend exists and
        # reflects second-price, 9 CPM (the losing account's bid).
        winner_spend = sum(platform_a.ledger.spend_for_ad(ad.ad_id)
                           for ad in ads_a
                           if ad.bid_cap_cpm == 10.0)
        winner_count = sum(
            platform_a.delivery.impression_count_for_ad(ad.ad_id)
            for ad in ads_a if ad.bid_cap_cpm == 10.0)
        assert winner_count > 0
        assert winner_spend == pytest.approx(winner_count * 9.0 / 1000.0)

    def test_second_sweep_delivers_nothing(self):
        platform, _ads = make_world()
        first = platform.run_sweep()
        assert first.filled_by_tracked_ads > 0
        second = platform.run_sweep()
        assert second.filled_by_tracked_ads == 0


class OpaquePredicate(HasAttr):
    """Compiles with base semantics but defeats the exact-type lowerer."""


class TestFallbackRouting:
    def _world_with_opaque_spec(self):
        platform, ads = make_world(users=96, n_ads=3)
        account_id = ads[0].account_id
        campaign_id = ads[0].campaign_id
        attr = platform.catalog.partner_attributes()[10]
        for view in platform.users:
            if view.row % 5 == 0:
                view.set_attribute(attr)
        from repro.platform.targeting import TargetingSpec
        opaque = platform.submit_ad(
            account_id, campaign_id, AdCreative("h", "opaque"),
            TargetingSpec(expr=OpaquePredicate(attr.attr_id)),
            bid_cap_cpm=10.0)
        assert opaque.status.value == "active"
        return platform, ads + [opaque]

    def test_unlowerable_spec_falls_back_to_matcher(self):
        # Counters bind to the registry active at engine construction,
        # so the swept world is built inside the registry context.
        with use_registry(MetricsRegistry("sweeptest")) as reg:
            platform_a, ads_a = self._world_with_opaque_spec()
            opaque = ads_a[-1]
            assert lower_spec(opaque.targeting) is None
            platform_a.run_sweep()
            assert reg.counter(
                "delivery.sweep_fallback_specs").value >= 1
            assert reg.counter("delivery.sweep_rounds").value >= 1
        platform_b, ads_b = self._world_with_opaque_spec()
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
        assert platform_a.delivery.impression_count_for_ad(
            ads_a[-1].ad_id) > 0


class TestBudgetFallback:
    def test_budget_flip_round_replays_scalar(self):
        """A budget too small to fund a full round forces the certificate
        down the scalar-replay path; outcomes must still match."""
        with use_registry(MetricsRegistry("sweeptest")) as reg:
            platform_a, ads_a = make_world(budget=0.05,
                                           draw=fixed_competition(5.0))
            platform_a.run_sweep()
            assert reg.counter(
                "delivery.sweep_budget_fallback_rounds").value >= 1
        platform_b, ads_b = make_world(budget=0.05,
                                       draw=fixed_competition(5.0))
        platform_b.run_until_saturated()
        assert engine_state(platform_a, ads_a) == \
            engine_state(platform_b, ads_b)
