"""The ad delivery engine.

Delivery stitches everything together: as users browse, their sessions
expose ad slots; for each slot the engine collects the active ads whose
targeting the user satisfies (the deliver-iff-match contract), auctions
the slot against ambient competing demand, charges the winner, and places
the winning creative in the user's feed.

The per-user **frequency cap** (default 1 impression per ad per user)
reflects how a transparency provider would configure Tread campaigns: each
Tread needs to reach each matching user exactly once, which is what makes
the paper's per-attribute cost exactly one CPM-priced impression.

Performance model (see docs/api_tour.md, "Performance model"): eligibility
runs against an **inverted candidate index** — ads are bucketed under one
attribute/page their spec *requires* (computed by the targeting compiler),
so a slot only evaluates ads reachable from the user's own attributes and
page likes, each via a **compiled flat matcher** instead of re-walking the
spec's AST. Reporting reads (per-ad impressions, clicks, unique reach) are
maintained incrementally at delivery time instead of scanning the logs.

State model (PR 4, see docs/state.md): the engine is a
:class:`~repro.store.store.StateOwner`. Every impression and click is a
journal record — ``Impression`` *is*
:class:`repro.store.records.ImpressionRecorded` and ``Click`` *is*
:class:`repro.store.records.ClickRecorded` — appended to the engine's
:class:`~repro.store.store.StateStore` at commit time and then folded
into the in-memory structures by one shared ``_apply_*`` path. Replay,
snapshot restore, and shard migration reuse that same fold, minus the
journaling and obs emission that only the live path performs.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry, registry as obs_registry
from repro.platform import bitset
from repro.platform.ads import Ad, AdImage, AdInventory, AdStatus
from repro.platform.auction import (
    AuctionOutcome,
    CompetingBidDraw,
    observe_auctions,
    run_auction,
)
from repro.platform.audiences import AudienceRegistry
from repro.platform.billing import BillingLedger
from repro.platform.targeting import AudienceResolver, CompiledSpec, lower_spec
from repro.platform.users import UserProfile, UserStore
from repro.store.records import (
    CapIncremented,
    ChangeRecord,
    ClickRecorded,
    ImpressionRecorded,
    record_from_dict,
    record_to_dict,
)
from repro.store.store import MemoryStore, StateStore

_EMPTY_SET: frozenset = frozenset()

_log = logging.getLogger("repro.platform.delivery")

#: Platform-internal record of one delivered impression — the journal
#: record *is* the log entry (see the state-model note above).
Impression = ImpressionRecorded

#: Platform-internal record of one ad click.
Click = ClickRecorded


@dataclass(frozen=True)
class DeliveredAd:
    """What lands in a user's feed: the creative plus a handle for the
    "Why am I seeing this?" explanation. The user never sees the bid,
    the price, or the full targeting spec (the platform's explanation is
    deliberately partial — see :mod:`repro.platform.explanations`).

    ``image`` is a shared read-only view of the rendered creative image —
    users see ad images, so a Tread-decoding browser extension can scan
    their pixels. Creative pixels are immutable post-render, so one frozen
    buffer serves every impression (no per-impression deep copy).
    """

    ad_id: str
    account_id: str
    headline: str
    body: str
    image: Optional["AdImage"]
    landing_url: Optional[str]
    impression_seq: int

    @property
    def has_image(self) -> bool:
        return self.image is not None


@dataclass
class DeliveryStats:
    """Counters for one delivery run."""

    slots: int = 0
    filled_by_tracked_ads: int = 0
    lost_to_competition: int = 0
    no_eligible_ad: int = 0


#: Process-wide engine id sequence for engines constructed without an
#: explicit ``engine_id`` (debuggability: shard-owned engines name the
#: shard instead).
_ENGINE_IDS = itertools.count()


class DeliveryEngine:
    """Serves ad slots for browsing users.

    Thread ownership
    ----------------
    An engine instance is **single-owner**: all mutating calls
    (``serve_slot``, the run loops, ``record_click``, ``import_state``)
    must come from one thread at a time. The engine takes no locks —
    the serving layer (:mod:`repro.serve`) gives each shard its own
    engine plus a shard lock and routes each user to exactly one shard,
    which is what makes lock-free per-engine state safe. Shared *read*
    structure (the inventory's ad list, compiled matchers from the
    process-wide compile cache) is safe across engines because compiled
    matchers are pure functions; everything mutable — match caches,
    caps, feeds, logs, reporting views — is per-instance, created in
    ``__init__`` and never shared. ``engine_id`` names the instance in
    logs and :meth:`snapshot_stats` so shard-owned engines stay
    debuggable.
    """

    store_name = "delivery"
    handled_kinds: Tuple[str, ...] = (
        ImpressionRecorded.kind, ClickRecorded.kind, CapIncremented.kind,
    )

    def __init__(
        self,
        inventory: AdInventory,
        audiences: AudienceRegistry,
        ledger: BillingLedger,
        competing_draw: CompetingBidDraw,
        frequency_cap: int = 1,
        floor_price_cpm: float = 0.0,
        min_match_count: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        engine_id: Optional[str] = None,
        store: Optional[StateStore] = None,
        compact: bool = False,
    ):
        if frequency_cap < 1:
            raise ValueError("frequency cap must be >= 1")
        if min_match_count < 0:
            raise ValueError("min match count cannot be negative")
        if compact and frequency_cap != 1:
            raise ValueError("compact delivery requires a frequency cap "
                             "of 1")
        self.engine_id = (engine_id if engine_id is not None
                          else f"engine-{next(_ENGINE_IDS)}")
        self._store = store if store is not None else MemoryStore()
        self._store.attach(self)
        self._inventory = inventory
        self._audiences = audiences
        self._ledger = ledger
        self._competing_draw = competing_draw
        self.frequency_cap = frequency_cap
        self.floor_price = floor_price_cpm / 1000.0
        self.min_match_count = min_match_count
        self._user_store: Optional[UserStore] = None
        #: Columnar stores expose ``row_of``; bound once at attach time.
        self._row_of: Optional[Any] = None
        self._match_count_cache: Dict[str, int] = {}
        self._impression_seq = 0
        #: Million-user memory mode: per-impression structures (logs,
        #: feeds, per-pair cap counts) are replaced by per-ad shown-user
        #: bitsets plus count aggregates. Deliver-iff-match and the
        #: cap-of-1 invariant are unchanged; the APIs that *are* the
        #: per-impression state raise StoreError instead of lying.
        self._compact = compact
        #: Compact mode: ad_id -> bitset of user rows already shown.
        self._shown_bits: Dict[str, np.ndarray] = {}
        self._impression_count = 0
        self._impression_count_by_ad: Dict[str, int] = {}
        self._click_count = 0
        self._impressions: List[Impression] = []
        self._clicks: List[Click] = []
        self._feeds: Dict[str, List[DeliveredAd]] = defaultdict(list)
        #: (ad_id, user_id) -> impressions delivered. Tuple keys: no
        #: per-slot string building, no collision with ids containing ':'.
        self._shown_counts: Dict[Tuple[str, str], int] = {}
        #: user_id -> ads this user can no longer receive (cap reached).
        #: Incrementally maintained by :meth:`_deliver`; lets eligibility
        #: skip saturated candidates with one set lookup.
        self._capped_for_user: Dict[str, Set[str]] = {}
        # -- inverted candidate index (see _ensure_index) ------------------
        self._indexed_ad_count = 0
        #: attr_id -> [(ad, account, bid, matcher)] for ads whose spec
        #: requires that attribute.
        self._index_by_attr: Dict[str, List[tuple]] = {}
        #: page_id -> same, for ads anchored on a required page like.
        self._index_by_page: Dict[str, List[tuple]] = {}
        #: Ads with no attribute/page anchor — evaluated for every slot.
        self._index_general: List[tuple] = []
        # -- columnar (code-keyed) bucket maps (see _sync_code_maps) -------
        self._code_maps_key: Optional[tuple] = None
        self._attr_code_buckets: Dict[int, List[tuple]] = {}
        self._multi_anchor_cols: List[tuple] = []
        self._page_code_buckets: Dict[int, List[tuple]] = {}
        #: Resolver in force for spec evaluation. Delivery runs swap in a
        #: snapshot resolver (one membership materialization per audience
        #: per run); one-off serve_slot calls use the live resolver.
        self._resolver: AudienceResolver = audiences.is_member
        #: Per-run cache: user_id -> index entries whose spec matches the
        #: user. Match outcomes are static for the duration of one
        #: synchronous run (profiles, likes, and memberships cannot change
        #: mid-loop), so each (user, ad) pair is evaluated once per run
        #: instead of once per slot. None outside runs — a one-off
        #: serve_slot must see live state.
        self._match_cache: Optional[Dict[str, List[tuple]]] = None
        # -- indexed reporting views ---------------------------------------
        self._impressions_by_ad: Dict[str, List[Impression]] = {}
        self._reach_by_ad: Dict[str, Set[str]] = {}
        self._clicks_by_ad: Dict[str, int] = {}
        # -- observability -------------------------------------------------
        # Instruments resolve once, at construction (pass ``metrics`` or
        # swap the global registry *before* building the platform); the
        # per-slot cost is then a bound-method call, a no-op under
        # NULL_REGISTRY.
        reg = metrics if metrics is not None else obs_registry()
        # Hot paths branch on this flag instead of calling into null
        # instruments: when metrics are off, one attribute read per
        # event instead of a method call (bench_obs_overhead.py).
        self._obs_on = reg.enabled
        self._obs_slots = reg.counter("delivery.slots_served")
        self._obs_impressions = reg.counter("delivery.impressions_delivered")
        self._obs_cache_hits = reg.counter("delivery.match_cache_hits")
        self._obs_cache_misses = reg.counter("delivery.match_cache_misses")
        self._obs_bucket_size = reg.histogram(
            "delivery.candidate_bucket_size")
        self._obs_cap_rejections = reg.counter(
            "delivery.frequency_cap_rejections")
        self._obs_pruned = reg.counter("delivery.saturation_pruned")
        self._obs_clicks = reg.counter("delivery.clicks_recorded")
        self._obs_sweep_rounds = reg.counter("delivery.sweep_rounds")
        self._obs_sweep_fallback_specs = reg.counter(
            "delivery.sweep_fallback_specs")
        self._obs_sweep_budget_rounds = reg.counter(
            "delivery.sweep_budget_fallback_rounds")
        self._bus = obs_events.bus()

    # -- eligibility ---------------------------------------------------------

    def attach_user_store(self, users: UserStore) -> None:
        """Wire the platform's user store (needed for the narrow-targeting
        defense's match counting, and for compact mode's user-row
        bitsets)."""
        self._user_store = users
        self._row_of = getattr(users, "row_of", None)

    def _matches_enough_users(self, ad: Ad, matcher: CompiledSpec) -> bool:
        """Narrow-targeting defense: an ad whose full spec matches fewer
        than ``min_match_count`` users is withheld from every auction.

        The match count is snapshot once per ad (profiles are effectively
        static within a campaign run); this is the platform-side
        countermeasure to single-user delivery/billing inference (paper
        section 5) and is OFF by default, as on 2018 platforms.
        """
        if self.min_match_count <= 0 or self._user_store is None:
            return True
        cached = self._match_count_cache.get(ad.ad_id)
        if cached is None:
            resolver = self._resolver
            fn = matcher.fn
            cached = sum(
                1 for profile in self._user_store if fn(profile, resolver)
            )
            self._match_count_cache[ad.ad_id] = cached
        return cached >= self.min_match_count

    def _ensure_index(self) -> None:
        """Bring the inverted candidate index up to date.

        Each ad is compiled once and bucketed under exactly one *required*
        anchor — an attribute (preferred: most selective), else a page
        like, else the always-evaluated general bucket. Ads are never
        removed from the inventory, so maintenance is incremental: only
        ads added since the last sync are indexed. Status flips (pause,
        un-pause, review outcomes) and budget exhaustion need no index
        surgery — they are re-checked per candidate at evaluation time,
        so the index can never serve a stale verdict.
        """
        count = self._inventory.ad_count()
        if count == self._indexed_ad_count:
            return
        for ad in self._inventory.ads()[self._indexed_ad_count:]:
            matcher = ad.targeting.compiled()
            account = self._inventory.account(ad.account_id)
            entry = (ad, account, ad.bid_per_impression, matcher)
            if matcher.required_attributes:
                anchor = min(matcher.required_attributes)
                self._index_by_attr.setdefault(anchor, []).append(entry)
            elif matcher.required_pages:
                anchor = min(matcher.required_pages)
                self._index_by_page.setdefault(anchor, []).append(entry)
            else:
                self._index_general.append(entry)
        self._indexed_ad_count = count

    def _candidate_buckets(self, user: UserProfile) -> List[List[tuple]]:
        """Index buckets whose ads could possibly match ``user``.

        Every ad lives in exactly one bucket, so the union is
        duplicate-free: the buckets anchored on the user's own attributes
        and page likes, plus the general bucket. Columnar users
        (:class:`~repro.platform.colstore.UserView`) take the bitmap
        path: their set attribute/page *codes* are probed against
        code-keyed bucket maps, skipping the string round-trip entirely.
        """
        row = getattr(user, "row", None)
        if row is not None:
            return self._candidate_buckets_columnar(user, row)
        buckets: List[List[tuple]] = []
        by_attr = self._index_by_attr
        if by_attr:
            for attr_id in user.attribute_ids():
                bucket = by_attr.get(attr_id)
                if bucket is not None:
                    buckets.append(bucket)
        by_page = self._index_by_page
        if by_page:
            for page_id in user.liked_pages:
                bucket = by_page.get(page_id)
                if bucket is not None:
                    buckets.append(bucket)
        if self._index_general:
            buckets.append(self._index_general)
        return buckets

    def _sync_code_maps(self, cols: Any) -> None:
        """Key the anchor buckets by the column store's integer codes.

        Bucket lists are shared (appended to in place by
        :meth:`_ensure_index`), so the maps stay current until either
        new ads create new anchors or the store interns new attribute/
        page codes — both visible in the cache key below.
        """
        key = (id(cols), self._indexed_ad_count, len(cols.attrs),
               len(cols.pages), len(cols.multi_cols))
        if self._code_maps_key == key:
            return
        attr_map: Dict[int, List[tuple]] = {}
        multi_anchors: List[tuple] = []
        for attr_id, bucket in self._index_by_attr.items():
            code = cols.attrs.get(attr_id)
            if code is not None:
                attr_map[code] = bucket
            col = cols.multi_cols.get(attr_id)
            if col is not None:
                multi_anchors.append((col, bucket))
        page_map: Dict[int, List[tuple]] = {}
        for page_id, bucket in self._index_by_page.items():
            code = cols.pages.get(page_id)
            if code is not None:
                page_map[code] = bucket
        self._attr_code_buckets = attr_map
        self._multi_anchor_cols = multi_anchors
        self._page_code_buckets = page_map
        self._code_maps_key = key

    def _candidate_buckets_columnar(self, user: Any,
                                    row: int) -> List[List[tuple]]:
        """Bitmap candidate collection: probe the user's row directly.

        The row's set attribute codes (one ``to_indices`` over its
        bitset) and assigned multi columns index straight into the
        code-keyed bucket maps — no attribute-id strings are
        materialized on this path.
        """
        cols = user.columns
        self._sync_code_maps(cols)
        buckets: List[List[tuple]] = []
        attr_map = self._attr_code_buckets
        if attr_map:
            for code in cols.attr_codes_of(row):
                bucket = attr_map.get(int(code))
                if bucket is not None:
                    buckets.append(bucket)
        for col, bucket in self._multi_anchor_cols:
            if col[row]:
                buckets.append(bucket)
        page_map = self._page_code_buckets
        if page_map:
            for code in bitset.to_indices(cols.page_bits[row]):
                bucket = page_map.get(int(code))
                if bucket is not None:
                    buckets.append(bucket)
        if self._index_general:
            buckets.append(self._index_general)
        return buckets

    def _matched_entries(self, user: UserProfile) -> List[tuple]:
        """Index entries whose *targeting* matches ``user``.

        Pure spec match — the dynamic conditions (status, frequency cap,
        budget, min-match defense) are applied by the caller per slot.
        Inside a run the result is cached per user (matches are static
        for the run's duration); outside runs it is computed live.
        """
        cache = self._match_cache
        if cache is not None:
            cached = cache.get(user.user_id)
            if cached is not None:
                if self._obs_on:
                    self._obs_cache_hits.inc()
                return cached
        if self._obs_on:
            self._obs_cache_misses.inc()
        resolver = self._resolver
        matched: List[tuple] = []
        candidates = 0
        for bucket in self._candidate_buckets(user):
            candidates += len(bucket)
            for entry in bucket:
                if entry[3].fn(user, resolver):
                    matched.append(entry)
        if self._obs_on:
            self._obs_bucket_size.observe(candidates)
        if self._compact and matched:
            # Compact mode keeps no per-pair cap counts: ads already
            # shown (cap of 1) are filtered here, at match time, via the
            # per-ad shown bitsets. Within a session the cache pruning in
            # _apply_impression keeps the list current, so the slot path
            # needs no cap check at all.
            row = self._compact_row(user.user_id)
            if row is not None:
                matched = [entry for entry in matched
                           if not self._shown_to(entry[0].ad_id, row)]
        if cache is not None:
            cache[user.user_id] = matched
        return matched

    def _compact_row(self, user_id: str) -> Optional[int]:
        if self._row_of is None:
            raise StoreError(
                f"{self.engine_id}: compact delivery needs a columnar "
                "user store attached")
        return self._row_of(user_id)

    def _shown_to(self, ad_id: str, row: int) -> bool:
        bits = self._shown_bits.get(ad_id)
        return bits is not None and bitset.test_bit(bits, row)

    def _slot_contenders(self, user: UserProfile) -> Tuple[List[Ad], bool]:
        """Eligible ads for one slot, already deduplicated per account.

        Returns ``(contenders, had_eligible)``. The auction only ever
        considers each account's best eligible ad (same bid/ad-id
        ordering as :func:`repro.platform.auction.run_auction`), so the
        dedup happens here, during the one pass over matched entries —
        the auction then runs on the handful of per-account champions
        instead of re-scanning the full eligible list. ``had_eligible``
        feeds the run-loop stats (lost-to-competition vs no-eligible-ad)
        without a second eligibility evaluation.
        """
        self._ensure_index()
        capped = self._capped_for_user.get(user.user_id, _EMPTY_SET)
        check_min_match = self.min_match_count > 0
        active = AdStatus.ACTIVE
        best: Dict[str, tuple] = {}
        for ad, account, bid, matcher in self._matched_entries(user):
            if ad.status is not active:
                continue
            if ad.ad_id in capped:
                if self._obs_on:
                    self._obs_cap_rejections.inc()
                continue
            if account.budget + 1e-12 < bid:  # inlined Account.can_afford
                continue
            if check_min_match and \
                    not self._matches_enough_users(ad, matcher):
                continue
            held = best.get(ad.account_id)
            if held is None or bid > held[0] or \
                    (bid == held[0] and ad.ad_id < held[1].ad_id):
                best[ad.account_id] = (bid, ad)
        return [pair[1] for pair in best.values()], bool(best)

    # -- slot serving --------------------------------------------------------

    def serve_slot(self, user: UserProfile) -> AuctionOutcome:
        """Auction one ad slot in ``user``'s session; deliver the winner."""
        with obs_tracing.tracer().span("serve_slot", user_id=user.user_id):
            contenders, _ = self._slot_contenders(user)
            return self._auction_slot(user, contenders)

    def _auction_slot(self, user: UserProfile,
                      eligible: Sequence[Ad]) -> AuctionOutcome:
        """Auction one slot against a pre-computed eligible list.

        The run loops thread their eligibility result through here so
        each slot evaluates eligibility exactly once (previously the
        stats paths re-evaluated it after the auction).
        """
        if self._obs_on:
            self._obs_slots.inc()
        outcome = run_auction(
            eligible,
            competing_bid=self._competing_draw(),
            floor_price=self.floor_price,
        )
        if outcome.winner is not None:
            self._deliver(outcome.winner, user, outcome.price)
        return outcome

    def _deliver(self, ad: Ad, user: UserProfile, price: float) -> None:
        """Live delivery: charge, journal, fold, emit obs signals."""
        seq = self._impression_seq
        # The charge commits before the impression exists anywhere; a
        # raised BudgetError leaves the journal without a trace of this
        # slot. journal=False: the ImpressionRecorded appended below is
        # the journal entry for the whole delivery — impression and
        # charge are one atomic event with one record, and replay
        # re-derives the debit from it (apply_record below).
        self._ledger.charge_impression(
            ad_id=ad.ad_id,
            account_id=ad.account_id,
            amount=price,
            impression_seq=seq,
            journal=False,
        )
        impression = Impression(seq=seq, ad_id=ad.ad_id,
                                account_id=ad.account_id,
                                user_id=user.user_id, price=price)
        self._store.append(impression)
        self._apply_impression(impression, ad)
        if self._obs_on:
            self._obs_impressions.inc()
        if self._bus.active:
            self._bus.emit(obs_events.ImpressionDelivered(
                ad_id=ad.ad_id,
                account_id=ad.account_id,
                user_id=user.user_id,
                price=price,
                impression_seq=seq,
            ))

    def _apply_impression(self, impression: Impression,
                          ad: Optional[Ad] = None) -> None:
        """Fold one impression into every in-memory structure.

        Shared by the live path, snapshot restore, migration import, and
        journal replay — the non-live callers pass no ``ad`` (it is
        re-read from the shared inventory) and run with no match cache,
        so the live-only pruning below is naturally inert for them.
        """
        if ad is None:
            ad = self._inventory.ad(impression.ad_id)
        if self._compact:
            self._apply_impression_compact(impression, ad)
            return
        self._impressions.append(impression)
        # Reporting views, maintained at delivery time so report reads
        # never scan the full impression log.
        per_ad = self._impressions_by_ad.get(impression.ad_id)
        if per_ad is None:
            per_ad = self._impressions_by_ad[impression.ad_id] = []
            self._reach_by_ad[impression.ad_id] = set()
        per_ad.append(impression)
        self._reach_by_ad[impression.ad_id].add(impression.user_id)
        if impression.seq >= self._impression_seq:
            self._impression_seq = impression.seq + 1
        key = (impression.ad_id, impression.user_id)
        shown = self._shown_counts.get(key, 0) + 1
        self._shown_counts[key] = shown
        if shown >= self.frequency_cap:
            self._capped_for_user.setdefault(
                impression.user_id, set()).add(impression.ad_id)
            # Caps are monotone within a run, so a just-capped ad can be
            # pruned from the user's cached match list — later slots then
            # scan only still-deliverable entries instead of re-skipping
            # every capped one.
            cache = self._match_cache
            if cache is not None:
                matched = cache.get(impression.user_id)
                if matched is not None:
                    if self._obs_on:
                        self._obs_pruned.inc()
                    cache[impression.user_id] = [
                        entry for entry in matched if entry[0] is not ad
                    ]
        creative = ad.creative
        self._feeds[impression.user_id].append(
            DeliveredAd(
                ad_id=impression.ad_id,
                account_id=impression.account_id,
                headline=creative.headline,
                body=creative.body,
                image=(creative.image.frozen()
                       if creative.image is not None else None),
                landing_url=(
                    str(creative.landing_url) if creative.landing_url else None
                ),
                impression_seq=impression.seq,
            )
        )

    def _apply_impression_compact(self, impression: Impression,
                                  ad: Ad) -> None:
        """Compact fold: one bit and three counters per impression.

        Setting the user's bit in the ad's shown bitset *is* the cap
        state, the reach set, and the per-pair count all at once (cap of
        1 makes them coincide). No log entry, no feed entry.
        """
        row = self._compact_row(impression.user_id)
        if row is None:
            raise StoreError(
                f"{self.engine_id}: impression for unknown user "
                f"{impression.user_id!r} in compact mode")
        assert self._user_store is not None
        bits = self._shown_bits.get(impression.ad_id)
        if bits is None:
            bits = bitset.make_bitset(len(self._user_store))
            self._shown_bits[impression.ad_id] = bits
        if row >= bits.shape[0] * bitset.WORD_BITS:
            bits = bitset.ensure_width(bits, row + 1)
            self._shown_bits[impression.ad_id] = bits
        bitset.set_bit(bits, row)
        self._impression_count += 1
        self._impression_count_by_ad[impression.ad_id] = (
            self._impression_count_by_ad.get(impression.ad_id, 0) + 1)
        if impression.seq >= self._impression_seq:
            self._impression_seq = impression.seq + 1
        cache = self._match_cache
        if cache is not None:
            matched = cache.get(impression.user_id)
            if matched is not None:
                if self._obs_on:
                    self._obs_pruned.inc()
                cache[impression.user_id] = [
                    entry for entry in matched if entry[0] is not ad
                ]

    @contextmanager
    def serving_session(self) -> Iterator["DeliveryEngine"]:
        """Snapshot resolver + match cache for a multi-slot serving window.

        Inside the ``with`` block, audience memberships are materialized
        once per audience and ``(user, ad)`` spec matches are evaluated
        once per user — the fast-path state the run loops install.
        Valid across any window in which profiles, likes, and audience
        memberships do not change (one run loop; one serve-layer batch
        window). Re-entrant: nesting installs a fresh snapshot and
        restores the outer one on exit. The caller owns the engine for
        the duration (see the class docstring's thread-ownership note).
        """
        outer_resolver = self._resolver
        outer_cache = self._match_cache
        self._resolver = self._audiences.cached_resolver()
        self._match_cache = {}
        try:
            yield self
        finally:
            self._resolver = outer_resolver
            self._match_cache = outer_cache

    def run_sessions(
        self,
        users: Sequence[UserProfile],
        slots_per_user: int,
    ) -> DeliveryStats:
        """Serve ``slots_per_user`` ad slots for each user, round-robin.

        Round-robin (rather than user-at-a-time) interleaves demand the way
        concurrent browsing would, which matters when budgets run out
        mid-run.
        """
        stats = DeliveryStats()
        trc = obs_tracing.tracer()
        traced = trc.enabled
        with self.serving_session(), \
                trc.span("delivery.run_sessions", users=len(users),
                         slots_per_user=slots_per_user):
                for _ in range(slots_per_user):
                    for user in users:
                        if traced:
                            with trc.span("serve_slot",
                                          user_id=user.user_id):
                                contenders, had_eligible = \
                                    self._slot_contenders(user)
                                outcome = self._auction_slot(user,
                                                             contenders)
                        else:
                            contenders, had_eligible = \
                                self._slot_contenders(user)
                            outcome = self._auction_slot(user, contenders)
                        stats.slots += 1
                        if outcome.won:
                            stats.filled_by_tracked_ads += 1
                        elif outcome.competing_bid > 0 and had_eligible:
                            stats.lost_to_competition += 1
                        else:
                            stats.no_eligible_ad += 1
        _log.info(
            "run_sessions: %d slots (%d filled, %d lost, %d empty) "
            "for %d users",
            stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition, stats.no_eligible_ad, len(users),
        )
        return stats

    def run_until_saturated(
        self,
        users: Sequence[UserProfile],
        max_rounds: int = 50,
    ) -> DeliveryStats:
        """Serve slots until no tracked ad can deliver another impression.

        This is the Treads campaign mode: keep going until every matching
        (user, ad) pair has hit the frequency cap or budgets are spent.
        """
        stats = DeliveryStats()
        trc = obs_tracing.tracer()
        traced = trc.enabled
        # Within one run every eligibility condition is monotone —
        # caps only accumulate, budgets only shrink, statuses and
        # matches are static — so a user whose eligible set empties
        # can never regain one and is dropped from the rotation.
        with self.serving_session(), \
                trc.span("delivery.run_until_saturated",
                         users=len(users), max_rounds=max_rounds):
                active = list(users)
                for _ in range(max_rounds):
                    progressed = False
                    still_active: List[UserProfile] = []
                    for user in active:
                        if traced:
                            with trc.span("serve_slot",
                                          user_id=user.user_id):
                                contenders, had_eligible = \
                                    self._slot_contenders(user)
                                if not had_eligible:
                                    continue
                                still_active.append(user)
                                outcome = self._auction_slot(user,
                                                             contenders)
                        else:
                            contenders, had_eligible = \
                                self._slot_contenders(user)
                            if not had_eligible:
                                continue
                            still_active.append(user)
                            outcome = self._auction_slot(user, contenders)
                        stats.slots += 1
                        if outcome.won:
                            stats.filled_by_tracked_ads += 1
                            progressed = True
                        else:
                            stats.lost_to_competition += 1
                    active = still_active
                    if not progressed:
                        break
        _log.info(
            "run_until_saturated: %d slots (%d filled, %d lost) "
            "for %d users",
            stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition, len(users),
        )
        return stats

    # -- batch sweep ---------------------------------------------------------
    #
    # The vectorized twin of run_until_saturated for columnar stores:
    # eligibility is evaluated for a whole row range at once via
    # column-mask programs (repro.platform.targeting.lower_spec), each
    # round's per-user second-price auction is an argmax over a
    # (candidates x users) bit matrix processed in bounded blocks, and
    # the results fold in bulk (shown-bitset ORs, aggregate billing
    # debits, batched counters). Semantics — winners, prices, stats,
    # reports — are identical to running the scalar loop over the same
    # rows (pinned by tests/integration/test_columnar_equivalence.py);
    # the two escape hatches back to the scalar path are per-spec
    # (unlowerable Expr -> per-user matcher fills that ad's mask) and
    # per-round (an account budget that could flip eligibility mid-round
    # replays the round through serve_slot's exact code path).

    def sweep_slots(
        self,
        rows: Optional[Tuple[int, int]] = None,
        *,
        max_rounds: int = 50,
        block_rows: int = 1 << 16,
        _collect_delta: bool = False,
    ):
        """Saturate delivery over a columnar row range, vectorized.

        ``rows`` is a ``(start, stop)`` half-open row range (default:
        the whole store); ``start`` must be 64-aligned so bitset state
        slices word-cleanly. ``block_rows`` bounds the unpacked working
        set: each round's auction runs over blocks of at most this many
        users, so peak transient memory stays flat regardless of range
        size. Returns the same :class:`DeliveryStats` the scalar
        :meth:`run_until_saturated` would have produced.

        ``_collect_delta`` is the parallel partitioner's hook
        (:mod:`repro.platform.parsweep`): compact-mode sweeps then also
        return a per-ad ``{ad_id: (account_id, start_word, words,
        count, price_sum)}`` fold that a parent engine can absorb with
        :meth:`absorb_sweep_delta`.
        """
        users = self._user_store
        cols = getattr(users, "columns", None)
        if cols is None:
            raise StoreError(
                f"{self.engine_id}: batch sweep needs a columnar user "
                "store attached (attach_user_store with a "
                "ColumnarUserStore)")
        if self.frequency_cap != 1:
            raise ValueError("batch sweep requires a frequency cap of 1")
        if block_rows <= 0 or block_rows % bitset.WORD_BITS:
            raise ValueError("block_rows must be a positive multiple "
                             f"of {bitset.WORD_BITS}")
        start, stop = (0, cols.count) if rows is None else rows
        if start % bitset.WORD_BITS:
            raise ValueError(
                f"sweep range must start on a {bitset.WORD_BITS}-bit "
                f"boundary, got {start}")
        if not 0 <= start <= stop <= cols.count:
            raise ValueError(
                f"sweep range [{start}, {stop}) outside the store's "
                f"{cols.count} rows")
        stats = DeliveryStats()
        delta: Optional[Dict[str, list]] = {} if _collect_delta else None
        if _collect_delta and not self._compact:
            raise StoreError(
                f"{self.engine_id}: sweep deltas are a compact-mode "
                "fold (parallel sweeps merge bitsets and counters)")
        with self.serving_session():
            self._run_sweep(stats, cols, start, stop, max_rounds,
                            block_rows, delta)
        _log.info(
            "sweep_slots[%d:%d]: %d slots (%d filled, %d lost)",
            start, stop, stats.slots, stats.filled_by_tracked_ads,
            stats.lost_to_competition,
        )
        if _collect_delta:
            out = {
                ad_id: (rec[0], start // bitset.WORD_BITS, rec[1],
                        rec[2], rec[3])
                for ad_id, rec in delta.items()  # type: ignore[union-attr]
            }
            return stats, out
        return stats

    def _sweep_candidates(self) -> List[tuple]:
        """Every indexed entry once, in global auction-priority order.

        Sorting by (bid desc, ad id asc) makes "first eligible
        candidate" coincide with the scalar path's winner (per-account
        champions, then top-2 — both use exactly this order), so each
        user's winner is one argmax over the availability matrix.
        """
        self._ensure_index()
        entries: List[tuple] = []
        for bucket in self._index_by_attr.values():
            entries.extend(bucket)
        for bucket in self._index_by_page.values():
            entries.extend(bucket)
        entries.extend(self._index_general)
        if self.min_match_count > 0:
            entries = [e for e in entries
                       if self._matches_enough_users(e[0], e[3])]
        entries.sort(key=lambda e: (-e[2], e[0].ad_id))
        return entries

    def _sweep_eligibility(self, entries: List[tuple], cols: Any,
                           start: int, stop: int) -> np.ndarray:
        """Per-candidate packed eligibility over rows [start, stop).

        Bit ``r`` of row ``i`` (relative to ``start``) says entry ``i``'s
        spec matches store row ``start + r``. Lowered specs evaluate as
        one mask program; unlowerable specs fall back to the per-user
        compiled matcher (counted by ``delivery.sweep_fallback_specs``).
        """
        from repro.platform.colstore import UserView
        n = stop - start
        avail = np.zeros((len(entries), bitset.words_for(n)),
                         dtype=np.uint64)
        bits_resolver = getattr(
            self._audiences, "member_bitset_cached", None)
        fallbacks = 0
        for i, (ad, _account, _bid, matcher) in enumerate(entries):
            program = lower_spec(ad.targeting)
            if program is not None:
                flags = program.evaluate(cols, start, stop,
                                         resolver=bits_resolver)
            else:
                fallbacks += 1
                fn = matcher.fn
                resolver = self._resolver
                store = self._user_store
                flags = np.zeros(n, dtype=bool)
                for r in range(start, stop):
                    if fn(UserView(store, r), resolver):
                        flags[r - start] = True
            avail[i] = bitset.pack_bools(flags)
        if self._obs_on and fallbacks:
            self._obs_sweep_fallback_specs.inc(fallbacks)
        return avail

    def _sweep_subtract_shown(self, avail: np.ndarray,
                              entries: List[tuple],
                              start: int, stop: int) -> None:
        """Remove already-shown (capped) pairs from the availability
        matrix. Idempotent — also the resync after a scalar fallback
        round delivered through the per-impression path."""
        range_words = avail.shape[1]
        word0 = start // bitset.WORD_BITS
        if self._compact:
            for i, entry in enumerate(entries):
                shown = self._shown_bits.get(entry[0].ad_id)
                if shown is None:
                    continue
                part = shown[word0:word0 + range_words]
                if part.size:
                    avail[i, :part.size] &= ~part
            return
        if not self._capped_for_user or self._row_of is None:
            return
        position = {e[0].ad_id: i for i, e in enumerate(entries)}
        for user_id, ads in self._capped_for_user.items():
            row = self._row_of(user_id)
            if row is None or not start <= row < stop:
                continue
            rel = row - start
            for ad_id in ads:
                i = position.get(ad_id)
                if i is not None:
                    bitset.clear_bit(avail[i], rel)

    def _run_sweep(self, stats: DeliveryStats, cols: Any, start: int,
                   stop: int, max_rounds: int, block_rows: int,
                   delta: Optional[Dict[str, list]]) -> None:
        from repro.platform.colstore import UserView
        n = stop - start
        if n == 0:
            return
        entries = self._sweep_candidates()
        if not entries:
            return
        avail = self._sweep_eligibility(entries, cols, start, stop)
        self._sweep_subtract_shown(avail, entries, start, stop)
        account_index: Dict[str, int] = {}
        acct_idx = np.empty(len(entries), dtype=np.int64)
        for i, entry in enumerate(entries):
            acct_idx[i] = account_index.setdefault(
                entry[0].account_id, len(account_index))
        bids = np.array([e[2] for e in entries], dtype=np.float64)
        active = AdStatus.ACTIVE
        draw = self._competing_draw
        constant = getattr(draw, "constant", None)
        floor = self.floor_price
        obs_on = self._obs_on

        for _ in range(max_rounds):
            # Round candidates: the dynamic checks the scalar slot path
            # applies per user, hoisted — status and affordability are
            # user-independent, so one pass per round suffices.
            rc = [i for i, e in enumerate(entries)
                  if e[0].status is active and e[1].budget + 1e-12 >= e[2]]
            if not rc:
                break
            rc_arr = np.asarray(rc, dtype=np.int64)
            mat = avail if len(rc) == len(entries) else avail[rc_arr]
            acct_rc = acct_idx[rc_arr]
            multi_account = len(np.unique(acct_rc)) > 1
            mat_bytes = mat.view(np.uint8)

            # Phase A: per-block winner/runner-up selection. Both are
            # draw-independent (the competing bid only decides win/lose
            # and price), so no RNG is consumed before the budget
            # certificate — a fallback round must replay with a virgin
            # draw stream.
            win_rows: List[np.ndarray] = []
            win_cands: List[np.ndarray] = []
            win_runner: List[np.ndarray] = []
            contender_counts: List[np.ndarray] = []
            for r0 in range(0, n, block_rows):
                r1 = min(r0 + block_rows, n)
                nb = r1 - r0
                block = np.unpackbits(
                    mat_bytes[:, r0 // 8: r0 // 8 + (nb + 7) // 8],
                    axis=1, count=nb, bitorder="little")
                positions = np.arange(nb)
                wpos = block.argmax(axis=0)
                has = block[wpos, positions] == 1
                if not has.any():
                    continue
                hrows = np.flatnonzero(has)
                if multi_account:
                    winner_acct = acct_rc[wpos]
                    others = np.where(
                        acct_rc[:, None] == winner_acct[None, :], 0, block)
                    rpos = others.argmax(axis=0)
                    rhas = others[rpos, positions] == 1
                    runner = np.where(
                        rhas, bids[rc_arr[rpos]], 0.0)[hrows]
                    counts = np.zeros(nb, dtype=np.int64)
                    for a in np.unique(acct_rc):
                        counts += block[acct_rc == a].any(axis=0)
                    contender_counts.append(counts[hrows])
                else:
                    runner = np.zeros(len(hrows), dtype=np.float64)
                    contender_counts.append(
                        np.ones(len(hrows), dtype=np.int64))
                win_rows.append(hrows + r0)
                win_cands.append(rc_arr[wpos[hrows]])
                win_runner.append(runner)
            if not win_rows:
                # No user in range has any eligible candidate left: the
                # scalar loop would drop every user and stop. Nothing
                # is counted (dropped users never reach the auction).
                break
            rel_rows = np.concatenate(win_rows)
            wcand = np.concatenate(win_cands)
            runner = np.concatenate(win_runner)
            slots = len(rel_rows)
            winner_bids = bids[wcand]

            # Phase B: the budget certificate. The vector round assumed
            # eligibility fixed at round start; that is exactly the
            # scalar outcome unless some account's budget could cross
            # below a candidate's bid mid-round. Bound each win's charge
            # (the exact price under a constant draw, the winner's bid
            # otherwise), sum per account, and require every round
            # candidate to remain affordable under full planned spend —
            # budgets are monotone, so passing the worst case certifies
            # every intermediate state.
            if constant is not None:
                bound = np.minimum(
                    np.maximum(np.maximum(runner, constant), floor),
                    winner_bids)
            else:
                bound = winner_bids
            planned = np.zeros(len(account_index))
            np.add.at(planned, acct_idx[wcand], bound)
            certified = all(
                entries[i][1].budget - planned[acct_idx[i]] + 1e-12
                >= entries[i][2]
                for i in rc
            )
            if not certified:
                if delta is not None:
                    raise StoreError(
                        f"{self.engine_id}: budget flip inside a "
                        "partitioned sweep range; run the sweep "
                        "single-process (sweep_slots) so the scalar "
                        "fallback can replay the round exactly")
                if obs_on:
                    self._obs_sweep_budget_rounds.inc()
                # Exact scalar replay of this round: the same per-user
                # code path run_until_saturated uses, over every row in
                # range (users with nothing eligible contribute nothing,
                # matching the scalar loop's drop-from-rotation). The
                # session match cache may hold entries the bulk applies
                # never pruned — drop it wholesale first.
                if self._match_cache is not None:
                    self._match_cache.clear()
                progressed = False
                store = self._user_store
                for r in range(start, stop):
                    user = UserView(store, r)
                    contenders, had_eligible = self._slot_contenders(user)
                    if not had_eligible:
                        continue
                    stats.slots += 1
                    outcome = self._auction_slot(user, contenders)
                    if outcome.won:
                        stats.filled_by_tracked_ads += 1
                        progressed = True
                    else:
                        stats.lost_to_competition += 1
                self._sweep_subtract_shown(avail, entries, start, stop)
                if not progressed:
                    break
                continue

            # Phase C: decide, count, and apply in bulk. Draws happen
            # here, one per auctioned user in ascending row order — the
            # exact sequence the scalar loop consumes.
            if constant is not None:
                competing = np.full(slots, constant)
            else:
                competing = np.fromiter(
                    (draw() for _ in range(slots)),
                    dtype=np.float64, count=slots)
            won = (winner_bids > competing) & (winner_bids >= floor)
            price = np.minimum(
                np.maximum(np.maximum(runner, competing), floor),
                winner_bids)
            wins = int(won.sum())
            stats.slots += slots
            stats.filled_by_tracked_ads += wins
            stats.lost_to_competition += slots - wins
            if obs_on:
                self._obs_slots.inc(slots)
                self._obs_sweep_rounds.inc()
            observe_auctions(np.concatenate(contender_counts),
                             price[won], slots - wins)
            if wins == 0:
                break
            self._sweep_apply(entries, start, stop, rel_rows[won],
                              wcand[won], price[won], avail, delta)

    def _sweep_apply(self, entries: List[tuple], start: int, stop: int,
                     rel_rows: np.ndarray, wcand: np.ndarray,
                     price: np.ndarray, avail: np.ndarray,
                     delta: Optional[Dict[str, list]]) -> None:
        """Fold one vector round's wins into engine + ledger state."""
        from repro.platform.colstore import UserView
        users = self._user_store
        assert users is not None
        n = stop - start
        order = np.argsort(wcand, kind="stable")
        grouped = np.split(
            order, np.flatnonzero(np.diff(wcand[order])) + 1)
        if not self._compact:
            # Full-logs mode: deliver each win through the exact scalar
            # commit path (charge -> journal -> fold -> obs -> bus), in
            # ascending row order, so journals and feeds are
            # byte-identical to the scalar loop.
            for j in range(len(rel_rows)):
                entry = entries[int(wcand[j])]
                self._deliver(entry[0],
                              UserView(users, start + int(rel_rows[j])),
                              float(price[j]))
            for group in grouped:
                cand = int(wcand[group[0]])
                avail[cand] &= ~bitset.from_indices(rel_rows[group], n)
            return

        count = len(rel_rows)
        seq_base = self._impression_seq
        discards = getattr(self._store, "discards_records", False)
        if discards:
            self._store.note_discarded(count)
        bus_on = self._bus.active
        # Rounds that cleared at nonzero prices bill per impression in
        # delivery (row) order — budget and spend then accumulate in the
        # exact float association the scalar path produces, interleaved
        # across ads. The all-zero rounds of the Treads economics (zero
        # competition, zero floor) skip this and take the O(1) per-ad
        # debit below.
        priced = bool(np.any(price))
        if priced or not discards or bus_on:
            # Journaling stores get real per-impression records with the
            # same seq/user/price/order the scalar path would append —
            # charge first, then journal, as _deliver does.
            for j in range(count):
                ad = entries[int(wcand[j])][0]
                amount = float(price[j])
                if priced:
                    self._ledger.charge_impression(
                        ad.ad_id, ad.account_id, amount, seq_base + j,
                        journal=False)
                if not discards or bus_on:
                    user_id = users.id_of(start + int(rel_rows[j]))
                    if not discards:
                        self._store.append(Impression(
                            seq=seq_base + j, ad_id=ad.ad_id,
                            account_id=ad.account_id, user_id=user_id,
                            price=amount))
                    if bus_on:
                        self._bus.emit(obs_events.ImpressionDelivered(
                            ad_id=ad.ad_id, account_id=ad.account_id,
                            user_id=user_id, price=amount,
                            impression_seq=seq_base + j))
        for group in grouped:
            cand = int(wcand[group[0]])
            ad = entries[cand][0]
            group_rows = rel_rows[group]
            if priced:
                total = 0.0
                for value in price[group]:
                    total += float(value)
            else:
                total = 0.0
                self._ledger.charge_impressions_bulk(
                    ad.ad_id, ad.account_id, 0.0, len(group))
            shown = self._shown_bits.get(ad.ad_id)
            if shown is None:
                shown = bitset.make_bitset(len(users))
            if stop > shown.shape[0] * bitset.WORD_BITS:
                shown = bitset.ensure_width(shown, stop)
            bitset.or_indices(shown, group_rows + start)
            self._shown_bits[ad.ad_id] = shown
            added = bitset.from_indices(group_rows, n)
            avail[cand] &= ~added
            self._impression_count_by_ad[ad.ad_id] = (
                self._impression_count_by_ad.get(ad.ad_id, 0)
                + len(group))
            if delta is not None:
                record = delta.get(ad.ad_id)
                if record is None:
                    record = delta[ad.ad_id] = [
                        ad.account_id, bitset.make_bitset(n), 0, 0.0]
                record[1] |= added
                record[2] += len(group)
                record[3] += total
        self._impression_count += count
        self._impression_seq = seq_base + count
        if self._obs_on:
            self._obs_impressions.inc(count)

    def absorb_sweep_delta(self, delta: Dict[str, tuple]) -> None:
        """Fold a partitioned sweep's per-ad results into this engine.

        The parent side of :mod:`repro.platform.parsweep`: each value is
        the ``(account_id, start_word, words, count, price_sum)`` tuple
        a worker's ``sweep_slots(..., _collect_delta=True)`` produced
        for a disjoint row range. Ads fold in sorted id order so the
        merge is deterministic regardless of worker arrival order.
        """
        if not self._compact:
            raise StoreError(
                f"{self.engine_id}: sweep deltas fold into compact "
                "engines only")
        users = self._user_store
        assert users is not None
        total = 0
        for ad_id in sorted(delta):
            account_id, start_word, words, count, price_sum = delta[ad_id]
            shown = self._shown_bits.get(ad_id)
            if shown is None:
                shown = bitset.make_bitset(len(users))
            need_bits = (start_word + len(words)) * bitset.WORD_BITS
            if need_bits > shown.shape[0] * bitset.WORD_BITS:
                shown = bitset.ensure_width(shown, need_bits)
            shown[start_word:start_word + len(words)] |= words
            self._shown_bits[ad_id] = shown
            self._impression_count_by_ad[ad_id] = (
                self._impression_count_by_ad.get(ad_id, 0) + count)
            self._ledger.charge_impressions_bulk(
                ad_id, account_id, price_sum, count)
            total += count
        if total:
            self._impression_count += total
            self._impression_seq += total
            discards = getattr(self._store, "discards_records", False)
            if discards:
                self._store.note_discarded(total)
            if self._obs_on:
                self._obs_impressions.inc(total)

    # -- views ---------------------------------------------------------------

    def _require_full_logs(self, operation: str) -> None:
        if self._compact:
            raise StoreError(
                f"{self.engine_id}: compact delivery does not retain "
                f"per-impression state ({operation})")

    def feed(self, user_id: str) -> List[DeliveredAd]:
        """The ads a user has seen, in delivery order (user-visible)."""
        self._require_full_logs("feed")
        return list(self._feeds[user_id])

    def impressions(self) -> List[Impression]:
        """Platform-internal impression log (reporting reads this)."""
        self._require_full_logs("impressions")
        return list(self._impressions)

    def impressions_for_ad(self, ad_id: str) -> List[Impression]:
        self._require_full_logs("impressions_for_ad")
        return list(self._impressions_by_ad.get(ad_id, ()))

    def impression_count(self) -> int:
        """Total delivered impressions (works in both modes)."""
        if self._compact:
            return self._impression_count
        return len(self._impressions)

    def impression_count_for_ad(self, ad_id: str) -> int:
        if self._compact:
            return self._impression_count_by_ad.get(ad_id, 0)
        return len(self._impressions_by_ad.get(ad_id, ()))

    def record_click(self, user_id: str, ad_id: str) -> None:
        """Record a click; only users who actually received the ad can
        click it (anything else is a caller bug, not ad traffic)."""
        if self._compact:
            row = self._compact_row(user_id)
            shown = row is not None and self._shown_to(ad_id, row)
        else:
            shown = self._shown_counts.get((ad_id, user_id), 0) > 0
        if not shown:
            raise ValueError(
                f"user {user_id!r} never received ad {ad_id!r}"
            )
        click = Click(ad_id=ad_id, user_id=user_id,
                      click_seq=self._click_count)
        self._store.append(click)
        self._apply_click(click)
        self._obs_clicks.inc()
        if self._bus.active:
            self._bus.emit(obs_events.ClickRecorded(
                ad_id=ad_id, user_id=user_id, click_seq=click.click_seq,
            ))

    def _apply_click(self, click: Click) -> None:
        """Fold one click into the log and the per-ad view (shared by
        the live path, restore, import, and replay)."""
        if not self._compact:
            self._clicks.append(click)
        self._click_count += 1
        self._clicks_by_ad[click.ad_id] = (
            self._clicks_by_ad.get(click.ad_id, 0) + 1
        )

    def _apply_cap(self, record: CapIncremented) -> None:
        """Fold a bare cap adjustment (migration-only; see
        :class:`repro.store.records.CapIncremented`)."""
        key = (record.ad_id, record.user_id)
        shown = self._shown_counts.get(key, 0) + record.count
        self._shown_counts[key] = shown
        if shown >= self.frequency_cap:
            self._capped_for_user.setdefault(
                record.user_id, set()).add(record.ad_id)

    def clicks(self) -> List[Click]:
        """Platform-internal click log, in click order."""
        self._require_full_logs("clicks")
        return list(self._clicks)

    def clicks_for_ad(self, ad_id: str) -> int:
        return self._clicks_by_ad.get(ad_id, 0)

    def unique_reach(self, ad_id: str) -> Set[str]:
        """Distinct users reached by an ad (platform-internal)."""
        if self._compact:
            bits = self._shown_bits.get(ad_id)
            if bits is None:
                return set()
            assert self._user_store is not None
            return self._user_store.rows_to_ids(bits)
        return set(self._reach_by_ad.get(ad_id, ()))

    def shown_rows(self, ad_id: str) -> Optional[np.ndarray]:
        """User rows an ad was shown to, ascending — the compact-mode
        reach as one bitset decode, no id strings. None when the engine
        is not compact (it keeps user ids, not rows)."""
        if not self._compact:
            return None
        bits = self._shown_bits.get(ad_id)
        if bits is None:
            return np.zeros(0, dtype=np.int64)
        return bitset.to_indices(bits)

    def reach_count(self, ad_id: str) -> int:
        """Number of distinct users reached — O(1), no set copy (one
        popcount in compact mode)."""
        if self._compact:
            bits = self._shown_bits.get(ad_id)
            return 0 if bits is None else bitset.popcount(bits)
        return len(self._reach_by_ad.get(ad_id, ()))

    # -- state snapshot / migration ------------------------------------------

    def snapshot_stats(self) -> Dict[str, object]:
        """Debug snapshot of this engine's accumulated state.

        Cheap (counts only, no copies) and assertion-friendly: the
        serving layer surfaces one per shard, keyed by ``engine_id``, so
        an imbalanced or double-delivering shard is visible at a glance.
        """
        if self._compact:
            nbits = (len(self._user_store)
                     if self._user_store is not None else 0)
            reached = bitset.union_all(
                list(self._shown_bits.values()), nbits)
            return {
                "engine_id": self.engine_id,
                "impressions": self._impression_count,
                "clicks": self._click_count,
                "users_with_feeds": 0,
                "users_reached": bitset.popcount(reached),
                "ads_delivered": len(self._shown_bits),
                "capped_pairs": sum(
                    bitset.popcount(bits)
                    for bits in self._shown_bits.values()
                ),
                "indexed_ads": self._indexed_ad_count,
                "in_session": self._match_cache is not None,
            }
        return {
            "engine_id": self.engine_id,
            "impressions": len(self._impressions),
            "clicks": len(self._clicks),
            "users_with_feeds": len(self._feeds),
            "users_reached": len(
                set().union(*self._reach_by_ad.values())
                if self._reach_by_ad else ()
            ),
            "ads_delivered": len(self._impressions_by_ad),
            "capped_pairs": sum(
                len(ads) for ads in self._capped_for_user.values()
            ),
            "indexed_ads": self._indexed_ad_count,
            "in_session": self._match_cache is not None,
        }

    @property
    def store(self) -> StateStore:
        return self._store

    def _require_out_of_session(self, operation: str) -> None:
        if self._match_cache is not None:
            raise StoreError(
                f"{self.engine_id}: cannot {operation} inside a "
                "serving session"
            )

    def _extra_caps(
        self,
        impressions: Sequence[Impression],
        shown_counts: Dict[Tuple[str, str], int],
    ) -> List[List[object]]:
        """Cap counts beyond what ``impressions`` imply, sorted for
        deterministic dumps. Empty for any state this engine delivered
        itself; non-empty only after a bare-cap import."""
        implied = Counter(
            (imp.ad_id, imp.user_id) for imp in impressions
        )
        extras: List[List[object]] = []
        for key in sorted(shown_counts):
            excess = shown_counts[key] - implied.get(key, 0)
            if excess > 0:
                extras.append([key[0], key[1], excess])
        return extras

    def export_state(
        self, user_ids: Optional[Set[str]] = None
    ) -> Dict[str, Any]:
        """Export per-user delivery state, optionally for a user subset.

        Everything exported is per-user, so exporting the users a shard
        is giving up and importing them elsewhere preserves every
        engine-level invariant (deliver-once via the cap counts, exact
        reporting via the logs). The export is JSON-safe — impressions
        and clicks as their journal-record dicts, caps beyond those the
        impressions imply as explicit ``extra_caps`` — because it is
        also the engine's snapshot section (see :meth:`state_dump`);
        feeds are not exported, they are rebuilt from the impressions
        and the shared inventory on import.
        """
        self._require_full_logs("export state")
        if user_ids is None:
            impressions: List[Impression] = self._impressions
            clicks: List[Click] = self._clicks
            shown = self._shown_counts
        else:
            impressions = [i for i in self._impressions
                           if i.user_id in user_ids]
            clicks = [c for c in self._clicks if c.user_id in user_ids]
            shown = {key: count
                     for key, count in self._shown_counts.items()
                     if key[1] in user_ids}
        return {
            "impressions": [record_to_dict(i) for i in impressions],
            "clicks": [record_to_dict(c) for c in clicks],
            "extra_caps": self._extra_caps(impressions, shown),
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Merge exported per-user state into this engine, journaling it.

        The migration hook behind :meth:`repro.serve.ShardRouter.rebalance`:
        each imported impression/click/cap is appended to this engine's
        store (the receiving journal must account for every unit of
        state it holds, or crash recovery after a migration would lose
        it) and folded through the same ``_apply_*`` path as live
        delivery, so every read answers as if this engine had delivered
        the imported impressions itself. Must not be called mid-session
        (single-owner rule; the serving layer only migrates between
        serving windows).
        """
        self._require_out_of_session("import state")
        self._require_full_logs("import state")
        self._fold_state(state, journal=True)

    def _fold_state(self, state: Dict[str, Any], journal: bool) -> None:
        for data in state.get("impressions", []):
            record = record_from_dict(dict(data))
            if not isinstance(record, ImpressionRecorded):
                raise StoreError(
                    f"delivery state holds a {record.kind!r} record "
                    "in its impressions section")
            if journal:
                self._store.append(record)
            self._apply_impression(record)
        for data in state.get("clicks", []):
            record = record_from_dict(dict(data))
            if not isinstance(record, ClickRecorded):
                raise StoreError(
                    f"delivery state holds a {record.kind!r} record "
                    "in its clicks section")
            if journal:
                self._store.append(record)
            self._apply_click(record)
        for ad_id, user_id, count in state.get("extra_caps", []):
            cap = CapIncremented(ad_id=ad_id, user_id=user_id,
                                 count=int(count))
            if journal:
                self._store.append(cap)
            self._apply_cap(cap)

    # -- state owner ---------------------------------------------------------

    def state_dump(self) -> Dict[str, Any]:
        dump = self.export_state()
        dump["impression_seq"] = self._impression_seq
        return dump

    def state_load(self, state: Dict[str, Any]) -> None:
        """Replace all mutable delivery state with a prior dump.

        Unlike :meth:`import_state` this is the restore path: nothing is
        journaled (the records behind this dump are already in the
        journal, before the snapshot point), and existing state is
        discarded first.
        """
        self._require_out_of_session("load state")
        self._impression_seq = 0
        self._impressions = []
        self._clicks = []
        self._feeds = defaultdict(list)
        self._shown_counts = {}
        self._capped_for_user = {}
        self._impressions_by_ad = {}
        self._reach_by_ad = {}
        self._clicks_by_ad = {}
        self._shown_bits = {}
        self._impression_count = 0
        self._impression_count_by_ad = {}
        self._click_count = 0
        self._fold_state(state, journal=False)
        seq = state.get("impression_seq")
        if isinstance(seq, int) and seq > self._impression_seq:
            self._impression_seq = seq

    def apply_record(self, record: ChangeRecord) -> None:
        """Replay one journal record (no journaling, no obs).

        An impression record implies its charge (see ``_deliver``), so
        replaying one re-debits the ledger first — matching the live
        order — then folds the impression. Snapshot restore does NOT
        come through here: the ledger's own dump carries the charge log
        and budgets, so only journal replay re-derives charges.
        """
        if isinstance(record, ImpressionRecorded):
            self._ledger.apply_implied_charge(
                ad_id=record.ad_id,
                account_id=record.account_id,
                amount=record.price,
                impression_seq=record.seq,
            )
            self._apply_impression(record)
        elif isinstance(record, ClickRecorded):
            self._apply_click(record)
        elif isinstance(record, CapIncremented):
            self._apply_cap(record)
        else:
            raise StoreError(
                f"delivery cannot apply record kind {record.kind!r}")
