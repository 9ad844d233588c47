"""Seeded sweep worlds: the inputs of the ``sweep`` and ``contested`` runs.

A world is a columnar compact platform with a NullStore journal, one
Treads provider account running the full partner sweep (507 Treads plus
the control ad) against a page-like opted-in population, and, for
``contested``, a few rival advertiser accounts whose partner-attribute
ads bid above and below the Treads against a constant competing bid.

Everything a world holds is a pure function of ``(shape, variant)``:
the seed picks a variant, the variant seeds one numpy generator, and
the generator draws the population (demographics and a rotation over a
permuted partner-attribute list) and the rival campaigns. The program
only ever sees the generated users and ads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.provider import TransparencyProvider
from repro.platform.ads import AdCreative
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.store.store import NullStore
from repro.workloads.competition import fixed_competition, zero_competition

#: Seeds map onto this many distinct worlds; each has a golden report
#: digest from the scalar loop in ``golden.json``.
VARIANTS = 8

#: Every user holds this many partner attributes, so a full sweep
#: delivers ``users * (ATTRS_PER_USER + 1)`` Treads impressions
#: (one per matched attribute, plus the control ad).
ATTRS_PER_USER = 10

GENDERS = ("female", "male", "unknown")


@dataclass(frozen=True)
class Shape:
    """The size and market of one sweep workload."""

    name: str
    users: int
    #: Rival advertiser accounts (0 = the provider is alone).
    rivals: int = 0
    #: Partner-attribute ads per rival account.
    ads_per_rival: int = 0
    #: Rival bids in CPM dollars, cycled over the rival accounts; the
    #: Treads bid the provider's default $10 CPM.
    rival_bids_cpm: Tuple[float, ...] = ()
    #: Constant competing bid in CPM dollars (0 = zero competition).
    competition_cpm: float = 0.0
    treads_bid_cpm: float = 10.0
    provider_budget: float = 50_000.0
    rival_budget: float = 1e9


SHAPES: Dict[str, Shape] = {
    "sweep": Shape(name="sweep", users=25_000),
    "contested": Shape(
        name="contested", users=10_000, rivals=4, ads_per_rival=24,
        rival_bids_cpm=(14.0, 12.0, 8.0, 6.0), competition_cpm=3.0,
        provider_budget=1e9),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass
class World:
    """One built world plus the handles the benchmark drives."""

    platform: AdPlatform
    provider: TransparencyProvider
    rival_accounts: List[str]

    def account_ids(self) -> List[str]:
        return [self.provider.account.account_id, *self.rival_accounts]


def _population(shape: Shape, rng: np.random.Generator,
                attr_count: int) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, int]:
    """Per-user ages, genders, the attribute permutation and offset."""
    ages = rng.integers(13, 80, size=shape.users)
    genders = rng.integers(0, len(GENDERS), size=shape.users)
    perm = rng.permutation(attr_count)
    offset = int(rng.integers(0, attr_count))
    return ages, genders, perm, offset


def build(shape: Shape, variant: int) -> World:
    """Catalog, platform, population, opt-in, provider launch, rivals.

    This is the set-up the ``setup_s`` metric times.
    """
    rng = np.random.default_rng([variant, shape.users])
    draw = (fixed_competition(shape.competition_cpm)
            if shape.competition_cpm else zero_competition())
    platform = AdPlatform(
        config=PlatformConfig(name=shape.name, columnar_users=True,
                              compact_delivery=True),
        catalog=build_us_catalog(),
        competing_draw=draw,
        store=NullStore(),
    )
    provider = TransparencyProvider(platform, WebDirectory(),
                                    budget=shape.provider_budget,
                                    bid_cap_cpm=shape.treads_bid_cpm)
    attrs = platform.catalog.partner_attributes()
    ages, genders, perm, offset = _population(shape, rng, len(attrs))
    load_population(platform, provider, attrs, ages, genders, perm, offset)
    provider.launch_partner_sweep()
    rivals = launch_rivals(platform, shape, rng, attrs)
    return World(platform, provider, rivals)


def load_population(platform, provider, attrs, ages, genders, perm,
                    offset) -> None:
    """Register every user, give it its attribute rotation, opt it in."""
    count = len(attrs)
    for i in range(len(ages)):
        user = platform.register_user(age=int(ages[i]),
                                      gender=GENDERS[genders[i]])
        base = i * ATTRS_PER_USER + offset
        for k in range(ATTRS_PER_USER):
            user.set_attribute(attrs[perm[(base + k) % count]])
        provider.optin.via_page_like(user.user_id)


def launch_rivals(platform: AdPlatform, shape: Shape,
                  rng: np.random.Generator, attrs) -> List[str]:
    """Rival accounts, each targeting its own draw of partner attributes."""
    accounts = []
    for r in range(shape.rivals):
        account = platform.create_ad_account(f"rival-{r}",
                                             budget=shape.rival_budget)
        campaign = platform.create_campaign(account.account_id, "reach")
        bid = shape.rival_bids_cpm[r % len(shape.rival_bids_cpm)]
        for index in rng.choice(len(attrs), size=shape.ads_per_rival,
                                replace=False):
            platform.submit_ad(
                account.account_id, campaign.campaign_id,
                AdCreative(f"rival {r} offer", "limited time"),
                f"attr:{attrs[int(index)].attr_id}", bid_cap_cpm=bid)
        accounts.append(account.account_id)
    return accounts


def expected_treads_impressions(shape: Shape) -> int:
    return shape.users * (ATTRS_PER_USER + 1)


#: Report fields that are sums of float prices. A partitioned sweep
#: adds each worker's partial sum, so these may differ from the scalar
#: loop's running sum in the last bits; every other field must match
#: exactly. Only spend is compared: effective CPM is spend over the
#: (exactly matched) impressions.
FLOAT_FIELDS = ("spend", "effective_cpm")

#: Relative tolerance on FLOAT_FIELDS, set from float64 precision
#: (eps ~2.2e-16) times the longest possible sum (rows * rounds), with
#: room to spare.
FLOAT_RTOL = 1e-9


def report_dicts(reports_by_account: Dict[str, list]
                 ) -> Dict[str, List[dict]]:
    """Each account's reports as dicts, each list sorted by ``ad_id``
    (the canonical form ``bench_scale_1m`` pins, across accounts)."""
    out = {}
    for account_id, reports in reports_by_account.items():
        rows = [dataclasses.asdict(r) for r in reports]
        rows.sort(key=lambda r: r["ad_id"])
        out[account_id] = rows
    return out


def fingerprint(reports: Dict[str, List[dict]]) -> Dict[str, object]:
    """What ``golden.json`` stores per world: the digest of the
    canonical report JSON, the digest with the float fields left out,
    and each ad's spend."""
    exact = json.dumps(reports, sort_keys=True)
    counts = json.dumps(
        {acct: [{k: v for k, v in r.items() if k not in FLOAT_FIELDS}
                for r in rows] for acct, rows in reports.items()},
        sort_keys=True)
    return {
        "digest": digest(exact),
        "counts_digest": digest(counts),
        "spend": {r["ad_id"]: r["spend"]
                  for rows in reports.values() for r in rows
                  if r["spend"]},
    }


def compare(got: Dict[str, object], golden: Dict[str, object]) -> str:
    """``"exact"``, ``"within-rtol"`` or a failure description."""
    if got["digest"] == golden["digest"]:
        return "exact"
    if got["counts_digest"] != golden["counts_digest"]:
        return "report counts differ from the scalar loop"
    want, have = golden["spend"], got["spend"]
    if set(want) != set(have):
        return "the set of ads with spend differs from the scalar loop"
    for ad_id, value in want.items():
        if abs(have[ad_id] - value) > FLOAT_RTOL * abs(value):
            return (f"spend of {ad_id} is {have[ad_id]!r}, scalar loop "
                    f"{value!r}")
    return "within-rtol"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
