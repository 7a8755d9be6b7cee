"""The stack under test, and the only module that imports ``repro``.

Everything the workloads need from the program — world generation, the
relying party, the query service, the RTR tree, the edge routers, the
mutations and the reference answers — is reached through this adapter,
so the planned engine-mode collapse (ROADMAP, "One validator, not three
engines") edits one file of the benchmark, not four.

The stack, identical for every workload::

    world    flat Internet-style deployment (see SCALES), seeded
    rp       RelyingParty(mode="incremental"), private MetricsRegistry
    service  QueryService(rp, rate limiting off; 4 shards, 4096-entry LRU)
    root     RtrCacheServer fed from rp.vrps
    chain    CacheChain(root, tiers=2, fanout=2)   -> 6 chained caches
    routers  2 RtrRouterClient per deepest cache   -> 8 edge routers
                                                      (14 RTR sessions)

No faults are injected: hostile delivery stays with
``benchmarks/test_bench_stalloris.py``.
"""

from __future__ import annotations

import dataclasses
import random
import time

from repro import (
    INTERNET_SCALES,
    ApiConfig,
    CacheChain,
    DeploymentConfig,
    DuplexPipe,
    Fetcher,
    MetricsRegistry,
    Prefix,
    QueryService,
    RelyingParty,
    RsyncUri,
    RtrCacheServer,
    RtrRouterClient,
    VrpSet,
    build_deployment,
    default_registry,
    validate,
)
from repro.rpki.parse import parse_object
from repro.rpki.roa import RoaPrefix
from repro.rtr import RouterState

from tracing import Tracer

# Simulated seconds between cycles.  Small enough that the longest run
# the contract allows stays inside the generator's 24 h CRL/manifest
# nextUpdate window: crossing it revalidates every point once, a
# one-off outlier that has nothing to do with the change being timed.
CYCLE_STEP_S = 240

TIERS, FANOUT, ROUTERS_PER_EDGE_CACHE = 2, 2, 2

# First origin AS handed to forged announcements and churned ROAs;
# the generators allocate real origins far below it.
FRESH_ASN_BASE = 4_200_000_000

SCALES: dict[str, DeploymentConfig] = {
    # The hierarchical `large` world of the CLI (400 ROAs, one keypair
    # per ROA, delegation four levels deep): the --quick self-test.
    "quick": DeploymentConfig(
        isps_per_rir=8, customers_per_isp=2, suballocation_depth=3,
    ),
    # internet-small's shape (flat, 50 ROAs per publication point, one
    # EE key per authority) at a quarter of its width: 2,500 ROAs, 55
    # authorities.  What fits the contract's time cap; see README.
    "bench": dataclasses.replace(
        INTERNET_SCALES["internet-small"], isps_per_rir=10,
    ),
    # 10^4 ROAs, 205 authorities: the by-hand reference scale.
    "internet-small": INTERNET_SCALES["internet-small"],
}


def _counter_total(registry: MetricsRegistry, name: str, **match: str) -> float:
    """Sum of a counter's children whose labels include *match*."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(
        child.value for labels, child in metric.samples()
        if all(labels.get(k) == v for k, v in match.items())
    )


# Layer counts read from a relying party's registry: metric -> (counter,
# label filter).  Workloads record the difference across one refresh.
_RP_COUNTERS = {
    "repository.fetch_calls": ("repro_fetch_total", {}),
    "repository.fetch_bytes": ("repro_fetch_bytes_total", {}),
    "rp.rounds": ("repro_rp_refresh_rounds_total", {}),
    "rp.points_validated": ("repro_incremental_points_total",
                            {"outcome": "validated"}),
    "rp.points_reused": ("repro_incremental_points_total",
                         {"outcome": "reused"}),
    "rp.verify_memo_hits": ("repro_incremental_verify_memo_total",
                            {"result": "hit"}),
    "rp.verify_memo_lookups": ("repro_incremental_verify_memo_total", {}),
    "rp.parse_memo_hits": ("repro_incremental_parse_memo_total",
                           {"result": "hit"}),
    "rp.parse_memo_lookups": ("repro_incremental_parse_memo_total", {}),
}


def rp_counts(rp: RelyingParty) -> dict[str, float]:
    return {
        name: _counter_total(rp.metrics, counter, **match)
        for name, (counter, match) in _RP_COUNTERS.items()
    }


def rsa_verifies() -> float:
    """RSA verifications this process has performed so far.

    The crypto layer counts into the process-global registry (its keys
    are frozen dataclasses with no injection point).
    """
    return _counter_total(default_registry(), "repro_crypto_verify_total")


class Stack:
    """One world plus the full serving stack over it, warmed up."""

    def __init__(self, scale: str, seed: int, step=lambda: None):
        """*step* is called between the stages of the set-up (the
        harness times its reference kernel there)."""
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        start = time.process_time()
        self.world = build_deployment(
            dataclasses.replace(SCALES[scale], seed=seed)
        )
        self.build_s = time.process_time() - start
        step()
        self.clock = self.world.clock
        self.metrics = MetricsRegistry()
        self.rp = self.new_rp(self.metrics)
        self.bootstrap = self.rp.refresh()
        step()
        self.service = QueryService(
            self.rp, config=ApiConfig(rate_limit=None), metrics=self.metrics
        )
        self.root = RtrCacheServer(metrics=self.metrics)
        self.root.update(self.rp.vrps)
        self.chain = CacheChain(
            self.root, tiers=TIERS, fanout=FANOUT, metrics=self.metrics
        )
        self.chain.pump()
        self.routers: list[tuple[RtrCacheServer, RtrRouterClient]] = []
        for cache in self.chain.deepest():
            for _ in range(ROUTERS_PER_EDGE_CACHE):
                self.routers.append(
                    (cache.server, self.new_router(cache.server))
                )
        self.serve_edge()
        step()
        # Touch every lazy view the serving side builds on first use, so
        # the first timed sample does not pay for it.
        self.service.validate_route("192.0.2.0/24", FRESH_ASN_BASE)
        self.service.lookup_asn(FRESH_ASN_BASE)
        # Authorities that publish ROAs: the mutation and bulk-delta pool.
        self.publishers = [
            ca for ca in self.world.authorities() if ca.issued_roas
        ]
        self.churn = Churn(self)

    # -- relying parties ---------------------------------------------------

    def new_rp(self, metrics: MetricsRegistry | None = None) -> RelyingParty:
        """A relying party over the shared world: empty cache, empty memos."""
        metrics = metrics if metrics is not None else MetricsRegistry()
        return RelyingParty(
            self.world.trust_anchors,
            Fetcher(self.world.registry, self.clock, metrics=metrics),
            mode="incremental",
            metrics=metrics,
        )

    def tick(self) -> None:
        self.clock.advance(CYCLE_STEP_S)

    def truth(self) -> frozenset:
        return self.rp.vrps.as_frozenset()

    # -- RTR ---------------------------------------------------------------

    @staticmethod
    def new_router(
        server: RtrCacheServer, tracer: Tracer | None = None
    ) -> RtrRouterClient:
        """Attach a new session to *server* and send its Reset Query."""
        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(pipe)
        if tracer is not None and tracer.enabled:
            tracer.shim(client, "process", "rtr.router_apply")
        client.connect()
        return client

    @staticmethod
    def applied(server: RtrCacheServer, client: RtrRouterClient) -> bool:
        return (client.state is RouterState.SYNCED
                and client.serial == server.serial)

    @staticmethod
    def serve(sessions, *, max_rounds: int = 8) -> bool:
        """Serve rounds until every (server, client) pair has applied.

        One round: routers read (a Serial Notify makes them query), the
        caches answer, routers apply the burst.
        """
        for _ in range(max_rounds):
            if all(Stack.applied(s, c) for s, c in sessions):
                return True
            for _server, client in sessions:
                client.process()
            for server in {id(s): s for s, _ in sessions}.values():
                server.process()
            for _server, client in sessions:
                client.process()
        return all(Stack.applied(s, c) for s, c in sessions)

    def serve_edge(self) -> bool:
        return self.serve(self.routers)

    def all_sessions(self) -> list[tuple[RtrCacheServer, RtrRouterClient]]:
        """The 14 standing sessions: 6 chained-cache uplinks + 8 routers."""
        uplinks = [(c.upstream, c.client) for c in self.chain.caches()]
        return uplinks + self.routers

    def caches_hold(self, truth: frozenset) -> bool:
        return (self.root.current_vrps() == truth
                and all(c.current_vrps() == truth
                        for c in self.chain.caches()))

    @staticmethod
    def router_holds(client: RtrRouterClient, truth: frozenset) -> bool:
        return (client.state is RouterState.SYNCED
                and client.vrp_set().as_frozenset() == truth)

    # -- telemetry ---------------------------------------------------------

    def counter(self, name: str, **match: str) -> float:
        return _counter_total(self.metrics, name, **match)

    def point_bytes(self, ca) -> int:
        """Bytes the relying party holds for *ca*'s publication point."""
        point = self.rp.cache.point(str(RsyncUri.parse(ca.sia)))
        return sum(len(blob) for blob in point.files.values()) if point else 0

    # -- tracing -----------------------------------------------------------

    def install_shims(self, tracer: Tracer) -> None:
        """Timing shims on the public methods of the instances we own."""
        self.install_rp_shims(tracer, self.rp)
        tracer.shim(self.root, "update", "rtr.server_update")
        tracer.shim(self.root, "process", "rtr.server_process")
        for cache in self.chain.caches():
            tracer.shim(cache, "pump", "rtr.cache_pump")
        for _server, client in self.routers:
            tracer.shim(client, "process", "rtr.router_apply")
        for endpoint in ("validate_route", "lookup_prefix", "lookup_asn"):
            tracer.shim_busy(self.service, endpoint, f"api.{endpoint}")

    @staticmethod
    def install_rp_shims(tracer: Tracer, rp: RelyingParty) -> None:
        tracer.shim(rp.fetcher, "fetch_point", "repository.fetch")
        tracer.shim(rp.cache, "update", "repository.cache_update")
        tracer.shim(rp.cache, "snapshot", "repository.snapshot_digest")
        tracer.shim(rp.cache, "digests", "repository.snapshot_digest")
        tracer.shim(rp.validator, "run", "rp.validator_run")


class Churn:
    """One ROA issued, then revoked, on a seeded authority's own prefix.

    The new ROA authorizes a fresh origin for a prefix the authority
    already covers, so the probe route flips invalid -> valid on issue
    and back on revoke, and the table size is unchanged after each pair.
    The EE key is drawn once per authority here, outside any timed span:
    key generation is a prime search whose duration is not the system's
    publish cost.
    """

    def __init__(self, stack: Stack):
        self.stack = stack
        self._ee_keys: dict[str, object] = {}
        self._next_asn = FRESH_ASN_BASE + 1
        self.live: tuple | None = None      # (ca, file name) awaiting revoke
        self.probe: tuple[str, int] | None = None

    def prepare(self):
        """Pick the next mutation; returns the callable that publishes it."""
        stack = self.stack
        if self.live is not None:
            ca, name = self.live
            self.live = None
            return "revoke", ca, lambda: ca.revoke_roa(name)
        ca = stack.rng.choice(stack.publishers)
        roa = ca.issued_roas[stack.rng.choice(sorted(ca.issued_roas))]
        prefix = roa.prefixes[0].prefix
        asn = self._next_asn
        self._next_asn += 1
        ee_key = self._ee_keys.get(ca.handle)
        if ee_key is None:
            ee_key = self._ee_keys[ca.handle] = (
                stack.world.key_factory.next_keypair()
            )
        self.probe = (str(prefix), asn)

        def issue():
            name, _roa = ca.issue_roa(asn, [RoaPrefix(prefix)], ee_key=ee_key)
            self.live = (ca, name)

        return "issue", ca, issue


def bulk_whack_sets(stack: Stack, authorities: int = 10) -> tuple[VrpSet, VrpSet]:
    """(current set, the set with *authorities* seeded origins withdrawn).

    A parent whacking whole subtrees: every VRP of the chosen origin
    ASes goes at once.  Both sets are prebuilt so the timed span is the
    RTR plane's work alone.
    """
    full = stack.rp.vrps
    origins = sorted({vrp.asn for vrp in full}, key=int)
    chosen = set(stack.rng.sample(origins, min(authorities, len(origins) // 2)))
    kept = VrpSet(vrp for vrp in full if vrp.asn not in chosen)
    kept.as_frozenset()
    return full, kept


# -- queries -----------------------------------------------------------------

VALIDATE, LOOKUP_PREFIX, LOOKUP_ASN = 0, 1, 2


def query_universe(vrps: VrpSet, rng: random.Random, distinct: int) -> list[tuple]:
    """*distinct* different queries built from the live VRPs, shuffled.

    In order of preference: every VRP's own announcement (authorized),
    an exact-prefix lookup, one lookup per origin AS; then, until the
    count is reached, forged-origin announcements and lookups of more
    specifics — the traffic an origin-validating router or a looking-
    glass user sends.
    """
    table = list(vrps)
    queries: list[tuple] = []
    for vrp in table:
        queries.append((VALIDATE, str(vrp.prefix), int(vrp.asn)))
        queries.append((LOOKUP_PREFIX, str(vrp.prefix), 0))
    for asn in sorted({int(vrp.asn) for vrp in table}):
        queries.append((LOOKUP_ASN, "", asn))
    variant = 0
    while len(queries) < distinct:
        variant += 1
        for vrp in table:
            queries.append(
                (VALIDATE, str(vrp.prefix), FRESH_ASN_BASE + 10_000 + variant)
            )
            if vrp.prefix.length + variant <= vrp.prefix.afi.bits:
                sub = next(iter(
                    vrp.prefix.subprefixes(vrp.prefix.length + variant)
                ))
                queries.append((LOOKUP_PREFIX, str(sub), 0))
    rng.shuffle(queries)
    return queries[:distinct]


def ask(service: QueryService, query: tuple):
    kind, prefix, asn = query
    if kind == VALIDATE:
        return service.validate_route(prefix, asn)
    if kind == LOOKUP_PREFIX:
        return service.lookup_prefix(prefix)
    return service.lookup_asn(asn)


def direct_answer(vrps: VrpSet, query: tuple):
    """The answer computed straight from the VRP set, bypassing the service."""
    kind, prefix, asn = query
    if kind == VALIDATE:
        return validate(prefix, asn, vrps)
    if kind == LOOKUP_PREFIX:
        return tuple(vrps.covering(Prefix.parse(prefix)))
    return vrps.by_asn(asn)


# -- crypto replays ----------------------------------------------------------

def rsa_verify_replay(stack: Stack, minimum: int = 256) -> tuple[int, float]:
    """(verifies, seconds): ``RsaPublicKey.verify`` over real objects.

    The objects at the trust anchors' publication points that verify
    under the anchor's own key (child certificates and the CRL; the
    manifest is signed by its one-time EE key), verified again and
    again until at least *minimum* verifications have been timed.
    """
    jobs = []
    for root, _rir in stack.world.roots:
        point = stack.rp.cache.point(str(RsyncUri.parse(root.sia)))
        key = root.certificate.subject_key
        for blob in point.files.values():
            obj = parse_object(blob)
            if obj.verify_signature(key):
                jobs.append((obj, key))
    rounds = -(-minimum // len(jobs))
    start = time.process_time()
    for _ in range(rounds):
        for obj, key in jobs:
            obj.verify_signature(key)
    return rounds * len(jobs), time.process_time() - start


def ctlv_decode_replay(stack: Stack) -> tuple[int, float]:
    """(bytes, seconds): ``parse_object`` over every blob the RP holds."""
    blobs = [
        blob
        for point in stack.rp.cache.points()
        for blob in point.files.values()
    ]
    start = time.process_time()
    for blob in blobs:
        parse_object(blob)
    return sum(len(b) for b in blobs), time.process_time() - start
