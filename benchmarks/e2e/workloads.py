"""The four workloads: closed loop, one client, one thread.

Each workload is a ``prepare`` step (input generation and the warm-up
samples, which are checked and then forgotten; counted in ``setup_s``), a
``run`` pass that fills a :class:`harness.Recorder` inside a wall-clock
time box of ``box`` seconds, and a ``layers`` function that turns one
traced pass into per-layer metrics.  The same ``run`` serves the
untraced and the traced pass; ``tr.span`` costs nothing when off.

Every correctness check sits *outside* the timed spans (building one
router's ``VrpSet`` to compare it costs about as much as a whole churn
cycle) and feeds ``rec.check`` rather than raising.

Why these four — each is the opposite regime of another for the same
code, so an optimisation has one workload that exercises it and one
that bypasses it:

``cold-bootstrap``  fetch, decode, RSA verify and path validation do
    all the work; rtr and api do none.
``roa-churn``  the north-star path, publish -> answer and -> routers;
    every layer does little *useful* work, so per-refresh and
    per-epoch fixed costs dominate.
``fleet-sync``  rtr does all the work, rp and crypto none; the
    snapshot path and the bulk-delta path of the same layer.
``query-mix``  api and the prefix trie do all the work; hot and wide
    move the working set across the response cache's bound, post-epoch
    is the write-beside-read case.
"""

from __future__ import annotations

import gc
import time

import stack as st
from harness import Phase, Recorder, clocks
from tracing import Tracer

QUERY_BLOCK = 2000
HOT_DISTINCT = 2048           # fits the 4,096-entry response cache
WIDE_DISTINCT = 10 * 4096     # ten times the cache
SPOT_CHECKS = 25              # answers per block compared with a direct one
FLEET_BATCH = 8
FLEET_WARMUP_BATCHES = 2
COLD_WARMUP = 1               # on top of the stack's own bootstrap refresh
_OFF = Tracer()               # for the warm-up samples: records nothing


def _begin(tr: Tracer, rec: Recorder, phase: str) -> None:
    tr.begin_cycle(phase)
    rec.count("n." + phase)


def _count_delta(rec: Recorder, before: dict, after: dict) -> None:
    for name, value in after.items():
        rec.count(name, value - before[name])


def _rotating_pair(stack: st.Stack, turn: int):
    routers = stack.routers
    return [routers[(2 * turn) % len(routers)],
            routers[(2 * turn + 1) % len(routers)]]


def _refresh_ok(rec: Recorder, report, what: str) -> None:
    rec.check(not report.run.errors(), f"{what}: validation errors")


# -- cold-bootstrap ----------------------------------------------------------

def cold_prepare(stack: st.Stack, rec: Recorder) -> None:
    # The process-level warm-up the first cold refreshes pay (imports,
    # interned keys, allocator growth) is not the system's cold cost.
    for _ in range(COLD_WARMUP):
        _refresh_ok(rec, stack.new_rp().refresh(), "warm-up cold refresh")


def cold_run(stack: st.Stack, rec: Recorder, tr: Tracer, box: float) -> None:
    expected = stack.rp.vrps.content_hash()
    phase = Phase(box)
    while phase.more():
        _begin(tr, rec, "cold")
        rp = stack.new_rp()
        if tr.enabled:
            stack.install_rp_shims(tr, rp)
        verifies = st.rsa_verifies()
        with rec.sample("cold_refresh"), tr.span("rp.refresh"):
            report = rp.refresh()
        rec.count("crypto.rsa_verify_count", st.rsa_verifies() - verifies)
        for name, value in st.rp_counts(rp).items():
            rec.count(name, value)
        _refresh_ok(rec, report, "cold refresh")
        rec.check(rp.vrps.content_hash() == expected,
                  "cold refresh: VRP set differs from the warm stack's")
        # The same relying party, asked again with nothing changed: the
        # memo-replay regime of the code the line above ran cold.
        _begin(tr, rec, "rerefresh")
        with rec.sample("warm_rerefresh"), tr.span("rp.refresh"):
            report = rp.refresh()
        _refresh_ok(rec, report, "re-refresh")
        rec.check(rp.vrps.content_hash() == expected,
                  "re-refresh: VRP set changed")


def cold_layers(stack, rec, tr) -> dict:
    n = rec.counts["n.cold"]
    out = _rp_layers(rec, tr, "cold", n)
    out["crypto.rsa_verify_count"] = rec.counts["crypto.rsa_verify_count"] / n
    return out


def _rp_layers(rec: Recorder, tr: Tracer, phase: str, refreshes: float) -> dict:
    """repository.* and rp.* per refresh of *phase*."""
    c = rec.counts
    out = {
        "repository.fetch_s": tr.total("repository.fetch", phase),
        "repository.cache_update_s": tr.total("repository.cache_update", phase),
        "repository.snapshot_digest_s":
            tr.total("repository.snapshot_digest", phase),
        "rp.validator_run_s": tr.total("rp.validator_run", phase),
        "rp.refresh_self_s": tr.total("rp.refresh", phase, self_only=True),
    }
    for name in ("repository.fetch_calls", "repository.fetch_bytes",
                 "rp.rounds", "rp.points_validated", "rp.points_reused"):
        out[name] = c.get(name, 0)
    out = {name: value / refreshes for name, value in out.items()}
    for memo in ("verify", "parse"):
        lookups = c.get(f"rp.{memo}_memo_lookups", 0)
        out[f"rp.{memo}_memo_hit_ratio"] = (
            c.get(f"rp.{memo}_memo_hits", 0) / lookups if lookups else 0.0
        )
    return out


# -- roa-churn ---------------------------------------------------------------

def churn_prepare(stack: st.Stack, rec: Recorder) -> None:
    # The first issue, revoke and idle cycle of a process cost up to
    # 1.5x the later ones.
    for turn in (1, 2):
        stack.tick()
        _mutation_cycle(stack, rec, _OFF, turn, check_all=False)
    stack.tick()
    _idle_cycle(stack, rec, _OFF)


def churn_run(stack: st.Stack, rec: Recorder, tr: Tracer, box: float) -> None:
    phase = Phase(box, min_samples=8)
    turn = 0
    while phase.more():
        turn += 1
        stack.tick()
        if turn % 4 == 0:
            _idle_cycle(stack, rec, tr)
        else:
            _mutation_cycle(stack, rec, tr, turn, check_all=(turn == 1))
    truth = stack.truth()
    for _server, client in stack.routers:
        rec.check(stack.router_holds(client, truth),
                  "final: an edge router's table differs from rp.vrps")


def _mutation_cycle(stack, rec, tr, turn: int, *, check_all: bool) -> None:
    kind, ca, publish = stack.churn.prepare()
    prefix, asn = stack.churn.probe
    _begin(tr, rec, "mutation")
    rec.count("n." + kind)
    before_truth = stack.truth()
    verifies = st.rsa_verifies()
    counts = st.rp_counts(stack.rp)
    pdus = stack.counter("repro_rtr_pdus_sent_total", type="prefix_pdu")
    resets = stack.counter("repro_rtr_cache_resets_total")
    applied_before = [client.vrp_count for _s, client in stack.routers]

    gc.collect()
    rec.pace()
    start = clocks()
    with tr.span("ca.publish"):
        publish()
    with tr.span("rp.refresh"):
        report = stack.rp.refresh()
    with tr.span("api.sync"):
        answer = stack.service.validate_route(prefix, asn)
    answered = clocks()
    stack.root.update(stack.rp.vrps)
    with tr.span("rtr.chain_pump"):
        stack.chain.pump()
    with tr.span("rtr.edge_serve"):
        served = stack.serve_edge()
    end = clocks()
    rec["publish_to_answer"].add(start, answered)
    rec["publish_to_router"].add(start, end)

    truth = stack.truth()
    rec.count(f"crypto.rsa_verify_{kind}", st.rsa_verifies() - verifies)
    _count_delta(rec, counts, st.rp_counts(stack.rp))
    rec.count("rtr.prefix_pdus_sent", stack.counter(
        "repro_rtr_pdus_sent_total", type="prefix_pdu") - pdus)
    rec.count("rtr.cache_resets",
              stack.counter("repro_rtr_cache_resets_total") - resets)
    rec.count("rtr.delta_vrps", len(truth ^ before_truth))
    rec.count("rtr.pdus_applied", sum(
        abs(client.vrp_count - was)
        for (_s, client), was in zip(stack.routers, applied_before)
    ))
    rec.count("rtr.chain_pump_calls")
    rec.count("ca.point_bytes_published", stack.point_bytes(ca))

    _refresh_ok(rec, report, f"{kind} refresh")
    expected = st.direct_answer(stack.rp.vrps, (st.VALIDATE, prefix, asn))
    want = "valid" if kind == "issue" else "invalid"
    rec.check(answer.ok and answer.payload == expected
              and expected.state.value == want,
              f"{kind}: answer for {prefix} AS{asn} did not flip to {want}")
    rec.check(served, f"{kind}: an edge router never applied the delta")
    rec.check(stack.caches_hold(truth),
              f"{kind}: a cache serves a set other than rp.vrps")
    checked = stack.routers if check_all else _rotating_pair(stack, turn)
    for _server, client in checked:
        rec.check(stack.router_holds(client, truth),
                  f"{kind}: an edge router's table differs from rp.vrps")


def _idle_cycle(stack, rec, tr) -> None:
    _begin(tr, rec, "idle")
    truth = stack.truth()
    verifies = st.rsa_verifies()
    with rec.sample("idle_refresh"), tr.span("rp.refresh"):
        report = stack.rp.refresh()
    rec.count("crypto.rsa_verify_idle", st.rsa_verifies() - verifies)
    _refresh_ok(rec, report, "idle refresh")
    rec.check(stack.truth() == truth, "idle refresh changed the VRP set")


def churn_layers(stack, rec, tr) -> dict:
    c = rec.counts
    n = c["n.mutation"]
    out = _rp_layers(rec, tr, "mutation", n)
    for name, span in (("ca.publish_s", "ca.publish"),
                       ("api.sync_s", "api.sync"),
                       ("rtr.server_update_s", "rtr.server_update"),
                       ("rtr.server_process_s", "rtr.server_process"),
                       ("rtr.chain_pump_s", "rtr.chain_pump"),
                       ("rtr.edge_serve_s", "rtr.edge_serve"),
                       ("rtr.router_apply_s", "rtr.router_apply")):
        out[name] = tr.total(span, "mutation") / n
    for name in ("ca.point_bytes_published", "rtr.delta_vrps",
                 "rtr.prefix_pdus_sent", "rtr.pdus_applied",
                 "rtr.cache_resets", "rtr.chain_pump_calls"):
        out[name] = c.get(name, 0) / n
    out["repository.idle_snapshot_digest_s"] = (
        tr.total("repository.snapshot_digest", "idle") / c.get("n.idle", 1)
    )
    for kind in ("issue", "revoke", "idle"):
        out[f"crypto.rsa_verify_per_{kind}"] = (
            c.get(f"crypto.rsa_verify_{kind}", 0) / c.get("n." + kind, 1)
        )
    out["crypto.rsa_verify_count"] = (
        c.get("crypto.rsa_verify_issue", 0)
        + c.get("crypto.rsa_verify_revoke", 0)
    ) / n
    return out


# -- fleet-sync --------------------------------------------------------------

def fleet_prepare(stack: st.Stack, rec: Recorder) -> None:
    stack.whack_sets = full, kept = st.bulk_whack_sets(stack)
    truth = stack.root.current_vrps()
    for _ in range(FLEET_WARMUP_BATCHES):
        _full_sync_batch(stack, rec, _OFF, truth, 0)
    for target in (kept, full):
        _bulk_delta(stack, rec, _OFF, target, stack.all_sessions(), 0)


def fleet_run(stack: st.Stack, rec: Recorder, tr: Tracer, box: float) -> None:
    verifies = st.rsa_verifies()
    truth = stack.root.current_vrps()
    full, kept = stack.whack_sets
    sessions = stack.all_sessions()
    # The two phases take turns, one batch then one pair of deltas (a
    # third and two thirds of the box; the pairs are the noisier
    # series), so a slow stretch of a shared machine falls on both and
    # neither series is made of one contiguous window.
    phase = Phase(box)
    while phase.more():
        _begin(tr, rec, "full_sync")
        _full_sync_batch(stack, rec, tr, truth, phase.taken)
        # Withdrawing and re-announcing cost different amounts; one
        # sample is the mean of a pair, so the median is not a coin toss
        # between two modes.  One reference timing serves the pair.
        rec.pace()
        pair = [_bulk_delta(stack, rec, tr, target, sessions, phase.taken)
                for target in (kept, full)]
        rec["bulk_delta_sync"].add_value(
            *(sum(clock) / 2 for clock in zip(*pair))
        )
    rec.count("crypto.rsa_verify_count", st.rsa_verifies() - verifies)


def _full_sync_batch(stack, rec, tr, truth, turn: int) -> None:
    """8 new sessions on the root: connect -> snapshot burst -> SYNCED."""
    root = stack.root
    pdus = stack.counter("repro_rtr_pdus_sent_total", type="prefix_pdu")
    gc.collect()
    rec.pace()
    start = clocks()
    with tr.span("fleet.full_sync"):
        sessions = [(root, stack.new_router(root, tr))
                    for _ in range(FLEET_BATCH)]
        synced = stack.serve(sessions)
    end = clocks()
    rec["fleet_full_sync"].add(start, end)
    rec.count("rtr.prefix_pdus_sent", stack.counter(
        "repro_rtr_pdus_sent_total", type="prefix_pdu") - pdus)
    rec.count("rtr.pdus_applied",
              sum(client.vrp_count for _s, client in sessions))
    rec.check(synced, "full sync: a session never reached SYNCED")
    for _server, client in sessions:
        rec.check(client.vrp_count == len(truth),
                  "full sync: a router holds the wrong number of VRPs")
    probe = sessions[turn % FLEET_BATCH][1]
    rec.check(stack.router_holds(probe, truth),
              "full sync: a router's table differs from the root's")
    for _server, client in sessions:
        client.pipe.close()
    root.process()


def _bulk_delta(stack, rec, tr, target, sessions, turn: int):
    """A +-500-VRP delta at the root, through the chain, to every session.

    Returns the (wall, cpu) seconds it took.
    """
    _begin(tr, rec, "bulk_delta")
    before = stack.root.current_vrps()
    pdus = stack.counter("repro_rtr_pdus_sent_total", type="prefix_pdu")
    resets = stack.counter("repro_rtr_cache_resets_total")
    applied_before = [client.vrp_count for _s, client in stack.routers]
    gc.collect()
    start = clocks()
    with tr.span("fleet.bulk_delta"):
        stack.root.update(target)
        with tr.span("rtr.chain_pump"):
            stack.chain.pump()
        with tr.span("rtr.edge_serve"):
            served = stack.serve_edge()
    end = clocks()
    truth = target.as_frozenset()
    rec.count("rtr.delta_vrps", len(truth ^ before))
    rec.count("rtr.delta_prefix_pdus_sent", stack.counter(
        "repro_rtr_pdus_sent_total", type="prefix_pdu") - pdus)
    rec.count("rtr.cache_resets",
              stack.counter("repro_rtr_cache_resets_total") - resets)
    rec.count("rtr.delta_pdus_applied", sum(
        abs(client.vrp_count - was)
        for (_s, client), was in zip(stack.routers, applied_before)
    ))
    rec.count("rtr.chain_pump_calls")
    rec.check(served and all(stack.applied(s, c) for s, c in sessions),
              "bulk delta: a session is not consistent with its cache")
    rec.check(stack.caches_hold(truth),
              "bulk delta: a cache serves a set other than the root's")
    for _server, client in _rotating_pair(stack, turn):
        rec.check(stack.router_holds(client, truth),
                  "bulk delta: an edge router's table differs from the root's")
    return end[0] - start[0], end[1] - start[1]


def fleet_layers(stack, rec, tr) -> dict:
    c = rec.counts
    batches, deltas = c["n.full_sync"], c["n.bulk_delta"]
    return {
        "rtr.server_process_s": tr.total("rtr.server_process", "full_sync") / batches,
        "rtr.router_apply_s": tr.total("rtr.router_apply", "full_sync") / batches,
        "rtr.prefix_pdus_sent": c["rtr.prefix_pdus_sent"] / batches,
        "rtr.pdus_applied": c["rtr.pdus_applied"] / batches,
        "rtr.server_update_s": tr.total("rtr.server_update", "bulk_delta") / deltas,
        "rtr.chain_pump_s": tr.total("rtr.chain_pump", "bulk_delta") / deltas,
        "rtr.edge_serve_s": tr.total("rtr.edge_serve", "bulk_delta") / deltas,
        "rtr.delta_router_apply_s":
            tr.total("rtr.router_apply", "bulk_delta") / deltas,
        "rtr.delta_vrps": c["rtr.delta_vrps"] / deltas,
        "rtr.delta_prefix_pdus_sent": c["rtr.delta_prefix_pdus_sent"] / deltas,
        "rtr.delta_pdus_applied": c["rtr.delta_pdus_applied"] / deltas,
        "rtr.cache_resets": c.get("rtr.cache_resets", 0) / deltas,
        "rtr.chain_pump_calls": c["rtr.chain_pump_calls"] / deltas,
        "crypto.rsa_verify_count": c["crypto.rsa_verify_count"],
    }


# -- query-mix ---------------------------------------------------------------

def query_prepare(stack: st.Stack, rec: Recorder) -> None:
    vrps = stack.rp.vrps
    stack.hot = st.query_universe(vrps, stack.rng, HOT_DISTINCT)
    stack.wide = st.query_universe(vrps, stack.rng, WIDE_DISTINCT)


def query_run(stack: st.Stack, rec: Recorder, tr: Tracer, box: float) -> None:
    service, rng = stack.service, stack.rng

    # hot: the working set fits the cache, which is filled first.
    for query in stack.hot:
        st.ask(service, query)
    phase = Phase(0.3 * box)
    while phase.more():
        _begin(tr, rec, "hot")
        _query_block(stack, rec, tr, "hot", rng.choices(stack.hot, k=QUERY_BLOCK))

    # wide: ten times the cache.  Every third block times each query on
    # its own for the latency tail; the others are timed whole, so the
    # rate does not pay for 4,000 clock reads.
    phase = Phase(0.4 * box, min_samples=4)
    while phase.more():
        stream = rng.choices(stack.wide, k=QUERY_BLOCK)
        if phase.taken % 3 == 0:
            _begin(tr, rec, "wide_latency")
            _latency_block(stack, rec, stream)
        else:
            _begin(tr, rec, "wide")
            _query_block(stack, rec, tr, "wide", stream)

    # post-epoch: one ROA changes and the service adopts the new epoch
    # (both untimed); the block that follows meets a cache whose every
    # entry is keyed to an older content hash.
    phase = Phase(0.3 * box)
    while phase.more():
        # Revoke the previous block's ROA and issue a new one: a revoke
        # alone would return to a content hash whose answers are still
        # cached, and the blocks would alternate between cold and warm.
        kind = ""
        while kind != "issue":
            kind, _ca, publish = stack.churn.prepare()
            publish()
        stack.tick()
        _refresh_ok(rec, service.refresh(), "post-epoch refresh")
        _begin(tr, rec, "post_epoch")
        _query_block(stack, rec, tr, "post_epoch",
                     rng.choices(stack.hot, k=QUERY_BLOCK))


def _query_block(stack, rec, tr, phase: str, stream: list) -> None:
    service = stack.service
    ask = st.ask
    hits, misses, evictions = service.cache_stats()
    verifies = st.rsa_verifies()
    with rec.sample(f"query_{phase}_block"), tr.span("query.block"):
        answers = [ask(service, query) for query in stream]
    after = service.cache_stats()
    rec.count("crypto.rsa_verify_count", st.rsa_verifies() - verifies)
    rec.count(f"api.hits_{phase}", after[0] - hits)
    rec.count(f"api.lookups_{phase}", after[0] - hits + after[1] - misses)
    rec.count(f"api.evictions_{phase}", after[2] - evictions)
    _check_answers(stack, rec, stream, answers)


def _latency_block(stack, rec, stream: list) -> None:
    service = stack.service
    ask, cpu = st.ask, time.process_time
    latencies, answers = [], []
    gc.collect()
    rec.pace()
    for query in stream:
        start = cpu()
        answer = ask(service, query)
        latencies.append(cpu() - start)
        answers.append(answer)
    rec["query_wide_latency"].extend_cpu(latencies)
    _check_answers(stack, rec, stream, answers)


def _check_answers(stack, rec, stream, answers) -> None:
    bad = sum(1 for answer in answers if not answer.ok)
    rec.attempted += len(answers)
    if bad:
        rec.failed += bad
        rec.failures.append(f"{bad} non-ok responses in a block")
    vrps = stack.rp.vrps
    for index in stack.rng.sample(range(len(stream)), SPOT_CHECKS):
        rec.check(answers[index].payload == st.direct_answer(vrps, stream[index]),
                  f"answer to {stream[index]} differs from the direct one")


def query_layers(stack, rec, tr) -> dict:
    c = rec.counts
    # Verifications while answering; the untimed post-epoch refreshes
    # between blocks do theirs outside this count.
    out = {"crypto.rsa_verify_count": c["crypto.rsa_verify_count"]}
    for endpoint in ("validate_route", "lookup_prefix", "lookup_asn"):
        calls, seconds = tr.busy[f"api.{endpoint}"]
        out[f"api.{endpoint}_busy_us"] = seconds / calls * 1e6 if calls else 0.0
    for phase in ("hot", "wide", "post_epoch"):
        lookups = c.get(f"api.lookups_{phase}", 0)
        out[f"api.cache_hit_ratio_{phase}"] = (
            c.get(f"api.hits_{phase}", 0) / lookups if lookups else 0.0
        )
    out["api.evictions"] = (
        c.get("api.evictions_wide", 0) / c.get("api.lookups_wide", 1) * 1000
    )
    return out


WORKLOADS = {
    "cold-bootstrap": (cold_prepare, cold_run, cold_layers),
    "roa-churn": (churn_prepare, churn_run, churn_layers),
    "fleet-sync": (fleet_prepare, fleet_run, fleet_layers),
    "query-mix": (query_prepare, query_run, query_layers),
}
