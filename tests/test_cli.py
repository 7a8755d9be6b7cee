"""Tests for the experiment CLI (python -m repro ...).

The paper commands are pinned to the committed artifacts: each prints
the ``render()`` of the ``repro.experiments`` function whose output the
matching benchmark wrote to ``benchmarks/artifacts/``, so its stdout
must contain that file byte for byte.
"""

import pathlib

import pytest

from repro import cli
from repro.cli import main
from repro.telemetry import default_registry

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/artifacts")


def artifact(name: str) -> str:
    return (ARTIFACTS / name).read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def _fresh_default_registry():
    """Each CLI invocation starts from a zeroed process-global registry,
    like the fresh process a shell user gets."""
    default_registry().reset()
    yield
    default_registry().reset()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCli:
    def test_fig2(self, capsys):
        out = run(capsys, "fig2")
        assert "Continental Broadband" in out
        assert "8 VRPs, 0 errors" in out
        assert artifact("fig2_model.txt") in out

    def test_fig3(self, capsys):
        out = run(capsys, "fig3")
        assert "4 additional ROAs" in out
        assert "overwrite-shrink" in out
        assert "make-before-break" in out
        assert artifact("fig3_whack_target20.txt") in out
        assert artifact("fig3_whack_target22.txt") in out

    def test_fig5_left(self, capsys):
        out = run(capsys, "fig5")
        assert "Figure 5 (left)" in out
        assert "unknown" in out
        assert artifact("fig5_left.txt") in out

    def test_fig5_right(self, capsys):
        out = run(capsys, "fig5", "--right")
        assert "Figure 5 (right)" in out
        lines = [l for l in out.splitlines() if l.startswith("63.160.0.0/12 ")]
        assert lines and "valid" in lines[0]
        assert artifact("fig5_right.txt") in out

    def test_tab4(self, capsys):
        out = run(capsys, "tab4")
        assert "Resilans" in out and "IN,US" in out
        assert artifact("tab4_borders.txt") in out

    def test_tab6(self, capsys):
        out = run(capsys, "tab6")
        assert "drop-invalid" in out and "depref-invalid" in out
        assert artifact("tab6_policies.txt") in out

    def test_se6(self, capsys):
        out = run(capsys, "se6")
        assert "invalid, not unknown!" in out
        assert artifact("se6_missing.txt") in out

    def test_se7_drop(self, capsys):
        out = run(capsys, "se7", "--policy", "drop-invalid")
        assert "PERSISTENT FAILURE" in out
        assert artifact("se7_drop_invalid.txt") in out

    def test_se7_depref(self, capsys):
        out = run(capsys, "se7", "--policy", "depref-invalid")
        assert "recovered" in out
        assert artifact("se7_depref_invalid.txt") in out

    def test_monitor(self, capsys):
        out = run(capsys, "monitor")
        assert "recall" in out and "precision" in out
        clean, sloppy = artifact("monitor_clean.txt"), artifact(
            "monitor_sloppy.txt")
        assert clean in out and sloppy in out
        assert out.index(clean) < out.index(sloppy)

    def test_resilience(self, capsys):
        out = run(capsys, "resilience", "--epochs", "4")
        assert "unprotected fetcher" in out
        assert "resilient fetcher" in out
        assert "sustained-stall" in out
        # The unprotected RP pays the full timeout per epoch...
        assert "14400 (grows linearly" in out
        # ...while the resilient one is bounded by the retry policy.
        assert "bounded by worst-case 107 s/refresh" in out
        # --epochs 4 is the first four of the artifact's six epochs.
        first_four = artifact("resilience_stall.txt").splitlines(True)[:4]
        assert "".join(first_four) in out

    def test_resilience_emit_metrics(self, capsys):
        out = run(capsys, "resilience", "--epochs", "4", "--emit-metrics")
        assert "repro_fetch_deadline_misses_total" in out
        assert "repro_breaker_transitions_total" in out
        assert "repro_cache_expired_drops_total" in out

    def test_perf(self, capsys):
        out = run(capsys, "perf", "--epochs", "4")
        assert "cold start" in out
        # The zero-churn warm epoch skips every RSA verification...
        assert "zero-churn warm refresh: 0 RSA verifications" in out
        # ...with a perfect memo hit rate and every point replayed.  Table
        # rows are "<epoch> <kind> <verifies> ..."; the summary footer also
        # mentions "warm" so match on the kind column, not the whole line.
        rows = [l.split() for l in out.splitlines() if l.strip()[:1].isdigit()]
        warm_rows = [r for r in rows if r[1] == "warm"]
        assert warm_rows
        assert all(row[3] == "100.0%" for row in warm_rows)
        assert all(int(row[2]) == 0 for row in warm_rows)
        # The churn epoch re-verifies only the renewed point's objects.
        churn_rows = [r for r in rows if r[1] == "churn"]
        assert len(churn_rows) == 1
        assert 0 < int(churn_rows[0][2]) < 20

    def test_chaos_smoke(self, capsys):
        out = run(capsys, "chaos", "--seed", "7", "--cycles", "3",
                  "--emit-metrics")
        assert "Chaos campaign: seed 7, 3 cycles" in out
        assert ("invariants: safety, equivalence, bounded-interference, "
                "no-crash — held every cycle") in out
        assert "scheduled RP worst unrelated-point age:" in out
        # The staged misbehavior must be detected and shrunk to a minimal
        # reproducer of at most 3 faults.
        assert "staged misbehavior" in out
        assert "detected -> " in out
        assert "safety" in out
        shrunk = [l for l in out.splitlines() if "shrunk the" in l]
        assert len(shrunk) == 1
        minimal = int(shrunk[0].split(" plan to ")[1].split()[0])
        assert 1 <= minimal <= 3
        # --emit-metrics shows the main campaign's own counters (they
        # live on CampaignResult.metrics, not the default registry) and
        # none of the staged demo's or the shrink re-runs'.
        assert "repro_chaos_cycles_total 3" in out
        assert "repro_chaos_faults_scheduled_total" in out

    def test_stalloris_smoke(self, capsys):
        out = run(capsys, "stalloris", "--attack-cycles", "3")
        assert "Stalloris-grade slowdown" in out
        assert "arin-amp.example" in out
        # The attack table contrasts both postures, one row each.
        rows = [line.split()[0] for line in out.splitlines()
                if line.startswith(("budget ", "scheduled "))]
        assert rows == ["budget", "scheduled"]
        # Unscheduled refresh crosses the stale grace; scheduled never does.
        assert "4200s" in out
        assert "never" in out

    def test_stalloris_points_flag(self, capsys):
        out = run(capsys, "stalloris", "--points", "4",
                  "--attack-cycles", "2")
        assert "4 stalled publication points" in out

    def test_api_smoke(self, capsys):
        out = run(capsys, "api")
        assert "Origin-validation query plane" in out
        assert "epoch serial 1:" in out
        # The second classification pass is served entirely from cache.
        assert "cache hits" in out
        # The token bucket rejects part of the 12-request burst...
        assert "4 rate-limited" in out
        # ...and refills on the simulated clock.
        assert "4 simulated seconds later (refill 1/s): ok" in out
        # The whack shows up as a serial bump and a removed VRP.
        assert "serial 1 -> 2" in out
        assert "removed" in out

    def test_api_seed_and_scale(self, capsys):
        out = run(capsys, "api", "--seed", "3", "--scale", "medium")
        assert "'medium' deployment (seed 3)" in out

    def test_api_emit_metrics(self, capsys):
        out = run(capsys, "api", "--emit-metrics")
        assert "repro_api_requests_total" in out
        assert "repro_api_cache_total" in out
        assert "repro_api_rate_limited_total" in out

    def test_seed_trio_accepted_everywhere(self, capsys):
        # The shared option trio parses on every subcommand, including
        # the paper-pinned fixtures (which ignore it).
        out = run(capsys, "fig2", "--seed", "5", "--scale", "large")
        assert "8 VRPs, 0 errors" in out

    def test_perf_emit_metrics(self, capsys):
        out = run(capsys, "perf", "--epochs", "3", "--emit-metrics")
        assert "repro_incremental_verify_memo_total" in out
        assert "repro_incremental_points_total" in out
        assert "repro_incremental_skipped_verifications_total" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_all_runs_every_row(self, capsys, monkeypatch):
        # `all` is a loop over the command table: every other row's
        # handler runs once, in table order, under a `== name` banner.
        # Stub handlers keep this free.
        called = []
        stubs = tuple(
            (name, text, handler if name == "all"
             else lambda _args, name=name: called.append(name))
            for name, text, handler in cli._COMMANDS
        )
        monkeypatch.setattr(cli, "_COMMANDS", stubs)
        out = run(capsys, "all")
        names = [name for name, _text, _handler in stubs if name != "all"]
        assert called == names
        assert [line[3:] for line in out.splitlines()
                if line.startswith("== ")] == names


class TestEmitMetrics:
    def test_fig2_emit_metrics_appends_registry(self, capsys):
        out = run(capsys, "fig2", "--emit-metrics")
        assert "8 VRPs, 0 errors" in out          # artifact unchanged...
        assert "== telemetry" in out              # ...registry appended
        assert "repro_fetch_total" in out
        assert "repro_rp_vrps 8" in out
        assert "repro_validation_runs_total" in out

    def test_json_implies_emit_metrics(self, capsys):
        import json

        out = run(capsys, "fig2", "--json")
        payload = out[out.index("== telemetry"):]
        blob = payload[payload.index("{"):]
        data = json.loads(blob)
        names = {metric["name"] for metric in data["metrics"]}
        assert "repro_rp_vrps" in names
        assert "repro_fetch_total" in names

    def test_without_flag_no_registry(self, capsys):
        out = run(capsys, "fig2")
        assert "repro_fetch_total" not in out

    def test_monitor_emit_metrics(self, capsys):
        out = run(capsys, "monitor", "--emit-metrics")
        # Two ten-epoch campaigns: clean churn, then sloppy.
        assert "repro_monitor_epochs_total 20" in out
        assert "repro_monitor_alerts_total" in out


class TestSideEffectsCommand:
    def test_sideeffects(self, capsys):
        out = run(capsys, "sideeffects")
        for number in range(1, 8):
            assert f"Side Effect {number}" in out

    def test_granularity(self, capsys):
        out = run(capsys, "granularity")
        assert "1048576" in out and "256" in out


class TestRtrCommand:
    def test_rtr_smoke(self, capsys):
        out = run(capsys, "rtr")
        assert "RTR fan-out over the 'small' deployment" in out
        assert "2 tier(s) x fanout 2 = 6 non-validating caches" in out
        # Every edge router converges on the validating RP's exact set.
        assert "12 attached at the edge, 12 synced, " \
               "12 serving exactly the validating RP's set" in out
        assert "divergent deep caches: 0" in out
        # The laggard falls out of the window and resyncs via Cache Reset.
        assert "Cache Reset answers (reason=compacted): 0 -> 1" in out
        # Malformed bytes cost exactly one session, nothing else.
        assert "Error Report sent, session dropped" in out
        assert "surviving sessions unaffected" in out

    def test_rtr_topology_flags(self, capsys):
        out = run(capsys, "rtr", "--tiers", "1", "--fanout", "3",
                  "--routers", "2")
        assert "1 tier(s) x fanout 3 = 3 non-validating caches" in out
        assert "6 attached at the edge, 6 synced" in out

    def test_rtr_seed_and_scale(self, capsys):
        out = run(capsys, "rtr", "--seed", "11", "--scale", "medium")
        assert "RTR fan-out over the 'medium' deployment (seed 11)" in out

    def test_refresh_smoke(self, capsys):
        out = run(capsys, "refresh", "--scale", "small")
        assert "discovery rounds: 4" in out
        # A cold refresh checks each signature once: the verification
        # memo answers a manifest's second check within the refresh.
        assert "RSA verifications: 185" in out
        assert "validated CAs: 35  ROAs: 40  VRPs: 40  errors: 0" in out

    def test_profile_smoke(self, capsys):
        out = run(capsys, "profile", "--top", "5")
        assert "Profiled refresh over the 'small' deployment (seed 21)" in out
        assert "mode" not in out.splitlines()[0]
        # The stage table of the refresh's own trace tree, not cProfile.
        assert "stages by self seconds" in out and "in named stages" in out
        for stage in ("verify", "decode", "row-build", "row-judge", "point",
                      "fetch", "vrp-edit", "unattributed"):
            assert f"  {stage}" in out
        assert "slowest 5 points:" in out and "timer cost:" in out
        assert "world-build" not in out
        assert "tools/profile_refresh.py" in out

    def test_profile_seed(self, capsys):
        out = run(capsys, "profile", "--top", "3", "--seed", "9")
        assert "(seed 9)" in out and "mode" not in out

    @pytest.mark.parametrize("command", ["refresh", "profile"])
    def test_workers_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
