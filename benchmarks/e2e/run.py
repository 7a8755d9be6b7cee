#!/usr/bin/env python3
"""End-to-end benchmark of the publish -> router / answer pipeline.

    python3 benchmarks/e2e/run.py --workload roa-churn --seed 1
    python3 benchmarks/e2e/run.py --workload all --trace
    python3 benchmarks/e2e/run.py --workload all --check-repeat
    python3 benchmarks/e2e/run.py --workload all --spread 10 --seed 1000
    python3 benchmarks/e2e/run.py --workload all --trace --quick

One run builds the world from ``--seed``, brings the whole serving
stack up, runs one workload single-threaded inside a ``--seconds`` time
box, checks every output, prints every metric by name with its unit,
writes ``results/<workload>.json`` and ends with one JSON line for the
driver (``BENCHMARK.json`` at the repository root is the contract).
``--trace`` halves the box: an untraced pass gives the end-to-end
numbers, a traced pass the per-layer ones and the stage table.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
# The program under test is pure Python: "building" it is importing it
# from the checkout's source tree.
sys.path[:0] = [str(HERE), str(REPO / "src")]

import harness  # noqa: E402
from tracing import Tracer, render_stage_table  # noqa: E402

WORKLOAD_NAMES = ("cold-bootstrap", "roa-churn", "fleet-sync", "query-mix")
SETUP_REPEATS = 3
SETUP_SEED_STRIDE = 1_000_003


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the world and every mutation/query choice")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock box for the measured part "
                             "(default: run_seconds of BENCHMARK.json; 1.5 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced pass: per-layer metrics, stage table")
    parser.add_argument("--scale", default="bench",
                        choices=("bench", "internet-small"))
    parser.add_argument("--quick", action="store_true",
                        help="self-test on the 400-ROA hierarchical world, "
                             "one set-up, 1.5 s box; overrides --scale")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run twice with --seed and once with --seed+1 in "
                             "separate processes; fail on a metric outside its bound")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds from --seed on, one process each; "
                             "fail if a gated metric's quartile spread "
                             "exceeds its bound")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = "quick"
    if args.seconds is None:
        args.seconds = 1.5 if args.quick else float(contract()["run_seconds"])
    return args


def contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# -- one workload, in this process -------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    spec = contract()
    import_start = harness.clocks()
    import metrics
    import stack as st
    from workloads import WORKLOADS
    import_s = harness.clocks()[1] - import_start[1]
    prepare, run, layers = WORKLOADS[args.workload]
    # Set up several times and report the median, so one slow set-up
    # does not read as a regression.  Each set-up builds another world
    # (the program caches generated keys per seed for the life of the
    # process, so a second build of the same one would skip key
    # generation); the last, which the workload runs on, is --seed's.
    # The import is paid once per process and added to every sample.
    # A set-up is one long sample, so it is stated at the nominal
    # machine speed by the mean of the reference timings taken before
    # it, between its steps and after it (whose own time is taken out).
    setups = []
    stack = rec = None
    for repeat in reversed(range(1 if args.quick else SETUP_REPEATS)):
        stack = rec = None          # free the previous world untimed
        gc.collect()
        rec = harness.Recorder()
        start = harness.clocks()
        stack = st.Stack(args.scale, args.seed + repeat * SETUP_SEED_STRIDE,
                         rec.take_reference)
        prepare(stack, rec)
        gc.collect()
        end = harness.clocks()
        rec.take_reference()
        cpu_s = import_s + end[1] - start[1] - sum(rec.refs[1:-1])
        slowdown = statistics.fmean(rec.refs) / harness.REF_NOMINAL_S
        setups.append({"cpu_s": cpu_s, "paced_cpu_s": cpu_s / slowdown,
                       "wall_s": end[0] - start[0],
                       "build_cpu_s": stack.build_s, "refs": list(rec.refs)})
    rec.forget_samples()
    # The simulated world (every CA, key and published object) shares
    # this process only because it is a benchmark; a collection inside a
    # timed sample should walk what the measured code allocates, not
    # that.  Also keeps the collect() before each sample cheap.
    gc.freeze()
    setup_s = statistics.median(s["paced_cpu_s"] for s in setups)

    tracer = Tracer()
    seconds = args.seconds / 2 if args.trace else args.seconds
    run(stack, rec, tracer, seconds)
    rec.take_reference()

    layer_values: dict[str, float] = {}
    traced = None
    if args.trace:
        tracer.enabled = True
        stack.install_shims(tracer)
        traced = harness.Recorder()
        run(stack, traced, tracer, seconds)
        traced.take_reference()
        layer_values = layers(stack, traced, tracer)
        layer_values.update(crypto_replays(st, stack, layer_values))
    calibration_s = harness.percentile(rec.refs, 10)

    named = metrics.named_metrics(args.workload, rec)
    end_to_end = metrics.contract_metrics(
        args.workload, rec, setup_s, harness.peak_rss_mb()
    )
    attempted = rec.attempted + (traced.attempted if traced else 0)
    failed = rec.failed + (traced.failed if traced else 0)
    failures = rec.failures + (traced.failures if traced else [])
    if args.trace:
        headline = metrics.OPERATIONS[args.workload][0]
        layer_values.update({name: m["value"] for name, m in named.items()})
        layer_values.update({
            "modelgen.build_s": stack.build_s,
            "trace_overhead_ratio":
                traced[headline].median() / rec[headline].median(),
            "preempted_samples": rec.preempted(),
            "wall_cpu_ratio": rec.wall_cpu_ratio(),
            "calibration_s": calibration_s,
        })

    label = (f"{args.workload}  seed={args.seed} scale={args.scale} "
             f"seconds={args.seconds:g}" + ("  [QUICK self-test]" if args.quick else ""))
    print(f"== {label} ==")
    print("end-to-end, untraced pass (process-CPU seconds at the nominal "
          "machine speed; n = samples)")
    for name, m in {**end_to_end, **named}.items():
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:<26}{m['value']:>14.6g} {m['unit']:<6}{n}")
    print("  set-ups " + " / ".join(f"{s['paced_cpu_s']:.2f}" for s in setups)
          + f" s cpu at nominal speed, wall/cpu over samples {rec.wall_cpu_ratio():.2f}, "
          f"preempted samples {rec.preempted()}, calibration "
          f"{calibration_s * 1e3:.2f} ms cpu (lower decile of "
          f"{len(rec.refs)} reference timings; nominal "
          f"{harness.REF_NOMINAL_S * 1e3:g})")
    if args.trace:
        print("per-layer, traced pass (seconds and counts are per cycle of "
              "the phase that owns them; see README)")
        for name in sorted(layer_values):
            if name not in named:
                print(f"  {name:<34}{layer_values[name]:>14.6g}")
        print("stage table, traced pass")
        print(render_stage_table(tracer.stage_table()))
    for failure in failures:
        print(f"  FAILED: {failure}")

    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "quick": args.quick, "seconds": args.seconds, "traced": bool(args.trace),
        "environment": harness.environment(REPO),
        "calibration_s": calibration_s,
        "setup": {"median_paced_cpu_s": setup_s, "import_cpu_s": import_s,
                  "samples": setups},
        "attempted": attempted, "failed": failed, "failures": failures,
        "end_to_end": end_to_end, "named": named, "per_layer": layer_values,
        "samples": {name: s.to_json() for name, s in rec.series.items()},
        "refs": rec.refs,
        "counts": rec.counts,
    }
    (RESULTS / f"{args.workload}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (RESULTS / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "clock": "process_time", "phases": tracer.phases,
            "stage_table": tracer.stage_table(), "spans": tracer.to_json(),
        }))

    if args.trace:
        out = {m["name"]: {"value": float(layer_values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        out = {m["name"]: {"value": end_to_end[m["name"]]["value"],
                           "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def crypto_replays(st, stack, layer_values: dict) -> dict:
    """The crypto layer's unit costs, replayed over the run's real objects."""
    verifies, seconds = st.rsa_verify_replay(stack)
    op_us = seconds / verifies * 1e6
    size, decode_s = st.ctlv_decode_replay(stack)
    return {
        "crypto.rsa_verify_op_us": op_us,
        "crypto.rsa_verify_est_s":
            layer_values.get("crypto.rsa_verify_count", 0) * op_us / 1e6,
        "crypto.ctlv_decode_replay_s": decode_s,
        "crypto.ctlv_decode_mb_per_s": size / 1e6 / decode_s,
    }


# -- several runs, one process each ------------------------------------------

def spawn(workload: str, args: argparse.Namespace, seed: int) -> dict:
    """Run one workload in its own process; return its result file."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    command += ["--quick"] if args.quick else ["--scale", args.scale]
    done = subprocess.run(command)
    result = json.loads((RESULTS / f"{workload}.json").read_text())
    result["exit_code"] = done.returncode
    return result


def run_all(args: argparse.Namespace, workloads) -> int:
    start = time.perf_counter()
    codes = [spawn(w, args, args.seed)["exit_code"] for w in workloads]
    print(f"== {len(workloads)} workloads in {time.perf_counter() - start:.1f} s ==")
    return max(codes)


def write_report(name: str, args: argparse.Namespace, report: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.json").write_text(json.dumps({
        "scale": args.scale, "quick": args.quick, "seconds": args.seconds,
        "environment": harness.environment(REPO), "workloads": report,
    }, indent=1))


def check_repeat(args: argparse.Namespace, workloads) -> int:
    """Same seed twice, the next seed once; each in its own process."""
    import metrics
    bounds = {m.name: m.bound for m in metrics.NAMED}
    bounds.update({m["name"]: m["bound"] for m in contract()["end_to_end"]})
    bounds["failed_ops_ratio"] = 0.0
    report, bad = {}, 0
    for workload in workloads:
        seeds = (args.seed, args.seed, args.seed + 1)
        first, second, unseen = (spawn(workload, args, seed) for seed in seeds)
        rows = {}
        for name, a in {**first["end_to_end"], **first["named"]}.items():
            b, c = ({**r["end_to_end"], **r["named"]}[name]["value"]
                    for r in (second, unseen))
            a = a["value"]
            difference = abs(a - b) / min(a, b) if min(a, b) else abs(a - b)
            rows[name] = {"bound": bounds[name], "first": a, "second": b,
                          "difference": difference,
                          "within_bound": difference <= bounds[name],
                          "next_seed": c}
        failed = sum(r["failed"] for r in (first, second, unseen))
        bad += failed + sum(not row["within_bound"] for row in rows.values())
        calibration = [r["calibration_s"] for r in (first, second, unseen)]
        report[workload] = {"seeds": seeds, "failed_ops": failed,
                            "calibration_s": calibration, "metrics": rows}
        print(f"== check-repeat {workload}: seed {args.seed} twice, then seed "
              f"{args.seed + 1}; calibration ms cpu: "
              + " ".join(f"{c * 1e3:.2f}" for c in calibration))
        for name, row in rows.items():
            flag = "" if row["within_bound"] else "  OUTSIDE BOUND"
            print(f"  {name:<26}{row['first']:>13.6g}{row['second']:>13.6g}"
                  f"  differ {row['difference']:6.1%} (bound "
                  f"{row['bound']:.0%}){flag}   next seed {row['next_seed']:.6g}")
    write_report("check-repeat", args, report)
    return 1 if bad else 0


def spread(args: argparse.Namespace, workloads) -> int:
    """The contract's steadiness test: N seeds per workload.

    Per gated metric, the distance between the first and third quartile
    of the N values as a share of their median; it must stay within the
    metric's bound (``setup_s`` is reported, not held to it).
    """
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    report, bad = {}, 0
    for workload in workloads:
        runs = [spawn(workload, args, args.seed + i) for i in range(args.spread)]
        bad += sum(r["failed"] for r in runs)
        rows = {}
        for name, bound in bounds.items():
            values = [r["end_to_end"][name]["value"] for r in runs]
            low, _mid, high = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"bound": bound, "median": median,
                          "spread": (high - low) / median, "values": values}
            bad += name != "setup_s" and rows[name]["spread"] > bound
        report[workload] = {
            "seeds": [r["seed"] for r in runs],
            "calibration_s": [r["calibration_s"] for r in runs],
            "metrics": rows,
        }
        print(f"== spread {workload}: seeds {args.seed}..{args.seed + args.spread - 1}")
        for name, row in rows.items():
            print(f"  {name:<14} median {row['median']:>12.6g}  spread "
                  f"{row['spread']:6.1%}  (bound {row['bound']:.0%})")
    write_report("spread", args, report)
    return 1 if bad else 0


def main(argv=None) -> int:
    if not (REPO / "src" / "repro").is_dir():
        # Nothing to measure: only the benchmark's own files are here.
        print(f"no program under test at {REPO / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.check_repeat:
        return check_repeat(args, workloads)
    if args.spread:
        return spread(args, workloads)
    if args.workload == "all":
        return run_all(args, workloads)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
