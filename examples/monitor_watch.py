#!/usr/bin/env python3
"""A monitoring watchtower over a churning RPKI (the open problem).

Runs the Figure 2 world through ten epochs of realistic churn —
renewals, new customer ROAs, retirements (most done sloppily, without CRL
entries) — with two whack attacks hidden at epochs 3 and 7.  An
out-of-band monitor snapshots every epoch, diffs, and classifies; at the
end the run is scored against ground truth.  The campaign is
``repro.experiments.monitor_detection(0.8)`` — the sloppy half of
``python -m repro monitor`` and the run behind ``monitor_sloppy.txt``.

This is the experiment behind the paper's Section 3.1 remark that
"distinguishing between abusive behavior and normal RPKI churn could be
difficult": the attacks are always caught (their diff signatures are
unambiguous), but sloppy-but-benign deletions raise the same
stealthy-deletion alarm, dragging precision down.

Run:  python examples/monitor_watch.py
"""

from repro.experiments import monitor_detection


def main() -> None:
    # 80% of benign retirements skip the CRL.
    experiment = monitor_detection(sloppy_prob=0.8)

    print("epoch  churn  alerts (suspicious ones marked)")
    print("-" * 64)
    for report in experiment.history:
        marker = "  << ATTACK INJECTED" if report.attacked_payloads else ""
        print(f"{report.epoch:>5}  {report.churn_events:>5}  "
              f"{len(report.alerts)} alert(s){marker}")
        for alert in report.alerts:
            flag = " !!" if alert.is_suspicious else "   "
            print(f"      {flag} {alert}")

    print("\nFinal score")
    print("-" * 64)
    print(experiment.score().render())


if __name__ == "__main__":
    main()
