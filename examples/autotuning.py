#!/usr/bin/env python3
"""In-situ autotuning: the paper's future work, running.

Starts the HEPnOS data-loader in the pathological C5 configuration
(batch size 1, shared progress ES, OFI_max_events 16) under an online
monitor with ``MonitorConfig(autotune=True)``.  The monitor's detectors
watch the live SYMBIOSYS metrics, and the monitor answers two of their
findings with the paper's §V-C remedies:

* ``ofi_reads_pegged``   -- ``num_ofi_events_read`` sits at the cap (the
  Figure 12 C5 signature): double OFI_max_events, up to 64,
* ``completion_backlog`` -- the completion queues stay deep (the
  Figure 11 C6->C7 step): give the progress loop its own ES.

Run:  python examples/autotuning.py        (~7 s)
"""

from repro.experiments import (
    TABLE_IV,
    ascii_table,
    format_seconds,
    run_hepnos_experiment,
)
from repro.symbiosys import MonitorConfig

EVENTS = 2048


def main() -> None:
    print("running C5 (static, pathological) ...")
    plain = run_hepnos_experiment(
        TABLE_IV["C5"], events_per_client=EVENTS, pipeline_width=64
    )
    print("running C5 + autotune ...")
    tuned = run_hepnos_experiment(
        TABLE_IV["C5"],
        events_per_client=EVENTS,
        pipeline_width=64,
        monitoring=MonitorConfig(autotune=True),
    )
    print("running C7 (hand-tuned reference) ...\n")
    hand = run_hepnos_experiment(
        TABLE_IV["C7"], events_per_client=EVENTS, pipeline_width=64
    )

    rows = [
        {
            "setup": name,
            "cumulative RPC time": format_seconds(r.cumulative_origin_time),
            "unaccounted share": f"{100 * r.unaccounted_fraction:.1f}%",
            "makespan": format_seconds(r.makespan),
        }
        for name, r in (
            ("C5  (static)", plain),
            ("C5 + autotune", tuned),
            ("C7  (hand-tuned)", hand),
        )
    ]
    print(ascii_table(rows))

    print("\nremedies applied (the monitor's autotune findings):")
    for f in tuned.monitor.findings:
        if f.detector == "autotune":
            print(f"  t={f.time * 1e3:6.2f} ms  {f.process}: {f.message}")

    gap_static = plain.cumulative_origin_time - hand.cumulative_origin_time
    gap_tuned = tuned.cumulative_origin_time - hand.cumulative_origin_time
    print(f"\ngap to the hand-tuned configuration closed: "
          f"{100 * (1 - gap_tuned / gap_static):.1f}%")


if __name__ == "__main__":
    main()
