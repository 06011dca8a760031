#!/usr/bin/env python3
"""Summarise a traced run into host-time shares per layer and per span.

    python3 perfbench/shares.py .bench_build/traces/cold_recovery-seed1.json

Reads the Chrome trace the driver writes with --trace 1 and prints, for the
traced pass, each layer's and each span's share of the pass's host time:
the jobs (on_job_start to on_job_done) plus what the service does around
them (dispatch before, store put + save or plain return after).
"""

import collections
import json
import sys


def main(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    jobs_us = 0.0
    outside = collections.Counter()
    by_layer = collections.Counter()
    by_span = collections.Counter()
    for e in doc["traceEvents"]:
        if e["ph"] != "X":
            continue
        name = e["name"].split(" (+")[0]
        if name.startswith("job "):
            jobs_us += e["dur"]
        elif name in ("dispatch", "store.save", "return"):
            outside[name] += e["dur"]
        else:
            by_layer[e["cat"]] += e["dur"]
            by_span[f'{e["cat"]}/{name}'] += e["dur"]
    total_us = jobs_us + sum(outside.values())
    other = doc["otherData"]
    print(f'{other["workload"]}: {other["jobs"]} jobs, '
          f'{total_us / 1e6:.3f} s traced, {100 * jobs_us / total_us:.2f} % '
          "inside jobs")
    for title, counts in (("layer", by_layer), ("span", by_span),
                          ("around jobs", outside)):
        print(f"  by {title}:")
        for key, us in counts.most_common():
            print(f"    {key:28s} {100 * us / total_us:6.2f} %")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
