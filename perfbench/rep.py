"""One measured repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED TRACE ORACLE [REPORT_STEM]

``TRACE`` (0/1) installs the span wrappers; ``ORACLE`` (0/1) runs the
workload's correctness oracle after the timed region.  With a
``REPORT_STEM`` a traced repetition also writes ``<stem>.report.json``
(a ``repro.obs`` RunReport) and ``<stem>.trace.json`` (Chrome trace).
The last line of standard output is one JSON object: timings, peak RSS,
the quality outcome, and, when traced, the per-layer metrics and exact
call counts.  ``failures`` lists every check that did not hold.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv):
    name, seed, traced, with_oracle = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    report_stem = argv[4] if len(argv) > 4 else None
    workload = WORKLOADS[name]
    tracer = tracing.Tracer(enabled=traced)
    tracer.install()
    with tracer.span("setup"):
        context = workload.setup(seed, tracer)
    setup_s = time.perf_counter() - _START

    probe = tracing.FirstCallProbe()
    with tracer.span("flow"):
        begin = time.perf_counter()
        result = workload.flow(context)
        wall_s = time.perf_counter() - begin
    probe.remove()
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    first = probe.first_stats
    if first is None:
        failures.append("the flow never called FaultSimulator.simulate")
    elif first["good_cache_hits"] != 0:
        failures.append(f"first simulate call hit the good-machine cache {first['good_cache_hits']} times")
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "quality": workload.quality(context, result),
    }
    if traced:
        layers = tracing.layer_metrics(tracer.records)
        accounted = sum(layers[key] for key in tracing.SELF_TIME_METRICS)
        if abs(accounted - layers["flow.wall_s"]) > 1e-6:
            failures.append(f"layer self times sum to {accounted}, traced wall is {layers['flow.wall_s']}")
        out["layers"] = layers
        out["counts"] = tracing.call_counts(tracer.records)
        if report_stem:
            from repro.obs import write_chrome_trace

            report = tracing.run_report(
                tracer.records, f"perfbench.{name}", {"workload": name, "seed": str(seed)}, layers
            )
            with open(report_stem + ".report.json", "w") as handle:
                handle.write(report.to_json() + "\n")
            write_chrome_trace(report_stem + ".trace.json", report)
    if with_oracle:
        failures.extend(workload.oracle(context, result))
    out["failures"] = failures
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
