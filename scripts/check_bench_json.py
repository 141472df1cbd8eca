#!/usr/bin/env python3
"""Guards against silently-empty or silently-degraded bench artifacts:
every BENCH_*.json passed must parse, carry a build stamp attributing the
numbers to an exact revision/compiler, hold at least one run, and report
nonzero reports/s per row. Telemetry fields, where present, must be sane:
overhead_pct bounded (metrics off the hot path stay cheap) and the DATA
latency quantiles ordered (p50 <= p99, networked paths nonzero). A
net_ingest artifact must hold exactly its four transport rows, and a
stream_ingest artifact the single-shard decode+fold row of every oracle
and of the all-numeric schema.
Used by the build-test CI job."""
import json
import sys

# A wide gate, not a perf target: CI machines are noisy, but a 25% swing
# means the delta-flush instrumentation landed on the hot path.
OVERHEAD_GATE_PCT = 25.0

# The rows bench_net_ingest writes; all but inproc ran a real ReportServer
# (so the DATA latency histogram must be populated).
NET_INGEST_PATHS = ("inproc", "uds", "uds_auth", "tcp")
NETWORKED_PATHS = ("uds", "uds_auth", "tcp")

# The single-shard (kind, oracle) rows bench_stream_ingest must write: the
# decode+fold hot loop of each frequency oracle, and of Algorithm 4.
STREAM_INGEST_ROWS = [("mixed", oracle)
                      for oracle in ("GRR", "SUE", "OUE", "OLH", "HE", "THE")]
STREAM_INGEST_ROWS.append(("all_numeric", "-"))

failed = False


def complain(name, message):
    global failed
    print(f"{name}: {message}")
    failed = True


for name in sys.argv[1:]:
    with open(name) as artifact:
        data = json.load(artifact)

    build = data.get("build")
    if not isinstance(build, dict):
        complain(name, "missing build stamp")
    else:
        for key in ("git_hash", "compiler", "build_type"):
            if not build.get(key):
                complain(name, f"build stamp missing {key!r}")

    rows = data["runs"]
    if not rows:
        complain(name, "no bench rows")
        continue
    for row in rows:
        if not row["reports_per_sec"] > 0:
            complain(name, f"zero-throughput row {row}")
        if "overhead_pct" in row and abs(row["overhead_pct"]) > OVERHEAD_GATE_PCT:
            complain(name, f"telemetry overhead out of gate: {row}")
        if "data_p50_us" in row or "data_p99_us" in row:
            p50 = row.get("data_p50_us", 0.0)
            p99 = row.get("data_p99_us", 0.0)
            if p50 < 0 or p99 < 0 or p50 > p99:
                complain(name, f"inconsistent DATA latency quantiles: {row}")
        # Networked paths must have observed real DATA messages.
        if row.get("path") in NETWORKED_PATHS and not row.get("data_p99_us", 0) > 0:
            complain(name, f"empty DATA latency histogram: {row}")

    if data.get("benchmark") == "net_ingest":
        paths = sorted(row.get("path", "") for row in rows)
        if paths != sorted(NET_INGEST_PATHS):
            complain(name, f"net_ingest rows {paths}, "
                           f"expected {sorted(NET_INGEST_PATHS)}")
    if data.get("benchmark") == "stream_ingest":
        single = {(row.get("kind"), row.get("oracle"))
                  for row in rows if row.get("shards") == 1}
        for kind, oracle in STREAM_INGEST_ROWS:
            if (kind, oracle) not in single:
                complain(name, f"stream_ingest lacks the single-shard "
                               f"{kind} {oracle} row")
    print(f"{name}: {len(rows)} rows checked")

if not sys.argv[1:]:
    print("usage: check_bench_json.py BENCH_*.json", file=sys.stderr)
    failed = True
sys.exit(1 if failed else 0)
