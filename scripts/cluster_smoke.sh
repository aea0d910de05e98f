#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the nvmd federation layer.
#
# Runs the same Figure 7 sweep twice: once on a plain single-node daemon,
# once federated across a cached coordinator plus two workers with one
# worker SIGKILLed mid-sweep. The killed worker's leases expire, its
# cells go to the survivor, and the merged federated result must come out
# byte-identical to the single-node run. The coordinator's cache must
# have missed exactly once per cell, and a resubmitted sweep must be
# served from that cache without dispatching a single cell. Also checks
# the coordinator's worker listing and cluster metrics, then asserts
# clean drains.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=""

cleanup() {
    for p in $pids; do
        kill -KILL "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "cluster-smoke: building nvmd"
$GO build -o "$tmp/nvmd" ./cmd/nvmd

# Heavy enough that the sweep runs for over a second, so the SIGKILL
# below reliably lands while cells are still in flight.
cat >"$tmp/spec.json" <<'EOF'
{
  "kind": "fig7",
  "setup": {"regions": 256, "lines_per_region": 16, "mean_endurance": 20000},
  "swr_percents": [0, 25, 50, 75, 90],
  "wls": ["tlsr"],
  "parallelism": 2
}
EOF

# wait_port FILE PID LOG: block until the daemon at PID writes FILE.
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: daemon never wrote its port file" >&2
            cat "$3" >&2
            exit 1
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "cluster-smoke: daemon exited early" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "cluster-smoke: single-node reference run"
"$tmp/nvmd" serve -addr 127.0.0.1:0 -data "$tmp/seq" \
    -port-file "$tmp/seq.port" 2>"$tmp/seq.log" &
seq_pid=$!
pids="$pids $seq_pid"
wait_port "$tmp/seq.port" "$seq_pid" "$tmp/seq.log"
seq_addr="http://$(cat "$tmp/seq.port")"
"$tmp/nvmd" submit -addr "$seq_addr" -spec "$tmp/spec.json" -wait >"$tmp/seq-final.json"
grep -q '"state": "done"' "$tmp/seq-final.json"
"$tmp/nvmd" result -addr "$seq_addr" -id job-000001 >"$tmp/sequential.json"
kill -TERM "$seq_pid"
wait "$seq_pid"

echo "cluster-smoke: starting coordinator + 2 workers"
"$tmp/nvmd" coordinator -addr 127.0.0.1:0 -data "$tmp/fed" -cache \
    -port-file "$tmp/fed.port" \
    -lease-timeout 1s -worker-ttl 3s -lease-wait 100ms 2>"$tmp/fed.log" &
fed_pid=$!
pids="$pids $fed_pid"
wait_port "$tmp/fed.port" "$fed_pid" "$tmp/fed.log"
fed_addr="http://$(cat "$tmp/fed.port")"

"$tmp/nvmd" worker -coordinator "$fed_addr" -slots 2 -name smoke-w1 \
    2>"$tmp/w1.log" &
w1_pid=$!
pids="$pids $w1_pid"
"$tmp/nvmd" worker -coordinator "$fed_addr" -slots 2 -name smoke-w2 \
    2>"$tmp/w2.log" &
w2_pid=$!
pids="$pids $w2_pid"

i=0
while [ "$("$tmp/nvmd" workers -addr "$fed_addr" | grep -c '"name"')" -lt 2 ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "cluster-smoke: workers never registered" >&2
        cat "$tmp/w1.log" "$tmp/w2.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "cluster-smoke: submitting federated sweep, killing one worker mid-sweep"
"$tmp/nvmd" submit -addr "$fed_addr" -spec "$tmp/spec.json" -federated >"$tmp/fed-submit.json"
grep -q '"id": "job-000001"' "$tmp/fed-submit.json"
sleep 0.3
kill -KILL "$w1_pid"
echo "cluster-smoke: worker smoke-w1 killed (SIGKILL)"

"$tmp/nvmd" wait -addr "$fed_addr" -id job-000001 >"$tmp/fed-final.json"
grep -q '"state": "done"' "$tmp/fed-final.json"
"$tmp/nvmd" result -addr "$fed_addr" -id job-000001 >"$tmp/federated.json"

echo "cluster-smoke: comparing results"
if ! cmp -s "$tmp/sequential.json" "$tmp/federated.json"; then
    echo "cluster-smoke: federated result differs from single-node run" >&2
    diff "$tmp/sequential.json" "$tmp/federated.json" >&2 || true
    exit 1
fi

echo "cluster-smoke: checking cluster observability"
"$tmp/nvmd" metrics -addr "$fed_addr" >"$tmp/fed-metrics.txt"
grep -q '^nvmd_cluster_completed_total 5$' "$tmp/fed-metrics.txt"
"$tmp/nvmd" workers -addr "$fed_addr" >"$tmp/fed-workers.json"
grep -q '"name": "smoke-w2"' "$tmp/fed-workers.json"

echo "cluster-smoke: checking the coordinator cache"
if ! grep -q '^nvmd_cache_misses_total 5$' "$tmp/fed-metrics.txt"; then
    echo "cluster-smoke: coordinator cache misses, want 5 (one per cell):" >&2
    grep '^nvmd_cache_' "$tmp/fed-metrics.txt" >&2
    exit 1
fi
dispatched=$(sed -n 's/^nvmd_cluster_dispatched_total //p' "$tmp/fed-metrics.txt")
"$tmp/nvmd" submit -addr "$fed_addr" -spec "$tmp/spec.json" -federated -wait >"$tmp/rerun-final.json"
grep -q '"state": "done"' "$tmp/rerun-final.json"
"$tmp/nvmd" result -addr "$fed_addr" -id job-000002 | sed 's/job-000002/job-000001/' >"$tmp/rerun.json"
if ! cmp -s "$tmp/sequential.json" "$tmp/rerun.json"; then
    echo "cluster-smoke: cached rerun differs from single-node run" >&2
    diff "$tmp/sequential.json" "$tmp/rerun.json" >&2 || true
    exit 1
fi
"$tmp/nvmd" metrics -addr "$fed_addr" >"$tmp/rerun-metrics.txt"
if ! grep -q "^nvmd_cluster_dispatched_total $dispatched\$" "$tmp/rerun-metrics.txt"; then
    echo "cluster-smoke: cached rerun dispatched cells (was $dispatched):" >&2
    grep '^nvmd_cluster_dispatched_total' "$tmp/rerun-metrics.txt" >&2
    exit 1
fi

echo "cluster-smoke: draining coordinator and surviving worker (SIGTERM)"
kill -TERM "$w2_pid"
rc=0
wait "$w2_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "cluster-smoke: worker exited $rc, want 0" >&2
    cat "$tmp/w2.log" >&2
    exit 1
fi
kill -TERM "$fed_pid"
rc=0
wait "$fed_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "cluster-smoke: coordinator exited $rc, want 0" >&2
    cat "$tmp/fed.log" >&2
    exit 1
fi

echo "cluster-smoke: OK"
