#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh            full gate: format, vet, build, structure gate, tests,
#                      race detector, determinism and serving smokes
#
# Performance evidence. Wall-clock performance is judged in one place only:
# alternating `go run ./benchmark` pairs compared with -compare (see
# benchmark/README.md). A wall-clock figure recorded on one machine does not
# gate another, so this script keeps exactly one perf check, immune to host
# speed: salperf -ecc -degraded fails unless the level-0 table-driven
# syndrome path runs >= 140x the bit-serial reference measured in the same
# process (minSpeedupL0).
#
# In order:
#  - gofmt, go vet, go build.
#  - Structure gate (TestReachability and TestStructure in structure_test.go,
#    which go test ./... runs too): no exported identifier in non-test
#    internal/ that nothing uses and no unset config field beyond
#    testdata/reachability_allow.txt; each FTL data-path function defined
#    once; one durable page key format; the retired forks, perf gates and
#    durable options gone; no BENCH_*.json. Then the policy-parameterised
#    device suite in internal/ftl runs under -race.
#  - go test ./..., which includes the 33 pinned chaos report digests and
#    the 60 pinned device digests.
#  - BenchmarkPickTargets and BenchmarkSectorKernels once at -benchtime
#    100x, so the placement and BCH sector micro-benchmarks keep compiling
#    and running (their times are not checked).
#  - Sharded-cluster conformance: the difs corpus again at DIFS_SHARDS=4 and
#    16, and go test -race over the whole module (the stress battery in
#    blockdev/ftl/core/difs hammers each layer from many goroutines) plus
#    the 16-shard difs corpus under -race.
#  - salchaos: a fixed-seed smoke (cross-layer invariants end to end) and
#    two 16-shard runs that must render byte-identical reports.
#  - The perf check above, then the benchmark's -quick smoke (all four
#    workloads once; exit status only).
#  - salchaos -net: the fixed seed through the loopback serving layer with
#    its network failpoints armed.
#  - Loopback salsrv/salload smokes, each with full content verification,
#    a clean graceful drain and a clean invariant sweep: 16 shards with the
#    live ops surface (/healthz, /readyz flipping to 503 after SIGTERM while
#    -drain-linger keeps serving, /metrics counting the load, /wear); one
#    shard (unsharded conformance); and a pre-worn RealECC fleet (salsrv
#    -devices core -wear 0.6) whose exposition must show ECC corrections,
#    erasure-hinted decodes and server-side GET batching all fired.
#  - kill -9 durability (salchaos -proc): SIGKILL a real salsrv mid-load on
#    a durable -data-dir, restart, content-verify every acked write, then a
#    cold restart must expose sal_difs_recover_ns and a non-zero
#    sal_difs_recover_objects.
#  - Core durable restart: salsrv -devices core on a -data-dir takes
#    salload traffic, is SIGKILLed and restarted on the same dir, and must
#    come back ready with every object recovered, none lost, and a clean
#    SIGTERM drain.
#  - Scale-out: salchaos -fleet runs four salsrv processes over disjoint
#    -own-shards subsets of one data tree, SIGKILLs one owner and asserts the
#    blast radius is exactly its subset; then salload -shard-map drives a
#    fresh 4-process fleet through the routing client and every endpoint
#    must take traffic (four rows in the per-endpoint split, none at zero).
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== structure gate (reachability, one FTL engine, one durable page path, retired code gone) =="
go test -count=1 -run '^(TestReachability|TestStructure)$' .
go test -race -count=1 ./internal/ftl/

echo "== go test =="
go test ./...

echo "== placement micro-benchmark (runs once; time not checked) =="
go test -run '^$' -bench PickTargets -benchtime 100x ./internal/difs/

echo "== BCH sector micro-benchmark (runs once; time not checked) =="
go test -run '^$' -bench SectorKernels -benchtime 100x ./internal/ecc/

echo "== sharded-cluster conformance (difs corpus at DIFS_SHARDS=4 and 16) =="
# The whole difs test corpus doubles as the shard conformance battery: every
# crash/recovery/EC/invariant test must pass unchanged when the metadata
# plane is split 4 and 16 ways.
DIFS_SHARDS=4 go test -count=1 ./internal/difs/
DIFS_SHARDS=16 go test -count=1 ./internal/difs/

echo "== go test -race (all packages, concurrency stress battery) =="
go test -race ./...

echo "== go test -race (difs corpus at DIFS_SHARDS=16) =="
DIFS_SHARDS=16 go test -race -count=1 ./internal/difs/

echo "== salchaos smoke (fixed seed) =="
go run ./cmd/salchaos -seed 1 -ops 2000 >/dev/null

echo "== salchaos determinism at 16 shards (two runs, identical bytes) =="
chaostmp=$(mktemp -d)
go build -o "$chaostmp/salchaos" ./cmd/salchaos
"$chaostmp/salchaos" -seed 1 -ops 2000 -shards 16 >"$chaostmp/run1.txt"
"$chaostmp/salchaos" -seed 1 -ops 2000 -shards 16 >"$chaostmp/run2.txt"
cmp "$chaostmp/run1.txt" "$chaostmp/run2.txt" || {
    echo "sharded salchaos reports differ across identical runs" >&2
    diff "$chaostmp/run1.txt" "$chaostmp/run2.txt" >&2 || true
    exit 1
}
grep -q "shards=16" "$chaostmp/run1.txt" || {
    echo "sharded salchaos report missing shard stamp" >&2
    exit 1
}
rm -rf "$chaostmp"

echo "== salperf -ecc -degraded (level-0 syndrome speedup >= 140x, same process) =="
go run ./cmd/salperf -ecc -degraded

echo "== benchmark smoke (go run ./benchmark -quick -trace 1) =="
# Exit status only: every workload's quick run drives the 16-shard cluster
# through salnet and ends with CheckInvariants, a clean shutdown, and (for
# durable_put) a reopen-and-verify of the data dir. -seconds 3 shortens the
# measured window, not what is checked.
go run ./benchmark -quick -trace 1 -seconds 3 >/dev/null

echo "== salchaos smoke with network failpoints (-net) =="
go run ./cmd/salchaos -seed 1 -ops 2000 -net >/dev/null

echo "== salsrv/salload loopback smoke + ops surface =="
nettmp=$(mktemp -d)
go build -o "$nettmp/salsrv" ./cmd/salsrv
go build -o "$nettmp/salload" ./cmd/salload
# -drain-linger keeps the server in the not-ready-but-still-serving state
# for a beat after SIGTERM, so the /readyz 503 assert below cannot race the
# drain completing first.
"$nettmp/salsrv" -addr 127.0.0.1:0 -addr-file "$nettmp/addr" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$nettmp/opsaddr" \
    -shards 16 -drain-linger 2s >"$nettmp/salsrv.log" 2>&1 &
srvpid=$!
i=0
while { [ ! -s "$nettmp/addr" ] || [ ! -s "$nettmp/opsaddr" ]; } && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -s "$nettmp/addr" ] || [ ! -s "$nettmp/opsaddr" ]; then
    echo "salsrv never bound" >&2
    cat "$nettmp/salsrv.log" >&2
    exit 1
fi
ops="http://$(cat "$nettmp/opsaddr")"
[ "$(curl -s "$ops/healthz")" = "ok" ] || {
    echo "ops /healthz not ok" >&2
    exit 1
}
[ "$(curl -s -o /dev/null -w '%{http_code}' "$ops/readyz")" = "200" ] || {
    echo "ops /readyz not ready before drain" >&2
    exit 1
}
"$nettmp/salload" -addr "$(cat "$nettmp/addr")" -clients 8 -depth 8 -ops 40000 \
    -zipf 1.1
# The exposition must be valid Prometheus text and the request counter must
# have counted the load we just drove.
curl -s "$ops/metrics" >"$nettmp/metrics.prom"
reqs=$(awk '$1 == "sal_net_server_requests" { print $2 }' "$nettmp/metrics.prom")
case "$reqs" in
'' | *[!0-9]*)
    echo "ops /metrics: sal_net_server_requests missing or non-numeric: '$reqs'" >&2
    head -20 "$nettmp/metrics.prom" >&2
    exit 1
    ;;
esac
if [ "$reqs" -lt 40000 ]; then
    echo "ops /metrics: sal_net_server_requests=$reqs after a 40k-op load" >&2
    exit 1
fi
curl -s "$ops/wear" | grep -q '"repair_backlog"' || {
    echo "ops /wear missing report fields" >&2
    exit 1
}
# The shard layer's counters must be in the exposition and must have counted
# the load (one sal_difs_shard_ops per object op at any shard count).
shardops=$(awk '$1 == "sal_difs_shard_ops" { print $2 }' "$nettmp/metrics.prom")
case "$shardops" in
'' | *[!0-9]*)
    echo "ops /metrics: sal_difs_shard_ops missing or non-numeric: '$shardops'" >&2
    exit 1
    ;;
esac
if [ "$shardops" -eq 0 ]; then
    echo "ops /metrics: sal_difs_shard_ops=0 after a 40k-op load" >&2
    exit 1
fi
kill -TERM "$srvpid"
# /readyz must flip to 503 after SIGTERM and before the drain completes;
# the 2s linger window guarantees the server is still up to answer.
sleep 0.3
code=$(curl -s -o /dev/null -w '%{http_code}' "$ops/readyz")
if [ "$code" != "503" ]; then
    echo "ops /readyz served $code after SIGTERM (want 503)" >&2
    exit 1
fi
if ! wait "$srvpid"; then
    echo "salsrv drain failed" >&2
    cat "$nettmp/salsrv.log" >&2
    exit 1
fi
grep -q "invariants clean=true" "$nettmp/salsrv.log" || {
    echo "salsrv invariant sweep failed" >&2
    cat "$nettmp/salsrv.log" >&2
    exit 1
}

echo "== salsrv/salload loopback smoke at -shards 1 (unsharded conformance) =="
# Same serving stack with the shard facade disabled: clients must not be
# able to tell. A lighter load, full content verification, shard counters
# present, and a clean drain.
"$nettmp/salsrv" -addr 127.0.0.1:0 -addr-file "$nettmp/addr1" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$nettmp/opsaddr1" \
    -shards 1 >"$nettmp/salsrv1.log" 2>&1 &
srv1pid=$!
i=0
while { [ ! -s "$nettmp/addr1" ] || [ ! -s "$nettmp/opsaddr1" ]; } && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -s "$nettmp/addr1" ] || [ ! -s "$nettmp/opsaddr1" ]; then
    echo "unsharded salsrv never bound" >&2
    cat "$nettmp/salsrv1.log" >&2
    exit 1
fi
"$nettmp/salload" -addr "$(cat "$nettmp/addr1")" -clients 8 -depth 8 -ops 8000
curl -s "http://$(cat "$nettmp/opsaddr1")/metrics" | grep -q 'sal_difs_shard_ops' || {
    echo "unsharded salsrv /metrics missing sal_difs_shard_ops" >&2
    exit 1
}
kill -TERM "$srv1pid"
if ! wait "$srv1pid"; then
    echo "unsharded salsrv drain failed" >&2
    cat "$nettmp/salsrv1.log" >&2
    exit 1
fi
grep -q "invariants clean=true" "$nettmp/salsrv1.log" || {
    echo "unsharded salsrv invariant sweep failed" >&2
    cat "$nettmp/salsrv1.log" >&2
    exit 1
}

echo "== degraded-fleet loopback smoke (-devices core -wear 0.6) =="
# A pre-worn RealECC fleet: every block starts at 60% of nominal PEC with
# grown stuck bit-lines, so reads exercise the degraded decode kernels and
# the erasure-hinted path while serving verified hot-spot traffic. The metric
# asserts below prove the degraded machinery actually fired instead of the
# smoke coasting on a clean path.
"$nettmp/salsrv" -addr 127.0.0.1:0 -addr-file "$nettmp/addrw" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$nettmp/opsaddrw" \
    -devices core -wear 0.6 -nodes 4 -shards 4 -workers 8 >"$nettmp/salsrvw.log" 2>&1 &
srvwpid=$!
i=0
while { [ ! -s "$nettmp/addrw" ] || [ ! -s "$nettmp/opsaddrw" ]; } && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -s "$nettmp/addrw" ] || [ ! -s "$nettmp/opsaddrw" ]; then
    echo "degraded salsrv never bound" >&2
    cat "$nettmp/salsrvw.log" >&2
    exit 1
fi
"$nettmp/salload" -addr "$(cat "$nettmp/addrw")" -clients 2 -depth 2 -ops 1200 \
    -objects 8 -size 2048 -hot-frac 0.7
opsw="http://$(cat "$nettmp/opsaddrw")"
curl -s "$opsw/metrics" >"$nettmp/metricsw.prom"
for m in sal_core_ecc_corrections sal_core_ecc_erasure_decodes sal_net_server_batches; do
    v=$(awk -v m="$m" '$1 == m { print $2 }' "$nettmp/metricsw.prom")
    case "$v" in
    '' | *[!0-9]*)
        echo "degraded ops /metrics: $m missing or non-numeric: '$v'" >&2
        head -20 "$nettmp/metricsw.prom" >&2
        exit 1
        ;;
    esac
    if [ "$v" -eq 0 ]; then
        echo "degraded ops /metrics: $m=0 — degraded path never fired" >&2
        exit 1
    fi
done
kill -TERM "$srvwpid"
if ! wait "$srvwpid"; then
    echo "degraded salsrv drain failed" >&2
    cat "$nettmp/salsrvw.log" >&2
    exit 1
fi
grep -q "invariants clean=true" "$nettmp/salsrvw.log" || {
    echo "degraded salsrv invariant sweep failed" >&2
    cat "$nettmp/salsrvw.log" >&2
    exit 1
}
rm -rf "$nettmp"

echo "== kill -9 durability smoke (salchaos -proc) =="
durtmp=$(mktemp -d)
go build -o "$durtmp/salsrv" ./cmd/salsrv
go build -o "$durtmp/salchaos" ./cmd/salchaos
# Process-level chaos: salchaos spawns a real salsrv on a durable -data-dir,
# SIGKILLs it mid-load twice, restarts it on the same directory each time,
# and content-verifies that every acked write survived. The harness also
# asserts the stale-address-file crash marker, the /readyz "recovering"
# gate, the sal_difs_recover_ns exposition, and a final SIGTERM drain that
# exits 0 with the address files removed.
"$durtmp/salchaos" -proc -proc-bin "$durtmp/salsrv" -proc-dir "$durtmp/run" \
    -proc-kills 2 -proc-ops 1200 >"$durtmp/salchaos.log" 2>&1 || {
    cat "$durtmp/salchaos.log" >&2
    exit 1
}
grep -q "proc chaos: PASS" "$durtmp/salchaos.log" || {
    echo "salchaos -proc did not report PASS" >&2
    cat "$durtmp/salchaos.log" >&2
    exit 1
}
# One more cold restart on the surviving data dir, asserted from the outside:
# recovery telemetry must be present in the Prometheus exposition and count
# the namespace the kills left behind.
"$durtmp/salsrv" -addr 127.0.0.1:0 -addr-file "$durtmp/addr" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$durtmp/opsaddr" \
    -data-dir "$durtmp/run/data" -fsync=false -nodes 5 >"$durtmp/salsrv.log" 2>&1 &
dursrv=$!
i=0
while { [ ! -s "$durtmp/addr" ] || [ ! -s "$durtmp/opsaddr" ]; } && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
if [ ! -s "$durtmp/addr" ] || [ ! -s "$durtmp/opsaddr" ]; then
    echo "durable salsrv never became ready" >&2
    cat "$durtmp/salsrv.log" >&2
    exit 1
fi
durops="http://$(cat "$durtmp/opsaddr")"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$durops/readyz")" = "200" ] || {
    echo "durable salsrv /readyz not 200 after recovery" >&2
    exit 1
}
curl -s "$durops/metrics" >"$durtmp/metrics.prom"
grep -q 'sal_difs_recover_ns' "$durtmp/metrics.prom" || {
    echo "ops /metrics missing sal_difs_recover_ns after recovery" >&2
    exit 1
}
recovered=$(awk '$1 == "sal_difs_recover_objects" { print $2 }' "$durtmp/metrics.prom")
case "$recovered" in
'' | *[!0-9]*)
    echo "ops /metrics: sal_difs_recover_objects missing or non-numeric: '$recovered'" >&2
    exit 1
    ;;
esac
if [ "$recovered" -eq 0 ]; then
    echo "ops /metrics: sal_difs_recover_objects=0 after a loaded restart" >&2
    exit 1
fi
kill -TERM "$dursrv"
if ! wait "$dursrv"; then
    echo "durable salsrv drain failed" >&2
    cat "$durtmp/salsrv.log" >&2
    exit 1
fi
grep -q "invariants clean=true" "$durtmp/salsrv.log" || {
    echo "durable salsrv invariant sweep failed" >&2
    cat "$durtmp/salsrv.log" >&2
    exit 1
}
rm -rf "$durtmp"

echo "== core durable restart smoke (salsrv -devices core -data-dir, SIGKILL, restart) =="
# salchaos -proc and -fleet run mem devices only, so this is the
# process-level check of core.OpenDurable: load a core fleet on a data dir,
# SIGKILL it, restart it on the same dir, and require every object
# recovered with none lost and a clean drain.
coretmp=$(mktemp -d)
go build -o "$coretmp/salsrv" ./cmd/salsrv
go build -o "$coretmp/salload" ./cmd/salload
start_core() { # $1: log file
    rm -f "$coretmp/addr" "$coretmp/opsaddr"
    "$coretmp/salsrv" -addr 127.0.0.1:0 -addr-file "$coretmp/addr" \
        -ops-addr 127.0.0.1:0 -ops-addr-file "$coretmp/opsaddr" \
        -devices core -data-dir "$coretmp/data" -fsync=false >"$1" 2>&1 &
    corepid=$!
    i=0
    while { [ ! -s "$coretmp/addr" ] || [ ! -s "$coretmp/opsaddr" ]; } && [ $i -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    if [ ! -s "$coretmp/addr" ] || [ ! -s "$coretmp/opsaddr" ]; then
        echo "core durable salsrv never bound" >&2
        cat "$1" >&2
        exit 1
    fi
}
start_core "$coretmp/salsrv1.log"
"$coretmp/salload" -addr "$(cat "$coretmp/addr")" -ops 2000
kill -KILL "$corepid"
wait "$corepid" 2>/dev/null || true
start_core "$coretmp/salsrv2.log"
coreops="http://$(cat "$coretmp/opsaddr")"
i=0
while [ "$(curl -s -o /dev/null -w '%{http_code}' "$coreops/readyz")" != "200" ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ "$(curl -s -o /dev/null -w '%{http_code}' "$coreops/readyz")" = "200" ] || {
    echo "core durable salsrv /readyz not 200 after restart" >&2
    exit 1
}
recovered=$(curl -s "$coreops/metrics" | awk '$1 == "sal_difs_recover_objects" { print $2 }')
case "$recovered" in
'' | *[!0-9]*)
    echo "core restart: sal_difs_recover_objects missing or non-numeric: '$recovered'" >&2
    exit 1
    ;;
esac
if [ "$recovered" -eq 0 ]; then
    echo "core restart: sal_difs_recover_objects=0 after a loaded life" >&2
    exit 1
fi
grep -q "recovered .* 0 lost) in" "$coretmp/salsrv2.log" || {
    echo "core restart lost objects" >&2
    cat "$coretmp/salsrv2.log" >&2
    exit 1
}
kill -TERM "$corepid"
if ! wait "$corepid"; then
    echo "core durable salsrv drain failed" >&2
    cat "$coretmp/salsrv2.log" >&2
    exit 1
fi
grep -q "invariants clean=true" "$coretmp/salsrv2.log" || {
    echo "core durable salsrv invariant sweep failed" >&2
    cat "$coretmp/salsrv2.log" >&2
    exit 1
}
rm -rf "$coretmp"

echo "== scale-out fleet chaos (salchaos -fleet: SIGKILL one owner, subset blast radius) =="
fltmp=$(mktemp -d)
go build -o "$fltmp/salsrv" ./cmd/salsrv
go build -o "$fltmp/salchaos" ./cmd/salchaos
go build -o "$fltmp/salload" ./cmd/salload
go build -o "$fltmp/salmap" ./cmd/salmap
# Four salsrv processes own disjoint quarters of a 16-shard namespace on one
# data tree. The harness routes load through salnet.Router, SIGKILLs one
# owner mid-load, asserts the surviving subsets keep serving while the dead
# subset fails fast, restarts the victim on its old address, and checks
# sal_difs_recover_objects counts exactly the victim's own keys —
# subset-scoped recovery, not a whole-tree replay.
"$fltmp/salchaos" -fleet -proc-bin "$fltmp/salsrv" -proc-dir "$fltmp/chaos" \
    -fleet-procs 4 -shards 16 -proc-ops 800 >"$fltmp/fleetchaos.log" 2>&1 || {
    cat "$fltmp/fleetchaos.log" >&2
    exit 1
}
grep -q "fleet chaos: PASS" "$fltmp/fleetchaos.log" || {
    echo "salchaos -fleet did not report PASS" >&2
    cat "$fltmp/fleetchaos.log" >&2
    exit 1
}

echo "== scale-out routing: salload -shard-map over a 4-process fleet =="
# The only CI caller of salload's fleet mode: four owners of disjoint
# quarters of a 16-shard namespace, one routing client per salload client,
# full content verification, and every endpoint must take traffic.
flpids=""
i=0
for subset in 0-3 4-7 8-11 12-15; do
    "$fltmp/salsrv" -addr 127.0.0.1:0 -addr-file "$fltmp/addr$i" \
        -ops-addr 127.0.0.1:0 -ops-addr-file "$fltmp/ops$i" \
        -shards 16 -own-shards "$subset" \
        -data-dir "$fltmp/fleetdata" -fsync=false -seed $((i + 2)) \
        >"$fltmp/srv$i.log" 2>&1 &
    flpids="$flpids $!"
    i=$((i + 1))
done
for i in 0 1 2 3; do
    j=0
    while [ ! -s "$fltmp/addr$i" ] && [ $j -lt 100 ]; do
        sleep 0.1
        j=$((j + 1))
    done
    [ -s "$fltmp/addr$i" ] || {
        echo "fleet member $i never bound" >&2
        cat "$fltmp/srv$i.log" >&2
        exit 1
    }
done
"$fltmp/salmap" build -shards 16 -out "$fltmp/map.bin" \
    "$(cat "$fltmp/addr0")=0-3" "$(cat "$fltmp/addr1")=4-7" \
    "$(cat "$fltmp/addr2")=8-11" "$(cat "$fltmp/addr3")=12-15"
"$fltmp/salload" -shard-map "$fltmp/map.bin" -clients 8 -depth 8 -ops 8000 \
    -out "$fltmp/fleetrep.json"
for p in $flpids; do kill -TERM "$p"; done
for p in $flpids; do
    wait "$p" || {
        echo "fleet member drain failed" >&2
        cat "$fltmp"/srv[0-3].log >&2
        exit 1
    }
done
# The report's per-endpoint split must have four rows and none with zero ops.
nend=$(grep -c '"endpoint":' "$fltmp/fleetrep.json")
if [ "$nend" -ne 4 ]; then
    echo "fleet report has $nend endpoints in its split (want 4)" >&2
    cat "$fltmp/fleetrep.json" >&2
    exit 1
fi
if grep -q '"ops": 0' "$fltmp/fleetrep.json"; then
    echo "fleet report has an endpoint with zero ops — routing never reached it" >&2
    cat "$fltmp/fleetrep.json" >&2
    exit 1
fi
rm -rf "$fltmp"

echo "CI PASSED"
