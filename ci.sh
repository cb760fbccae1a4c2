#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh            full gate: format, vet, build, tests, race detector,
#                      chaos smoke, write-scaling regression guard
#
# A structure gate first holds the one-FTL-engine shape: each data-path
# function (readOPageOnce ... collect) is defined exactly once across
# non-test internal/, the deleted ParallelFlush fork is gone, and the
# policy-parameterised device suite in internal/ftl (both devices over one
# table) passes under -race.
# The race-detector pass runs the whole module: the stress battery in
# blockdev/ftl/core/difs hammers each layer from many goroutines, so a
# data race anywhere in the concurrent data path (channel workers, sharded
# FTL locks, device mutexes, per-shard cluster locks, event sink) fails the
# gate. The difs corpus is replayed at DIFS_SHARDS=4 and 16 (sharded-cluster
# conformance: the same tests must pass at every shard count), the 16-shard
# replay also runs under -race, two fixed-seed 16-shard salchaos runs must
# render byte-identical reports (shard determinism), and the salperf
# -shardbench model must show >= 2x modeled throughput at 16 shards vs 1
# and reproduce BENCH_shard.json byte for byte (it is virtual-time); the
# repo benchmark's -quick smoke then runs all four workloads once. A
# fixed-seed salchaos smoke run then asserts the cross-layer invariants
# end to end, and the salperf -parallel benchmark is compared against the
# checked-in BENCH_parallel.json: >15% write-throughput regression at any
# channel count fails the build. The salperf -ecc -degraded benchmark guards
# the table-driven BCH fast path against BENCH_ecc.json — each rate relative
# to the same run's bit-serial reference, so host speed cancels —
# including the degraded decode mix and erasure-hinted figures — plus a
# machine-independent >= 4x syndrome-speedup floor at the level-0 geometry
# and per-level kernel floors on the baseline file's decode figures.
# Both salperf guards run BEFORE the network smokes (the wall-clock-sensitive
# ECC guard first): the loopback load run is CPU-heavy, and benchmarking in
# its wake would force the checked-in floors down to under-load minima,
# weakening the regression guard. The -net chaos
# smoke then replays the fixed seed through the loopback serving layer with
# its failpoints armed, and a loopback salsrv/salload smoke starts the
# server, drives 8 clients x depth 8 of zipf-skewed traffic with content
# verification, requires >= 10k ops/s and no >15% drop vs BENCH_net.json,
# and asserts a clean
# graceful drain. The same run exercises the live ops surface: /healthz
# must answer ok, /metrics must expose a parseable sal_net_server_requests
# counting the load, /wear must return the fleet report, and /readyz must
# flip to 503 after SIGTERM while the -drain-linger window keeps the
# server answering. A degraded-fleet smoke then serves verified hot-spot
# traffic from a pre-worn RealECC core fleet (salsrv -wear 0.6): the p99
# tail must hold within 15% of BENCH_net_degraded.json and the exposition
# must prove ECC corrections, erasure-hinted decodes, and server-side GET
# batching all fired. Finally the kill -9 durability smoke (salchaos -proc)
# SIGKILLs a real salsrv mid-load on a durable -data-dir, restarts it on
# the same directory, and content-verifies every acked write — then one
# more cold restart asserts sal_difs_recover_ns and a non-zero
# sal_difs_recover_objects in the exposition. The scale-out battery closes
# the gate: salchaos -fleet runs four salsrv processes over disjoint
# -own-shards subsets of one data tree, SIGKILLs one owner mid-load, and
# asserts the blast radius is exactly its subset (survivors keep serving,
# the restarted owner recovers only its own shards); then a device-bound
# throughput comparison (-service-time pins per-op cost to a real-time
# device floor, GOMAXPROCS=1 per server, so the ratio measures the sharded
# architecture rather than host core count) requires the 4-process fleet
# to clear 2x one process's ops/s through the routing client with full
# content verification, every endpoint taking traffic, and no >15% drop
# against the checked-in BENCH_scaleout.json.
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

echo "== structure gate (one FTL engine, no ParallelFlush fork) =="
# ssd.Device and core.Device run on internal/ftl's engine; a second copy of
# any data-path function is the fork growing back.
nontest=$(find internal -name '*.go' ! -name '*_test.go')
for fn in readOPageOnce readOPageInto sectorErasures composePageInto \
    programPage ensureActive pickVictim collect; do
    # shellcheck disable=SC2086
    n=$(cat $nontest | grep -c "^func (.*) $fn(" || true)
    if [ "$n" -ne 1 ]; then
        echo "structure gate: $fn is defined $n times in non-test internal/ (want 1)" >&2
        exit 1
    fi
done
if grep -rn 'ParallelFlush\|drainParallel\|flushStripe\|inGC' --include='*.go' .; then
    echo "structure gate: the deleted parallel-flush fork is back" >&2
    exit 1
fi
if [ -e internal/ssd/parallel.go ]; then
    echo "structure gate: internal/ssd/parallel.go exists" >&2
    exit 1
fi
go test -race -count=1 ./internal/ftl/

echo "== go test =="
go test ./...

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

echo "== salperf -ecc -degraded regression guard (baseline BENCH_ecc.json) =="
go run ./cmd/salperf -ecc -degraded -ecc-baseline BENCH_ecc.json

echo "== salperf -parallel regression guard (baseline BENCH_parallel.json) =="
go run ./cmd/salperf -parallel 4 -data 8 -parallel-baseline BENCH_parallel.json

echo "== salperf -shardbench guard (>= 2x at 16 shards + byte-identical BENCH_shard.json) =="
# Virtual-time model of the metadata-shard split: must scale >= 2x from one
# shard to 16 (absolute floor, enforced by salperf itself). The model is
# deterministic, so the points must also reproduce the checked-in file byte
# for byte — any drift in placement, repair or event ordering at any of the
# five shard counts shows up here, not just a >15% slowdown.
shardtmp=$(mktemp)
go run ./cmd/salperf -shardbench 16 -shardbench-out "$shardtmp"
cmp "$shardtmp" BENCH_shard.json || {
    echo "salperf -shardbench points differ from BENCH_shard.json" >&2
    diff "$shardtmp" BENCH_shard.json >&2 || true
    exit 1
}
rm -f "$shardtmp"

echo "== benchmark smoke (go run ./benchmark -quick -trace 1) =="
# Exit status only: every workload's quick run drives the 16-shard cluster
# through salnet and ends with CheckInvariants, a clean shutdown, and (for
# durable_put) a reopen-and-verify of the data dir. -seconds 3 shortens the
# measured window, not what is checked.
go run ./benchmark -quick -trace 1 -seconds 3 >/dev/null

echo "== salchaos smoke with network failpoints (-net) =="
go run ./cmd/salchaos -seed 1 -ops 2000 -net >/dev/null

echo "== salsrv/salload loopback smoke + BENCH_net.json regression guard + ops surface =="
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
    -zipf 1.1 -min-ops 10000 -baseline BENCH_net.json
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
# able to tell. A lighter load, no baseline (single-lock throughput is the
# thing the shard split exists to beat), but full content verification,
# shard counters present, and a clean drain.
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

echo "== degraded-fleet loopback smoke (-devices core -wear 0.6) + BENCH_net_degraded.json =="
# A pre-worn RealECC fleet: every block starts at 60% of nominal PEC with
# grown stuck bit-lines, so reads exercise the degraded decode kernels and
# the erasure-hinted path while serving verified hot-spot traffic. The tail
# guard (-p99-tolerance) holds p99 within 15% of the checked-in degraded
# baseline — a fatter tail under wear is exactly the regression the degraded
# kernels exist to prevent — and the metric asserts below prove the degraded
# machinery actually fired instead of the smoke coasting on a clean path.
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
    -objects 8 -size 2048 -hot-frac 0.7 \
    -baseline BENCH_net_degraded.json -p99-tolerance 1.15
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

echo "== scale-out throughput: 4-process fleet vs one process + BENCH_scaleout.json =="
# Device-bound comparison: -service-time 10ms pins each op (or coalesced GET
# run) to a real-time device floor — the flash sim is virtual-time, so
# without it throughput is CPU-bound and the ratio would measure host cores,
# not the sharded architecture. GOMAXPROCS=1 per server keeps the unit of
# scaling the process. Identical workload both ways; the fleet must clear
# 2x the single process's ops/s (machine-independent floor), spread traffic
# over every endpoint, and hold the checked-in baseline (pinned to the
# conservative low edge of observed runs, so 1-core scheduler noise does
# not flap the gate).
GOMAXPROCS=1 "$fltmp/salsrv" -addr 127.0.0.1:0 -addr-file "$fltmp/addrS" \
    -ops-addr 127.0.0.1:0 -ops-addr-file "$fltmp/opsS" \
    -shards 16 -workers 4 -service-time 10ms \
    -data-dir "$fltmp/single" -fsync=false >"$fltmp/srvS.log" 2>&1 &
spid=$!
i=0
while [ ! -s "$fltmp/addrS" ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -s "$fltmp/addrS" ] || {
    echo "single scale-out salsrv never bound" >&2
    cat "$fltmp/srvS.log" >&2
    exit 1
}
"$fltmp/salload" -addr "$(cat "$fltmp/addrS")" -clients 8 -depth 8 -ops 2000 \
    -out "$fltmp/single.json"
kill -TERM "$spid"
wait "$spid" || {
    echo "single scale-out salsrv drain failed" >&2
    cat "$fltmp/srvS.log" >&2
    exit 1
}
flpids=""
i=0
for subset in 0-3 4-7 8-11 12-15; do
    GOMAXPROCS=1 "$fltmp/salsrv" -addr 127.0.0.1:0 -addr-file "$fltmp/addr$i" \
        -ops-addr 127.0.0.1:0 -ops-addr-file "$fltmp/ops$i" \
        -shards 16 -own-shards "$subset" -workers 4 -service-time 10ms \
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
    -out "$fltmp/fleetrep.json" -baseline BENCH_scaleout.json
for p in $flpids; do kill -TERM "$p"; done
for p in $flpids; do
    wait "$p" || {
        echo "fleet member drain failed" >&2
        cat "$fltmp"/srv[0-3].log >&2
        exit 1
    }
done
# Every member must have taken traffic: the report's per-endpoint split has
# four rows and none with zero ops.
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
sops=$(sed -n 's/.*"ops_per_sec": *\([0-9.][0-9.eE+-]*\).*/\1/p' "$fltmp/single.json")
fops=$(sed -n 's/.*"ops_per_sec": *\([0-9.][0-9.eE+-]*\).*/\1/p' "$fltmp/fleetrep.json")
awk -v s="$sops" -v f="$fops" 'BEGIN { exit !(s + 0 > 0 && f + 0 >= 2 * s) }' || {
    echo "scale-out floor: fleet $fops ops/s < 2x single-process $sops ops/s" >&2
    exit 1
}
echo "scale-out: single $sops ops/s, 4-process fleet $fops ops/s (>= 2x)"
rm -rf "$fltmp"

echo "CI PASSED"
