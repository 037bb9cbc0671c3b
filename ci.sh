#!/usr/bin/env sh
# Local CI gate: formatting, lints, tests.
#
#   ./ci.sh          # fmt check + clippy -D warnings + tests
#   ./ci.sh --fast   # skip clippy (quick pre-commit loop)
#
# Everything runs offline: the external dependencies are vendored
# stand-ins under vendor/ (see vendor/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

if [ "${1:-}" != "--fast" ]; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> rustdoc gate: no broken or private intra-doc links in the tier crates"
# The vendored stand-ins are excluded: vendor/proptest has broken links
# of its own.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline \
    -p offloadnn-serve -p offloadnn-net -p offloadnn-gateway

echo "==> purity gate: the gateway ticket and liveness engines, the serve shard engine, the net client reply table, the net connection's owed-reply bookkeeping and the one routing rule read no clock, take no lock, block on no channel, touch no socket"
# ticket.rs, liveness.rs, shard.rs, replies.rs, owed.rs (what a net
# connection owes and when it may write it) and the serve router.rs
# (the shard and node routing rule of both tiers) are the seams the
# deterministic simulator (ROADMAP 4(b)) will stand on; clock reads,
# sleeps, locks, blocking receives, sockets and threads must not grow
# back into them, their unit tests included.
for engine in crates/gateway/src/ticket.rs crates/gateway/src/liveness.rs crates/serve/src/shard.rs \
    crates/net/src/replies.rs crates/net/src/owed.rs crates/serve/src/router.rs; do
    if grep -nE 'Instant::now|elapsed\(|sleep\(|\.lock\(\)|\brecv|TcpStream|std::thread' "$engine"; then
        echo "$engine must stay clock-free, lock-free, blocking-free and socket-free" >&2
        exit 1
    fi
done

echo "==> cargo test -q (tier-1: facade package)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> net integration gate: loopback server/client conservation under a hard timeout"
timeout 300 cargo test -q -p offloadnn-net --test loopback

echo "==> reshard gate: deterministic harness on two fixed seeds plus one random one"
for seed in 1 424242 "$(awk 'BEGIN{srand();print int(rand()*65536)}')"; do
    echo "    RESHARD_SEED=$seed"
    RESHARD_SEED="$seed" timeout 300 cargo test -q -p offloadnn-serve --test reshard_harness
done

echo "==> live gates: build the one load generator once"
# Every live gate below is conservation-gated by the binary's exit code.
# The default --max-active 2 per driver keeps the active set under the
# ~12 tasks Table IV's budget holds, so admitted tasks depart and the
# release path (wire Depart, owner lookup, orphan buffering across a
# reshard) carries traffic; the binary fails a run that never departs.
cargo build -q --release -p offloadnn-gateway --bin loadgen
loadgen=target/release/loadgen

echo "==> reshard gate: live 4->8->2 reshard over TCP under sustained load"
timeout 300 "$loadgen" --tier net --requests 8000 --clients 4 --window 128 --shards 4 \
    --scale-script "2000:8,5000:2" >/dev/null

echo "==> reactor gate: live 4->8->2 reshard through the epoll frontend"
timeout 300 "$loadgen" --tier net --frontend reactor --requests 8000 --clients 4 --window 128 --shards 4 \
    --scale-script "2000:8,5000:2" >/dev/null

echo "==> reactor gate: 512 concurrent connections on the fixed-size event-loop pool"
# 512 drivers share ~12 admissions, so none outgrows an active set of its
# own: --max-active 0 departs every admission as soon as it is seen.
timeout 300 "$loadgen" --tier net --frontend reactor --requests 5120 --clients 512 --window 4 --shards 2 \
    --ues 3 --max-active 0 >/dev/null

echo "==> gateway gate: deterministic kill-one-node failover harness on fixed + random seeds"
for seed in 42 31337 "$(awk 'BEGIN{srand();print int(rand()*65536)}')"; do
    echo "    GATEWAY_SEED=$seed"
    GATEWAY_SEED="$seed" timeout 300 cargo test -q -p offloadnn-gateway --test failover_harness
done

echo "==> gateway gate: live 3-node loopback cluster, one node killed mid-run"
timeout 300 "$loadgen" --tier gateway --nodes 3 --shards 2 --ues 4 --requests 3000 --clients 4 \
    --kill-node-at 1200 >/dev/null

echo "==> gateway gate: hedged requests through the reactor frontend"
timeout 300 "$loadgen" --tier gateway --frontend reactor --nodes 2 --shards 2 --ues 4 --requests 2000 \
    --hedge --deadline-ms 40 >/dev/null

echo "==> discovery gate: deterministic membership-churn harness on fixed + random seeds"
for seed in 42 31337 "$(awk 'BEGIN{srand();print int(rand()*65536)}')"; do
    echo "    DISCOVERY_SEED=$seed"
    DISCOVERY_SEED="$seed" timeout 300 cargo test -q -p offloadnn-gateway --test discovery_harness
done

echo "==> discovery gate: live hot-join + graceful leave under load"
timeout 300 "$loadgen" --tier gateway --nodes 2 --shards 2 --ues 4 --requests 3000 --clients 4 \
    --join-node-at 600 --leave-node-at 1800 >/dev/null

echo "==> federation gate: deterministic two-cluster overflow harness on fixed + random seeds"
for seed in 42 31337 "$(awk 'BEGIN{srand();print int(rand()*65536)}')"; do
    echo "    FEDERATION_SEED=$seed"
    FEDERATION_SEED="$seed" timeout 300 cargo test -q -p offloadnn-gateway --test federation_harness
done

echo "==> federation gate: live two-gateway overflow forwarding over the wire"
# Fails with "no overflow was forwarded to the peer cluster" unless the
# starved primary's would-be Shed actually lands on the peer.
timeout 300 "$loadgen" --tier federated --nodes 1 --shards 1 --ues 4 --queue-capacity 8 --requests 2000 \
    --clients 4 >/dev/null

echo "==> admitter gate: the same workload conserves through every tier behind the unified API"
timeout 300 cargo test -q -p offloadnn-gateway --test admitter_conservation

echo "==> plancache gate: cached-equals-fresh equivalence on fixed + random seeds"
for seed in "$(awk 'BEGIN{srand();print int(rand()*65536)}')"; do
    echo "    PLANCACHE_SEED=$seed (plus the baked-in fixed seeds)"
    PLANCACHE_SEED="$seed" timeout 300 cargo test -q -p offloadnn-serve --test plancache_equivalence
done
timeout 300 cargo test -q -p offloadnn-serve --test plancache_staleness

echo "==> plancache gate: Zipf loadgen hit rate with conservation intact"
# Gated on the 0.70 floor for the *usable* hit rate (hits that failed
# validation do not count); the binary exits non-zero on any conservation
# breach, and with --plan-cache also when validation failures outnumber
# positive hits (only a positive plan is ever re-validated). --max-active 64
# keeps the saturated, never-departing run the floor was calibrated on. The
# solve path's speed is gated end to end by the svc-large-zipf workload of
# perfbench.
timeout 600 "$loadgen" --tier service --clients 1 --requests 2000 --scenario large --batch-max 1 \
    --shape-skew 1.2 --shape-pool 32 --seed 7 --max-active 64 --plan-cache --min-hit-rate 0.70 >/dev/null

echo "==> plancache gate: the README's cluster example — each node's cache behind a 3-node gateway"
# Same --plan-cache invariant, over the three nodes' summed stats.
timeout 300 "$loadgen" --tier gateway --nodes 3 --requests 3000 --shape-skew 1.2 --shape-pool 32 \
    --plan-cache >/dev/null

echo "==> telemetry overhead gate: workspace builds and tier-1 passes with telemetry compiled out"
cargo build --workspace --features telemetry-disabled
cargo test -q --features telemetry-disabled
timeout 300 cargo test -q -p offloadnn-serve --test reshard_telemetry --features offloadnn-telemetry/disabled
timeout 300 cargo test -q -p offloadnn-net --test net_telemetry --features offloadnn-telemetry/disabled
timeout 300 cargo test -q -p offloadnn-gateway --test gateway_telemetry --features offloadnn-telemetry/disabled
timeout 300 cargo test -q -p offloadnn-gateway --test discovery_harness --features offloadnn-telemetry/disabled
timeout 300 cargo test -q -p offloadnn-gateway --test federation_harness --features offloadnn-telemetry/disabled
timeout 300 cargo test -q -p offloadnn-plancache --features offloadnn-telemetry/disabled

echo "==> cargo bench smoke (criterion --test mode)"
cargo bench --workspace -- --test >/dev/null

echo "==> benchmark package gate: perfbench sits outside the workspace, so build, test and smoke it here"
# An API break against perfbench/ would otherwise surface only in the
# benchmark pipeline. --smoke is ~15 s with every output check on.
# --locked fails the gate when a tier Cargo.toml edit would rewrite
# perfbench/Cargo.lock, instead of letting the build change it silently.
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml --bin perf -- --smoke >/dev/null

echo "==> LOC trajectory (ROADMAP north-star 2: line count tracked beside the perf numbers)"
# tests/ is printed beside src/ so a reduction made by moving code into
# tests is visible; every crate and perfbench/ are listed so growth
# outside the three tier crates is visible too. The non-test column
# counts each src/ file up to its first #[cfg(test)] line.
loc() { [ -d "$1" ] && find "$1" -name '*.rs' -exec cat {} + | wc -l || echo 0; }
nontest() {
    [ -d "$1" ] || { echo 0; return; }
    find "$1" -name '*.rs' -exec awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }'
}
src_sum=0
nontest_sum=0
tests_sum=0
for dir in crates/* perfbench; do
    src=$(loc "$dir/src")
    own=$(nontest "$dir/src")
    tests=$(loc "$dir/tests")
    case "$dir" in crates/net | crates/serve | crates/gateway)
        src_sum=$((src_sum + src))
        nontest_sum=$((nontest_sum + own))
        tests_sum=$((tests_sum + tests))
        ;;
    esac
    printf '    %-18s src %5s lines (non-test %5s), tests %5s lines\n' "$dir" "$src" "$own" "$tests"
done
printf '    net+serve+gateway src/ sum  %s lines (non-test %s), tests/ sum  %s lines\n' "$src_sum" "$nontest_sum" "$tests_sum"

echo "CI green."
