#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repo root; fails fast on the first broken gate.
set -euo pipefail
cd "$(dirname "$0")"

# Every step's scratch files live under one directory, removed on any exit.
ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT

# campaign_gate <bin> <experiment> <trials> <VAR> <a> <b>: <bin>'s smoke tables
# must be byte-identical under VAR=a and VAR=b; a re-run into the first
# directory must serve all <trials> trials of <experiment> from the manifest
# and reprint the same output. A false headline check exits the bin non-zero.
campaign_gate() {
  local bin="$1" exp="$2" trials="$3" var="$4" a="$ci_tmp/$1.$5" b="$ci_tmp/$1.$6"
  echo "-- $bin: $var=$5 vs $6, then resume"
  env "$var=$5" cargo run -q --release -p sefi-experiments --bin "$bin" -- \
    --budget smoke --results-dir "$a" > "$a.log1"
  env "$var=$6" cargo run -q --release -p sefi-experiments --bin "$bin" -- \
    --budget smoke --results-dir "$b" > /dev/null
  for csv in "$b"/*.csv; do cmp "$csv" "$a/${csv##*/}"; done
  env "$var=$6" cargo run -q --release -p sefi-experiments --bin "$bin" -- \
    --budget smoke --results-dir "$a" > "$a.log2"
  grep -Eq "^$exp +0 +$trials +0 " "$a.log2"
  for csv in "$b"/*.csv; do cmp "$csv" "$a/${csv##*/}"; done
  cmp <(sed '/campaign summary/,$d' "$a.log1") <(sed '/campaign summary/,$d' "$a.log2")
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (SEFI_KERNELS=simd) =="
# The full suite under the default vectorized kernel generation...
SEFI_KERNELS=simd cargo test --workspace -q

echo "== cargo test (SEFI_KERNELS=naive) =="
# ...and again under the retained naive reference: the lane-stable
# contract says both runs exercise bit-identical numerics, so any test
# that passes under one generation and fails under the other is a
# determinism bug, not flakiness.
SEFI_KERNELS=naive cargo test --workspace -q

echo "== repo benchmark tests =="
# The benchmark is a package of its own (benchmark/Cargo.toml, outside the
# workspace), so the runs above never build it. Its smoke test runs every
# workload at smoke scale, traced and untraced; the traced trial body
# builds each session with Session::new and must reproduce the outcome
# digest of the untraced Prebaked::try_resume path, which clones a
# template session instead.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== kernel-mode campaign invariance =="
# Kernels are a speedup, never a numerical variation source (DESIGN.md §6):
# simd and naive smoke campaigns emit byte-identical tables. table5 adds the
# resnet50 rows (batch norm, the residual join) to fig2's Chainer/AlexNet.
campaign_gate fig2_bit_ranges fig2 32 SEFI_KERNELS simd naive
campaign_gate table5_rwc rwc 54 SEFI_KERNELS simd naive

echo "== sharded adaptive campaign: kill -9 + resume =="
# A worker is SIGKILLed mid-run, leaving partial manifest shards (and
# possibly a held lease) in the shared results directory. Two relaunched
# concurrent workers must break anything stale, split the remaining waves
# between them via leases, and produce a CSV byte-identical to an
# unsharded single-process run.
cargo build -q --release -p sefi-experiments --bin sefi-campaign-worker
worker_bin=target/release/sefi-campaign-worker
shard_solo="$ci_tmp/shard_solo"
shard_duo="$ci_tmp/shard_duo"
"$worker_bin" --experiment fig2 --budget smoke --results-dir "$shard_solo" \
  --worker-id solo --wave 2 --ci-width 0.7 > /dev/null
# Stage 1: the doomed worker.
"$worker_bin" --experiment fig2 --budget smoke --results-dir "$shard_duo" \
  --worker-id w1 --wave 2 --ci-width 0.7 --lease-ttl-ms 2000 --poll-ms 50 \
  > /dev/null &
shard_w1=$!
sleep 0.15
kill -9 "$shard_w1" 2> /dev/null || true
wait "$shard_w1" 2> /dev/null || true
# Stage 2: two fresh concurrent workers resume over the carcass; they must
# break any stale lease, split the remaining waves, and both converge.
"$worker_bin" --experiment fig2 --budget smoke --results-dir "$shard_duo" \
  --worker-id w2 --wave 2 --ci-width 0.7 --lease-ttl-ms 2000 --poll-ms 50 \
  > /dev/null &
shard_w2=$!
"$worker_bin" --experiment fig2 --budget smoke --results-dir "$shard_duo" \
  --worker-id w3 --wave 2 --ci-width 0.7 --lease-ttl-ms 2000 --poll-ms 50 \
  > /dev/null &
shard_w3=$!
wait "$shard_w2"
wait "$shard_w3"
cmp "$shard_solo/fig2_adaptive.csv" "$shard_duo/fig2_adaptive.csv"

echo "== smoke campaigns: worker-count determinism, resume, headline checks =="
# Seeds depend only on (framework, model, cell, trial), so tables are
# byte-identical at 2 and 8 workers. Headline checks: storage and forensics
# see every outcome class, the verified loader detects and ECC corrects every
# flip; bf16's exp-msb N-EV rate exceeds f16's; the rate-0 serving pool is all
# masked, guards fire at 16 flips/replica, and no request is lost.
campaign_gate fig2_bit_ranges fig2 32 RAYON_NUM_THREADS 2 8
campaign_gate exp_storage storage 144 RAYON_NUM_THREADS 2 8
campaign_gate exp_forensics forensics 192 RAYON_NUM_THREADS 2 8
campaign_gate exp_precision precision 144 RAYON_NUM_THREADS 2 8
campaign_gate exp_serving serving 24 RAYON_NUM_THREADS 2 8

echo "== container mutation fuzz =="
# The shared harness: random byte mutations and truncations against all
# three container formats (v1, flat, v2) must error cleanly, never panic.
cargo test -q --release -p sefi-hdf5 --test fuzz_formats

echo "== SEC-DED extension golden =="
# ext_ecc_shield at the default budget must print exactly the committed
# table: a change to the sidecar's Hamming(72,64) code, its repair, or the
# corrupter shows up as a changed repaired / detected / miscorrected count.
cargo run -q --release -p sefi-experiments --bin ext_ecc_shield > "$ci_tmp/ecc.txt"
cmp "$ci_tmp/ecc.txt" ext_ecc_default.txt

echo "== forensics CLI smoke =="
# The sefi-ckpt loop end to end: mint a fixture, protect it, flip one bit,
# assert scan flags the damage (exit 1), salvage repairs it via ECC, the
# repaired file scans clean (exit 0) and is bit-identical to the pristine
# checkpoint.
fx_dir="$ci_tmp/fixtures"
mkdir "$fx_dir"
cargo build -q --release -p sefi-experiments --bin sefi-ckpt
ckpt_bin=target/release/sefi-ckpt
"$ckpt_bin" mint "$fx_dir/ckpt.sefi5" --epoch 7 > /dev/null
"$ckpt_bin" protect "$fx_dir/ckpt.sefi5" > /dev/null
"$ckpt_bin" scan "$fx_dir/ckpt.sefi5" > /dev/null
cp "$fx_dir/ckpt.sefi5" "$fx_dir/pristine.sefi5"
fx_size=$(stat -c %s "$fx_dir/ckpt.sefi5")
fx_last=$(tail -c1 "$fx_dir/ckpt.sefi5" | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( fx_last ^ 1 )))" \
  | dd of="$fx_dir/ckpt.sefi5" bs=1 seek=$((fx_size - 1)) conv=notrunc 2> /dev/null
fx_code=0; "$ckpt_bin" scan "$fx_dir/ckpt.sefi5" > "$fx_dir/scan.log" || fx_code=$?
test "$fx_code" -eq 1
grep -q 'DAMAGED' "$fx_dir/scan.log"
"$ckpt_bin" locate "$fx_dir/ckpt.sefi5" $((fx_size - 1)) | grep -q 'dataset'
fx_code=0
"$ckpt_bin" salvage "$fx_dir/ckpt.sefi5" --out "$fx_dir/repaired.sefi5" \
  > "$fx_dir/salvage.log" || fx_code=$?
test "$fx_code" -eq 1
grep -q 'ecc-corrected' "$fx_dir/salvage.log"
"$ckpt_bin" scan "$fx_dir/repaired.sefi5" > /dev/null
"$ckpt_bin" diff "$fx_dir/repaired.sefi5" "$fx_dir/pristine.sefi5" | grep -q 'identical'
RAYON_NUM_THREADS=4 "$ckpt_bin" scan --fleet "$fx_dir" > "$fx_dir/fleet.log" || true
grep -q 'repaired.sefi5: clean' "$fx_dir/fleet.log"

echo "== serving failover drill =="
# End to end over TCP: a clean server and a server whose replica-1 file
# carries an exponent-MSB flip serve the same deterministic load; the
# corrupted run must trip the guard, quarantine-reload via ECC, and still
# produce a byte-identical answers file. Telemetry must carry the trip,
# the reload, and the shutdown roll-up.
drill_dir="$ci_tmp/drill"
mkdir "$drill_dir"
cargo build -q --release -p sefi-serve --bin sefi-serve --bin sefi-loadgen
serve_bin=target/release/sefi-serve
loadgen_bin=target/release/sefi-loadgen
for variant in clean corrupt; do
  corrupt_args=""
  [ "$variant" = corrupt ] && corrupt_args="--corrupt-replica 1"
  "$serve_bin" --dir "$drill_dir/$variant" --requests 200 --port 0 \
    --port-file "$drill_dir/$variant.port" \
    --telemetry "$drill_dir/$variant.jsonl" $corrupt_args \
    > "$drill_dir/$variant.serve.log" 2>&1 &
  drill_pid=$!
  for _ in $(seq 1 300); do [ -s "$drill_dir/$variant.port" ] && break; sleep 0.1; done
  "$loadgen_bin" --port-file "$drill_dir/$variant.port" --requests 200 \
    --answers "$drill_dir/$variant.answers" > "$drill_dir/$variant.loadgen.log"
  wait "$drill_pid"
done
grep -q 'guard_trips=0' "$drill_dir/clean.serve.log"
grep -Eq 'guard_trips=[1-9]' "$drill_dir/corrupt.serve.log"
grep -Eq 'reloads=[1-9]' "$drill_dir/corrupt.serve.log"
grep -q 'GuardTrip' "$drill_dir/corrupt.jsonl"
grep -q 'ReplicaReload' "$drill_dir/corrupt.jsonl"
grep -q 'ServeEnd' "$drill_dir/corrupt.jsonl"
grep -q 'ServeEnd' "$drill_dir/clean.jsonl"
# The failover answered every request exactly as the clean pool did.
cmp "$drill_dir/clean.answers" "$drill_dir/corrupt.answers"

echo "== smoke campaign: fault isolation =="
# A deliberately failing trial (injected via the test-only SEFI_FAIL_TRIAL
# hook) must not kill the campaign: every other trial completes, the failure
# lands in the manifest and telemetry with its panic message, a plain re-run
# serves it from the manifest, and --retry-failed re-executes it cleanly.
smoke_dir="$ci_tmp/fault"
mkdir "$smoke_dir"
SEFI_FAIL_TRIAL='fig2:fig2-sign only [63,63]:0' \
  cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$smoke_dir" > "$smoke_dir/run1.log"
grep -q '"status":"failed"' "$smoke_dir/fig2/manifest.jsonl"
grep -q 'injected test failure' "$smoke_dir/fig2/manifest.jsonl"
grep -q 'TrialFailed' "$smoke_dir/telemetry.jsonl"
grep -q 'failed:1' "$smoke_dir/run1.log"
# Resume without retrying: nothing re-executes, the failure is served.
cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$smoke_dir" > "$smoke_dir/run2.log"
grep -Eq 'fig2 +0 +32 +1' "$smoke_dir/run2.log"
# Retry with the fault hook unset: exactly the failed trial re-runs, cleanly.
cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$smoke_dir" --retry-failed > "$smoke_dir/run3.log"
grep -Eq 'fig2 +1 +31 +0' "$smoke_dir/run3.log"

echo "== kernel bench smoke =="
# The bench smokes below run after every correctness step: their perf floors
# are noisy on small hosts, and under `set -e` a failing one stops the script.
# Quick pass of the kernel benchmark harness against the committed "before"
# baselines (the scalar tiled kernels of PR 3): smoke-length measurements
# into a throwaway copy, with relaxed speedup floors as a regression
# tripwire. The committed BENCH_kernels.json carries the full-length runs,
# which clear ~3x on gemm_256/gemm_512 and ~2.6x on conv under the AVX-512
# microkernels. The GEMM/conv rows average hundreds of iterations even at
# smoke length, so they gate tightly; the epoch rows run a single iteration
# under --smoke (~50% warmup overhead) and are not gated — a broken simd
# dispatch shows up in the GEMM floors long before the epoch rows. The
# par_dispatch_2 row's "before" is the per-dispatch scoped-thread shim
# (~65 µs per 2-item dispatch); the persistent pool must stay >= 10x under
# it (measured ~72x).
cp BENCH_kernels.json "$ci_tmp/kernels.json"
cargo run -q --release -p sefi-bench --bin bench_kernels -- \
  --label after --smoke --out "$ci_tmp/kernels.json" \
  --assert-speedup gemm_256:2.4 --assert-speedup gemm_512:2.4 \
  --assert-speedup conv_fwd_bwd_8x16x16:2.0 --assert-speedup par_dispatch_2:10

echo "== checkpoint I/O bench smoke =="
# v2's indexed open + single-section read must beat a v1 full decode for
# single-tensor access even at smoke length (the committed BENCH_ckpt_io.json
# carries the full-length run, which clears ~18x; smoke allows 3x slack).
cargo run -q --release -p sefi-bench --bin bench_ckpt_io -- \
  --smoke --out "$ci_tmp/ckpt_io.json" --assert-lazy-speedup 3.0

echo "== forensics bench smoke =="
# Quick pass of the forensics benchmark: its built-in checks (salvage
# restores pristine bytes; fleet verdicts identical at 1/2/4/8 workers)
# fail the run on violation.
cargo run -q --release -p sefi-bench --bin bench_forensics -- \
  --smoke --out "$ci_tmp/forensics.json" > /dev/null

echo "== precision bench smoke =="
# The per-dtype checkpoint footprint curve, with its size-floor tripwire:
# every format must cost at least elements × element_bytes on disk and the
# curve must be non-decreasing in element width (i8q <= f16 = bf16 <= f32
# <= f64).
cargo run -q --release -p sefi-bench --bin bench_precision -- \
  --smoke --out "$ci_tmp/precision.json" --assert-size-order > /dev/null

echo "== serving bench smoke =="
# Serving-path tripwires at smoke length: dynamic batching must clear 2x
# over batch=1 at 4 workers (the committed BENCH_serving.json full run
# clears ~8x) and the activation guards must cost < 5% per batch.
cargo run -q --release -p sefi-bench --bin bench_serving -- \
  --smoke --out "$ci_tmp/serving.json" \
  --assert-speedup 2.0 --assert-guard-overhead 5.0 > /dev/null

echo "== campaign scheduler bench smoke =="
# The work-stealing pool must beat the per-cell-barrier baseline even at
# smoke length, and every rendered table must be byte-identical across
# modes and worker counts (the bench exits non-zero on either failure).
# The committed BENCH_campaign.json carries the full-length run (~3.8x);
# smoke allows slack. The adaptive section must save >= 30% of the fixed
# Figure 2 trials without flipping a collapse verdict, and the sharded
# section (1/2/4 worker processes) must produce byte-identical CSVs.
# Last, the built-in telemetry bound: one trial's bookkeeping must cost
# < 1% of a micro-scale trial. It runs last because it is known to fail
# on a 2-vCPU AVX-512 host (~1.7-2.1%), and under `set -e` a failing step
# would hide every gate after it.
cargo run -q --release -p sefi-bench --bin bench_campaign -- \
  --smoke --out "$ci_tmp/campaign.json" --assert-speedup 1.5 \
  --assert-trial-savings 0.30 --worker-bin target/release/sefi-campaign-worker

echo "== CI green =="
