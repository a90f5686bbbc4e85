#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repo root; fails fast on the first broken gate.
set -euo pipefail
cd "$(dirname "$0")"

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
# The same smoke campaign under the simd and naive kernel generations
# must emit byte-identical tables — kernels are a speedup, never a
# numerical variation source (DESIGN.md §6).
kern_a="$(mktemp -d)"
kern_b="$(mktemp -d)"
SEFI_KERNELS=simd cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$kern_a" > /dev/null
SEFI_KERNELS=naive cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$kern_b" > /dev/null
cmp "$kern_a/fig2.csv" "$kern_b/fig2.csv"
# fig2 is Chainer/AlexNet only; table5 has resnet50 rows, so batch norm and
# the residual join are held to the same invariance.
SEFI_KERNELS=simd cargo run -q --release -p sefi-experiments --bin table5_rwc -- \
  --budget smoke --results-dir "$kern_a" > /dev/null
SEFI_KERNELS=naive cargo run -q --release -p sefi-experiments --bin table5_rwc -- \
  --budget smoke --results-dir "$kern_b" > /dev/null
cmp "$kern_a/table5.csv" "$kern_b/table5.csv"
rm -rf "$kern_a" "$kern_b"

echo "== kernel bench smoke =="
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
bench_dir="$(mktemp -d)"
cp BENCH_kernels.json "$bench_dir/bench.json"
cargo run -q --release -p sefi-bench --bin bench_kernels -- \
  --label after --smoke --out "$bench_dir/bench.json" \
  --assert-speedup gemm_256:2.4 --assert-speedup gemm_512:2.4 \
  --assert-speedup conv_fwd_bwd_8x16x16:2.0 --assert-speedup par_dispatch_2:10
rm -rf "$bench_dir"

echo "== checkpoint I/O bench smoke =="
# v2's indexed open + single-section read must beat a v1 full decode for
# single-tensor access even at smoke length (the committed BENCH_ckpt_io.json
# carries the full-length run, which clears ~18x; smoke allows 3x slack).
io_dir="$(mktemp -d)"
cargo run -q --release -p sefi-bench --bin bench_ckpt_io -- \
  --smoke --out "$io_dir/bench.json" --assert-lazy-speedup 3.0
rm -rf "$io_dir"

echo "== sharded adaptive campaign: kill -9 + resume =="
# A worker is SIGKILLed mid-run, leaving partial manifest shards (and
# possibly a held lease) in the shared results directory. Two relaunched
# concurrent workers must break anything stale, split the remaining waves
# between them via leases, and produce a CSV byte-identical to an
# unsharded single-process run.
cargo build -q --release -p sefi-experiments --bin sefi-campaign-worker
worker_bin=target/release/sefi-campaign-worker
shard_solo="$(mktemp -d)"
shard_duo="$(mktemp -d)"
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
rm -rf "$shard_solo" "$shard_duo"

echo "== scheduler determinism across worker counts =="
# The same smoke campaign at 2 and 8 workers must emit byte-identical
# rendered tables: trial seeds depend only on (framework, model, cell,
# trial), and outcomes are scattered back in trial-index order.
sched_a="$(mktemp -d)"
sched_b="$(mktemp -d)"
RAYON_NUM_THREADS=2 cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$sched_a" > /dev/null
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin fig2_bit_ranges -- \
  --budget smoke --results-dir "$sched_b" > /dev/null
cmp "$sched_a/fig2.csv" "$sched_b/fig2.csv"
rm -rf "$sched_a" "$sched_b"

echo "== container mutation fuzz =="
# The shared harness: random byte mutations and truncations against all
# three container formats (v1, flat, v2) must error cleanly, never panic.
cargo test -q --release -p sefi-hdf5 --test fuzz_formats

echo "== smoke campaign: storage sweep =="
# The v2 storage sweep must observe all three outcome classes (masked /
# detected / silent), its verified loader must detect every single-bit flip,
# and a re-invocation must serve every trial from the manifest while
# rebuilding the identical table from recorded metrics.
storage_dir="$(mktemp -d)"
cargo run -q --release -p sefi-experiments --bin exp_storage -- \
  --budget smoke --results-dir "$storage_dir" > "$storage_dir/run1.log"
grep -q 'verified loader detects every flip: true' "$storage_dir/run1.log"
grep -q 'all outcome classes observed: true' "$storage_dir/run1.log"
cargo run -q --release -p sefi-experiments --bin exp_storage -- \
  --budget smoke --results-dir "$storage_dir" > "$storage_dir/run2.log"
grep -Eq 'storage +0 +144 +0' "$storage_dir/run2.log"
cmp <(grep -A5 'Region' "$storage_dir/run1.log") <(grep -A5 'Region' "$storage_dir/run2.log")
rm -rf "$storage_dir"

echo "== SEC-DED extension golden =="
# ext_ecc_shield at the default budget must print exactly the committed
# table: a change to the sidecar's Hamming(72,64) code, its repair, or the
# corrupter shows up as a changed repaired / detected / miscorrected count.
ecc_out="$(mktemp)"
cargo run -q --release -p sefi-experiments --bin ext_ecc_shield > "$ecc_out"
cmp "$ecc_out" ext_ecc_default.txt
rm -f "$ecc_out"

echo "== forensics CLI smoke =="
# The sefi-ckpt loop end to end: mint a fixture, protect it, flip one bit,
# assert scan flags the damage (exit 1), salvage repairs it via ECC, the
# repaired file scans clean (exit 0) and is bit-identical to the pristine
# checkpoint.
fx_dir="$(mktemp -d)"
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
rm -rf "$fx_dir"

echo "== forensics bench smoke =="
# Quick pass of the forensics benchmark: its built-in checks (salvage
# restores pristine bytes; fleet verdicts identical at 1/2/4/8 workers)
# fail the run on violation.
forens_bench="$(mktemp -d)"
cargo run -q --release -p sefi-bench --bin bench_forensics -- \
  --smoke --out "$forens_bench/bench.json" > /dev/null
rm -rf "$forens_bench"

echo "== smoke campaign: forensics sweep =="
# The four-class sweep must show the headline results — the correcting
# loader repairs every single-bit payload flip, all four outcome classes
# (masked / detected / corrected / silent) appear — with byte-identical
# tables across worker counts, and a re-invocation must serve every trial
# from the manifest while rebuilding the identical table.
forens_dir="$(mktemp -d)"
RAYON_NUM_THREADS=2 cargo run -q --release -p sefi-experiments --bin exp_forensics -- \
  --budget smoke --results-dir "$forens_dir" > "$forens_dir/run1.log"
grep -q 'ecc loader corrects every payload flip: true' "$forens_dir/run1.log"
grep -q 'all outcome classes observed: true' "$forens_dir/run1.log"
forens_b="$(mktemp -d)"
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin exp_forensics -- \
  --budget smoke --results-dir "$forens_b" > /dev/null
cmp "$forens_dir/forensics.csv" "$forens_b/forensics.csv"
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin exp_forensics -- \
  --budget smoke --results-dir "$forens_dir" > "$forens_dir/run2.log"
grep -Eq 'forensics +0 +192 +0' "$forens_dir/run2.log"
cmp <(grep -A6 'Cell' "$forens_dir/run1.log") <(grep -A6 'Cell' "$forens_dir/run2.log")
rm -rf "$forens_dir" "$forens_b"

echo "== smoke campaign: cross-dtype equivalent injection =="
# The precision sweep (f16/bf16/f32/f64 × 6 strata) must show the headline
# exponent-width divergence (bf16's exp-msb N-EV rate strictly above
# f16's), with byte-identical tables across worker counts, and a
# re-invocation must serve all 144 trials from the manifest while
# rebuilding a byte-identical precision.csv.
prec_dir="$(mktemp -d)"
RAYON_NUM_THREADS=2 cargo run -q --release -p sefi-experiments --bin exp_precision -- \
  --budget smoke --results-dir "$prec_dir" > "$prec_dir/run1.log"
grep -q 'exponent-width divergence (bf16 exp-msb N-EV > f16): true' "$prec_dir/run1.log"
cp "$prec_dir/precision.csv" "$prec_dir/run1.csv"
prec_b="$(mktemp -d)"
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin exp_precision -- \
  --budget smoke --results-dir "$prec_b" > /dev/null
cmp "$prec_dir/precision.csv" "$prec_b/precision.csv"
rm -rf "$prec_b"
cargo run -q --release -p sefi-experiments --bin exp_precision -- \
  --budget smoke --results-dir "$prec_dir" > "$prec_dir/run2.log"
grep -Eq 'precision +0 +144 +0' "$prec_dir/run2.log"
cmp "$prec_dir/run1.csv" "$prec_dir/precision.csv"
cmp <(grep -A25 'Format' "$prec_dir/run1.log") <(grep -A25 'Format' "$prec_dir/run2.log")
rm -rf "$prec_dir"

echo "== precision bench smoke =="
# The per-dtype checkpoint footprint curve, with its size-floor tripwire:
# every format must cost at least elements × element_bytes on disk and the
# curve must be non-decreasing in element width (i8q <= f16 = bf16 <= f32
# <= f64).
prec_bench="$(mktemp -d)"
cargo run -q --release -p sefi-bench --bin bench_precision -- \
  --smoke --out "$prec_bench/bench.json" --assert-size-order > /dev/null
rm -rf "$prec_bench"

echo "== serving bench smoke =="
# Serving-path tripwires at smoke length: dynamic batching must clear 2x
# over batch=1 at 4 workers (the committed BENCH_serving.json full run
# clears ~8x) and the activation guards must cost < 5% per batch.
serve_bench="$(mktemp -d)"
cargo run -q --release -p sefi-bench --bin bench_serving -- \
  --smoke --out "$serve_bench/bench.json" \
  --assert-speedup 2.0 --assert-guard-overhead 5.0 > /dev/null
rm -rf "$serve_bench"

echo "== serving failover drill =="
# End to end over TCP: a clean server and a server whose replica-1 file
# carries an exponent-MSB flip serve the same deterministic load; the
# corrupted run must trip the guard, quarantine-reload via ECC, and still
# produce a byte-identical answers file. Telemetry must carry the trip,
# the reload, and the shutdown roll-up.
drill_dir="$(mktemp -d)"
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
rm -rf "$drill_dir"

echo "== smoke campaign: serving sweep =="
# The served-accuracy sweep must show its headlines (rate-0 pool fully
# masked, guards firing at 16 flips/replica, no request lost), emit
# byte-identical CSVs across worker counts, and serve all 24 trials from
# the manifest on re-invocation while rebuilding the identical table.
srv_dir="$(mktemp -d)"
RAYON_NUM_THREADS=2 cargo run -q --release -p sefi-experiments --bin exp_serving -- \
  --budget smoke --results-dir "$srv_dir" > "$srv_dir/run1.log"
grep -q 'rate-0 pool all masked: true' "$srv_dir/run1.log"
grep -q 'guards fire at max rate: true' "$srv_dir/run1.log"
grep -q 'no request lost: true' "$srv_dir/run1.log"
srv_b="$(mktemp -d)"
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin exp_serving -- \
  --budget smoke --results-dir "$srv_b" > /dev/null
cmp "$srv_dir/serving.csv" "$srv_b/serving.csv"
RAYON_NUM_THREADS=8 cargo run -q --release -p sefi-experiments --bin exp_serving -- \
  --budget smoke --results-dir "$srv_dir" > "$srv_dir/run2.log"
grep -Eq 'serving +0 +24 +0' "$srv_dir/run2.log"
cmp <(grep -A6 'Flips/replica' "$srv_dir/run1.log") \
    <(grep -A6 'Flips/replica' "$srv_dir/run2.log")
rm -rf "$srv_dir" "$srv_b"

echo "== smoke campaign: fault isolation =="
# A deliberately failing trial (injected via the test-only SEFI_FAIL_TRIAL
# hook) must not kill the campaign: every other trial completes, the failure
# lands in the manifest and telemetry with its panic message, a plain re-run
# serves it from the manifest, and --retry-failed re-executes it cleanly.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
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
camp_dir="$(mktemp -d)"
cargo run -q --release -p sefi-bench --bin bench_campaign -- \
  --smoke --out "$camp_dir/bench.json" --assert-speedup 1.5 \
  --assert-trial-savings 0.30 --worker-bin target/release/sefi-campaign-worker
rm -rf "$camp_dir"

echo "== CI green =="
