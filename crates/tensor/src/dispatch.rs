//! Kernel-generation dispatch and per-op parallelism thresholds.
//!
//! Three kernel generations coexist:
//!
//! * **Simd** (default) — the blocked, packed, register-tiled GEMM of
//!   [`crate::kernel`] driving the runtime-dispatched AVX-512/AVX2
//!   broadcast-FMA microkernels of [`crate::simd`], plus
//!   workspace-reusing convolutions. On hosts without AVX2 the same
//!   driver runs the scalar lane-emulating microkernels, which produce
//!   identical bits (see DESIGN.md §6).
//! * **Tiled** — the same blocked/packed driver forced onto the scalar
//!   lane-emulating microkernels regardless of host features. This is
//!   the portable reference implementation of the lane-stable contract.
//! * **Naive** — simple triple-loop kernels restating each element's
//!   chain with no blocking at all. All three modes are property-tested
//!   to be *bit-identical*.
//!
//! The mode is selected once per process from the `SEFI_KERNELS`
//! environment variable (`simd` | `tiled` | `naive`) and can be
//! overridden at run time with [`set_kernel_mode`] — benches use this to
//! measure the generations in one binary, and experiment tests use it to
//! assert that campaign results do not depend on the kernel generation.

use crate::simd::{active_isa, Isa};
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel generation executes tensor ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Blocked/packed kernels on the widest ISA the host supports
    /// (AVX-512 → AVX2+FMA → scalar lane emulation), workspace reuse.
    Simd,
    /// The same blocked/packed driver pinned to the scalar
    /// lane-emulating microkernels (portable reference).
    Tiled,
    /// Unblocked triple-loop kernels restating the same per-element
    /// accumulation chains (the auditability baseline).
    Naive,
}

/// 0 = uninitialized, 1 = simd, 2 = tiled, 3 = naive.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The active kernel generation.
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Simd,
        2 => KernelMode::Tiled,
        3 => KernelMode::Naive,
        _ => {
            let mode = match std::env::var("SEFI_KERNELS").as_deref() {
                Ok("naive") => KernelMode::Naive,
                Ok("tiled") => KernelMode::Tiled,
                _ => KernelMode::Simd,
            };
            set_kernel_mode(mode);
            mode
        }
    }
}

/// Force a kernel generation for the rest of the process (overrides the
/// `SEFI_KERNELS` environment variable).
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(
        match mode {
            KernelMode::Simd => 1,
            KernelMode::Tiled => 2,
            KernelMode::Naive => 3,
        },
        Ordering::Relaxed,
    );
}

/// The microkernel ISA a blocked-path mode runs on: `Simd` takes the
/// widest ISA the host offers, `Tiled` pins the scalar lane emulation.
/// (`Naive` never reaches the blocked driver.)
pub(crate) fn mode_isa(mode: KernelMode) -> Isa {
    match mode {
        KernelMode::Simd => active_isa(),
        KernelMode::Tiled | KernelMode::Naive => Isa::Scalar,
    }
}

/// True when parallel dispatch can help at all: more than one rayon worker.
/// On a single-core host every op stays on the serial path, which also keeps
/// steady-state training free of the per-dispatch chunk allocations the
/// thread-pool shim makes.
pub(crate) fn par_enabled() -> bool {
    rayon::current_num_threads() > 1
}

// Per-op parallel-dispatch thresholds, calibrated per op from
// `bench_kernels` timings (see DESIGN.md "Kernel architecture"): an op goes
// parallel when its serial cost clearly exceeds a few thread-dispatch
// round-trips. They were tuned when the shim spawned scoped threads per
// dispatch: a 2-item dispatch on 2 threads then cost ~65 µs, of which
// ~20 µs was re-reading the host core count. The persistent pool brought
// it to ~1 µs (`par_dispatch_2` in BENCH_kernels.json, DESIGN.md §8), so
// the crossovers below are probably higher than they need to be; retuning
// them against the new cost is left for a follow-up. The SIMD microkernels
// retired ~3x more flops per cycle than the scalar tiled generation they
// replaced, so the GEMM/im2col/col2im crossovers moved up by about that
// factor — a problem that amortized the dispatch cost at 38 GFLOPS no
// longer does at 110.

/// GEMM flops (`2·m·n·k` halved to `m·n·k` for comparison with the old
/// constant) above which row-blocks are distributed over the pool.
/// Was `48³` for the scalar tiled kernels.
pub(crate) const PAR_GEMM_MIN_FLOPS: usize = 72 * 72 * 72;

/// `im2col` output elements above which patch rows are written in parallel
/// (stride-1 lanes are now `memcpy`s, so serial fills got cheaper).
pub(crate) const PAR_IM2COL_MIN_ELEMS: usize = 1 << 16;

/// `col2im` *input-gradient* elements above which per-image scatters run in
/// parallel (the scatter is independent per image, never across images).
/// The contiguous tap adds are vectorized, halving the serial cost.
pub(crate) const PAR_COL2IM_MIN_ELEMS: usize = 1 << 16;

/// Pooling elements (input side) above which per-plane kernels run in
/// parallel.
pub(crate) const PAR_POOL_MIN_ELEMS: usize = 1 << 15;

/// GEMM flops (`m·n·k`) at or below which the no-pack block kernel is used:
/// for problems this small the packed path's extra passes over A and B cost
/// more than the cache locality they buy. Small conv layers (a handful of
/// output channels over a few thousand patch rows) live well below this.
/// The no-pack kernel vectorized along with the packed one, so the
/// crossover stayed put.
pub(crate) const SMALL_GEMM_MAX_FLOPS: usize = 1 << 19;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip() {
        let initial = kernel_mode();
        set_kernel_mode(KernelMode::Naive);
        assert_eq!(kernel_mode(), KernelMode::Naive);
        set_kernel_mode(KernelMode::Tiled);
        assert_eq!(kernel_mode(), KernelMode::Tiled);
        set_kernel_mode(KernelMode::Simd);
        assert_eq!(kernel_mode(), KernelMode::Simd);
        set_kernel_mode(initial);
    }

    #[test]
    fn tiled_mode_pins_scalar_isa() {
        assert_eq!(mode_isa(KernelMode::Tiled), Isa::Scalar);
        assert_eq!(mode_isa(KernelMode::Naive), Isa::Scalar);
    }
}
