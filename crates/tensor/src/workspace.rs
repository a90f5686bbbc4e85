//! Reusable kernel workspaces: steady-state training performs zero heap
//! allocations *inside* the kernels.
//!
//! Two kinds of scratch memory exist:
//!
//! * **GEMM pack buffers** — thread-local, grown high-water-mark style on
//!   first use and reused by every subsequent product on that thread.
//! * **[`ConvWorkspace`]** — owned by each convolution layer and threaded
//!   through `conv2d_ws`/`conv2d_backward_ws`, so the backward pass reuses
//!   the forward pass's im2col columns instead of recomputing them, and all
//!   intermediate buffers (columns, gradient columns, permuted upstream
//!   gradient, GEMM product) survive across steps.
//!
//! All workspace buffers are [`AVec`]s: 64-byte-aligned so the SIMD
//! microkernels can use aligned vector loads on packed panels. The kernels
//! debug-assert that alignment at entry, so a regression to unaligned
//! buffers fails loudly instead of silently degrading.
//!
//! Every buffer growth bumps a global counter ([`workspace_alloc_events`]);
//! tests assert it stays flat once shapes have been seen, which is the
//! "no per-step kernel allocations" guarantee.

use crate::conv::ConvSpec;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workspace buffer (re)allocations since process start.
static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

/// How many times any kernel workspace buffer had to grow. Constant between
/// two points in time ⇒ every kernel call in between ran allocation-free
/// (workspace-wise).
pub fn workspace_alloc_events() -> usize {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Alignment (bytes) of every workspace buffer: one AVX-512 vector.
pub(crate) const WS_ALIGN: usize = 64;

/// A grow-once `f32` buffer whose data pointer is 64-byte aligned.
///
/// Built on a plain `Vec<f32>` over-allocated by one vector's worth of
/// elements; the aligned window starts at a computed offset. Growth
/// preserves the existing prefix (like `Vec::resize`) and counts one
/// [`workspace_alloc_events`] event. Dereferences to `[f32]` of the
/// high-water-mark length.
#[derive(Debug, Default)]
pub(crate) struct AVec {
    raw: Vec<f32>,
    off: usize,
    len: usize,
}

impl AVec {
    /// An empty buffer (const so thread-locals can use const-init).
    pub(crate) const fn new() -> Self {
        AVec { raw: Vec::new(), off: 0, len: 0 }
    }

    /// Grow to at least `need` elements (zero-filling new space,
    /// preserving existing contents), counting the growth event.
    /// Never shrinks: the high-water mark is the steady state.
    pub(crate) fn ensure(&mut self, need: usize) {
        if self.len >= need {
            return;
        }
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        let pad = WS_ALIGN / std::mem::size_of::<f32>();
        let mut raw = vec![0.0f32; need + pad];
        // `Vec<f32>` is 4-byte aligned, so the byte distance to the next
        // 64-byte boundary is always a whole number of elements.
        let addr = raw.as_ptr() as usize;
        let off = (WS_ALIGN - addr % WS_ALIGN) % WS_ALIGN / std::mem::size_of::<f32>();
        raw[off..off + self.len].copy_from_slice(&self.raw[self.off..self.off + self.len]);
        self.raw = raw;
        self.off = off;
        self.len = need;
        debug_assert_eq!(self.as_ptr() as usize % WS_ALIGN, 0);
    }

    /// Heap bytes currently retained.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.raw.capacity() * std::mem::size_of::<f32>()
    }
}

impl Deref for AVec {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.raw[self.off..self.off + self.len]
    }
}

impl DerefMut for AVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.raw[self.off..self.off + self.len]
    }
}

/// Grow `buf` to at least `need` elements, counting the growth event.
pub(crate) fn ensure(buf: &mut AVec, need: usize) {
    buf.ensure(need);
}

struct GemmBuffers {
    a_pack: AVec,
    b_pack: AVec,
}

thread_local! {
    static GEMM_WS: RefCell<GemmBuffers> =
        const { RefCell::new(GemmBuffers { a_pack: AVec::new(), b_pack: AVec::new() }) };
}

/// Borrow this thread's pack buffers, grown to the requested lengths.
/// Both slices start 64-byte aligned.
pub(crate) fn with_gemm_ws<R>(
    a_need: usize,
    b_need: usize,
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    GEMM_WS.with(|cell| {
        let mut ws = cell.borrow_mut();
        ws.a_pack.ensure(a_need);
        ws.b_pack.ensure(b_need);
        let GemmBuffers { a_pack, b_pack } = &mut *ws;
        f(&mut a_pack[..a_need], &mut b_pack[..b_need])
    })
}

/// The geometry a [`ConvWorkspace`]'s column buffer was filled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvKey {
    pub(crate) x_shape: [usize; 4],
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) spec: ConvSpec,
}

/// Per-layer convolution scratch memory (see module docs). Create one per
/// conv layer and pass it to both `conv2d_ws` and `conv2d_backward_ws`.
/// All buffers are 64-byte aligned.
#[derive(Debug, Default)]
pub struct ConvWorkspace {
    /// im2col columns of the last forward input, stored tap-major
    /// (`[c*kh*kw, n*oh*ow]`) so no GEMM consuming them needs a transpose.
    pub(crate) cols: AVec,
    /// Gradient columns (backward dX path; tap-major for stride 1,
    /// patch-major otherwise).
    pub(crate) dcols: AVec,
    /// Upstream gradient flattened patch-major to `[n*oh*ow, o]`.
    pub(crate) dflat: AVec,
    /// Upstream gradient gathered channel-major to `[o, n*oh*ow]`.
    pub(crate) dflat_t: AVec,
    /// Forward GEMM product `[o, n*oh*ow]` before the NCHW permute; the
    /// backward pass reuses it for the transposed weight gradient.
    pub(crate) prod: AVec,
    /// Geometry `cols` currently holds, if any.
    pub(crate) key: Option<ConvKey>,
}

/// A clone is an *empty* workspace. Scratch is not layer state: a cloned
/// layer refills its columns on its first forward, with identical results.
/// A field-wise copy would also break the alignment invariant, because
/// each `AVec`'s aligned-window offset is only valid for the allocation
/// it was computed on.
impl Clone for ConvWorkspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl ConvWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the record of what `cols` holds (e.g. after the input tensor it
    /// was computed from has been mutated). Buffers stay allocated.
    pub fn invalidate(&mut self) {
        self.key = None;
    }

    /// Bytes currently retained across steps.
    pub fn retained_bytes(&self) -> usize {
        self.cols.retained_bytes()
            + self.dcols.retained_bytes()
            + self.dflat.retained_bytes()
            + self.dflat_t.retained_bytes()
            + self.prod.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_ws_grows_once_per_high_water_mark() {
        // Use shapes no other test uses to keep the counter readable.
        let before = workspace_alloc_events();
        with_gemm_ws(977, 1009, |a, b| {
            assert_eq!(a.len(), 977);
            assert_eq!(b.len(), 1009);
        });
        let grown = workspace_alloc_events();
        assert!(grown > before);
        with_gemm_ws(977, 1009, |_, _| {});
        with_gemm_ws(100, 200, |a, b| {
            assert_eq!(a.len(), 100);
            assert_eq!(b.len(), 200);
        });
        assert_eq!(workspace_alloc_events(), grown, "re-use must not reallocate");
    }

    #[test]
    fn gemm_ws_buffers_are_64_byte_aligned() {
        with_gemm_ws(33, 77, |a, b| {
            assert_eq!(a.as_ptr() as usize % WS_ALIGN, 0);
            assert_eq!(b.as_ptr() as usize % WS_ALIGN, 0);
        });
    }

    #[test]
    fn avec_growth_preserves_prefix_and_alignment() {
        let mut v = AVec::new();
        v.ensure(10);
        for (i, x) in v.iter_mut().enumerate() {
            *x = i as f32;
        }
        v.ensure(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.as_ptr() as usize % WS_ALIGN, 0);
        for (i, &x) in v.iter().enumerate().take(10) {
            assert_eq!(x, i as f32, "growth must preserve existing contents");
        }
        assert_eq!(v[10], 0.0);
    }

    #[test]
    fn conv_workspace_reports_retention() {
        let mut ws = ConvWorkspace::new();
        assert_eq!(ws.retained_bytes(), 0);
        ensure(&mut ws.cols, 64);
        assert!(ws.retained_bytes() >= 64 * 4);
        assert_eq!(ws.cols.as_ptr() as usize % WS_ALIGN, 0);
        // A clone carries no scratch; it regrows (aligned) on first use.
        assert_eq!(ws.clone().retained_bytes(), 0);
        ws.invalidate();
        assert!(ws.key.is_none());
    }
}
