//! Allocation regression: a trial's inject → restore → scan path must do
//! work proportional to its flips and entries, not allocate per tensor or
//! per path. A counting global allocator (this test binary only) counts
//! the allocator calls each step makes on the current thread.

use sefi_core::{Corrupter, CorrupterConfig};
use sefi_float::Precision;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::Dtype;
use sefi_models::{ModelConfig, ModelKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly `System`'s; counting
// touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

fn session(fw: FrameworkKind, model: ModelKind) -> Session {
    let mut cfg = SessionConfig::new(fw, model, 7);
    cfg.model_config = ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 };
    Session::new(cfg)
}

/// Tensors a session's restore walks.
fn tensor_count(s: &mut Session) -> usize {
    let mut n = 0;
    s.network_mut().visit_tensors_mut(|_, _, _| n += 1);
    n
}

#[test]
fn restore_and_scan_allocate_a_constant_not_per_tensor() {
    for fw in FrameworkKind::all() {
        let mut per_model = Vec::new();
        for model in [ModelKind::AlexNet, ModelKind::ResNet50] {
            let mut s = session(fw, model);
            let file = s.checkpoint(Dtype::F64);
            let tensors = tensor_count(&mut s);
            s.restore(&file).unwrap(); // warm-up
            let (n, nev) = calls(|| {
                s.restore(&file).unwrap();
                s.weights_have_nev()
            });
            assert!(!nev);
            per_model.push((model, tensors, n));
        }
        let (_, alex_tensors, alex) = per_model[0];
        let (_, resnet_tensors, resnet) = per_model[1];
        assert!(resnet_tensors > 10 * alex_tensors, "{per_model:?}");
        // ResNet50 walks twenty times AlexNet's tensors for the same
        // handful of buffers: the restore's source list, its path buffer,
        // the lookup's path and group stack, and for TensorFlow the reorder
        // scratch growing to the largest kernel.
        assert!(resnet <= alex + 4 && resnet <= 16, "{fw:?}: {per_model:?}");
    }
}

#[test]
fn corrupt_allocates_one_record_per_injection() {
    let mut s = session(FrameworkKind::Chainer, ModelKind::ResNet50);
    let pristine = s.checkpoint(Dtype::F64);
    let datasets = pristine.dataset_paths().len();
    assert!(datasets > 300);
    for flips in [10, 1000] {
        let corrupter =
            Corrupter::new(CorrupterConfig::bit_flips_full_range(flips, Precision::Fp64, 3))
                .unwrap();
        let mut file = pristine.clone();
        // Copy-on-write: the first flip into a dataset copies its payload.
        // Pre-touch every dataset so the count is the injector's own.
        for p in &pristine.dataset_paths() {
            let ds = file.dataset_mut(p).unwrap();
            let bits = ds.get_bits(0).unwrap();
            ds.set_bits(0, bits).unwrap();
        }
        let (n, report) = calls(|| corrupter.corrupt(&mut file).unwrap());
        assert_eq!(report.injections, flips);
        // One location string per record, plus a constant (and the
        // logarithmic growth of the record list and the path table) —
        // nothing per dataset of the 300+ the injector resolves.
        assert!(n as u64 <= flips + 40, "{flips} flips, {datasets} datasets: {n} allocator calls");
    }
}
