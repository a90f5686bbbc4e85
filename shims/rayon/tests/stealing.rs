//! Order preservation under work stealing, and the persistent worker pool.
//!
//! The shim claims items dynamically (grain 1) from a shared cursor, so
//! which worker computes which item — and in what order workers finish —
//! depends on timing. These tests force workers to finish out of input
//! order (early items sleep, late items return instantly) and assert the
//! assembled results still match sequential order exactly. The pool tests
//! check that helpers are reused rather than respawned, that a panic
//! leaves the pool usable, and that concurrent callers stay correct.
//!
//! This file is an integration test so it owns its process: it sets
//! `RAYON_NUM_THREADS` (the shim reads it per dispatch) without racing the
//! in-crate unit tests, and a forced thread count is required at all —
//! on a single-core host the dispatcher would otherwise take the
//! sequential path and never steal. The variable is process-global and
//! the pool runs one job at a time (a dispatch that finds it busy runs
//! inline), so every test serializes on [`ENV_LOCK`].

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `RAYON_NUM_THREADS=n`, restoring the environment after.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let r = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    r
}

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9).rotate_left(7)
}

/// Distinct threads that ran the items of `dispatches` 64-item dispatches.
/// Each item does a few microseconds of work, so every participant the
/// pool wakes has time to claim some.
fn dispatch_thread_ids(dispatches: usize) -> HashSet<ThreadId> {
    let mut ids = HashSet::new();
    for _ in 0..dispatches {
        let run: Vec<(ThreadId, u64)> = (0..64u64)
            .into_par_iter()
            .map(|i| (std::thread::current().id(), (0..2000).fold(i, |a, _| mix(a))))
            .collect();
        ids.extend(run.into_iter().map(|(id, _)| id));
    }
    ids
}

/// Two items that each wait (up to 10 s) for the other to start: both
/// return true only when two participants ran them at the same time, so a
/// dispatch that silently ran inline fails instead of passing.
fn rendezvous_pair() -> Vec<bool> {
    let arrived = Mutex::new(0usize);
    let cv = Condvar::new();
    (0..2usize)
        .into_par_iter()
        .map(|_| {
            let mut n = arrived.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let (n, _) = cv.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2).unwrap();
            *n == 2
        })
        .collect()
}

#[test]
fn results_stay_in_input_order_when_workers_finish_out_of_order() {
    // Item 0 is by far the slowest: with static chunking the first worker
    // would hold a whole prefix hostage; with stealing, workers race past
    // it and finish items in a scrambled temporal order. The output must
    // be positionally ordered regardless.
    let completion: Vec<usize> = Vec::new();
    let completion = std::sync::Mutex::new(completion);
    let out: Vec<usize> = with_threads(4, || {
        (0..32usize)
            .into_par_iter()
            .map(|i| {
                if i < 4 {
                    std::thread::sleep(Duration::from_millis(30 - 5 * i as u64));
                }
                completion.lock().unwrap().push(i);
                i * 10
            })
            .collect()
    });
    assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    let completed = completion.into_inner().unwrap();
    assert_eq!(completed.len(), 32);
    // Sanity that stealing actually happened: at 4 threads with item 0
    // sleeping 30ms, some later item must have completed before it.
    assert_ne!(completed, (0..32).collect::<Vec<_>>(), "no out-of-order completion observed");
}

#[test]
fn every_item_is_claimed_exactly_once() {
    let claims = AtomicUsize::new(0);
    let out: Vec<usize> = with_threads(8, || {
        (0..1000usize)
            .into_par_iter()
            .map(|i| {
                claims.fetch_add(1, Ordering::Relaxed);
                i + 1
            })
            .collect()
    });
    assert_eq!(claims.load(Ordering::Relaxed), 1000);
    assert_eq!(out, (1..=1000).collect::<Vec<_>>());
}

#[test]
fn output_is_identical_across_thread_counts() {
    // Growing the pool to 8 and then asking for 3 must not let the extra
    // helpers join: at most `threads` participants per dispatch.
    let run = || -> Vec<u64> { (0..257u64).into_par_iter().map(mix).collect() };
    let reference = with_threads(1, run);
    for threads in [2, 8, 3] {
        let (out, ids) = with_threads(threads, || (run(), dispatch_thread_ids(50)));
        assert_eq!(out, reference, "threads={threads}");
        assert!(ids.len() <= threads, "threads={threads}: {} participants", ids.len());
    }
}

#[test]
fn panicking_item_propagates_after_drain() {
    with_threads(4, || {
        let ran = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 5 {
                    panic!("boom at 5");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        })
        .expect_err("the item's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom at 5"));
        assert_eq!(ran.load(Ordering::Relaxed), 63, "every other item still ran");

        // The pool stays usable: the next top-level dispatch still fans
        // out, with correct results.
        assert_eq!(rendezvous_pair(), [true, true], "dispatch after a panic ran inline");
        let out: Vec<u64> = (0..257u64).into_par_iter().map(mix).collect();
        assert_eq!(out, (0..257u64).map(mix).collect::<Vec<_>>());
    });
}

#[test]
fn helpers_are_reused_across_dispatches() {
    let ids = with_threads(4, || dispatch_thread_ids(200));
    assert!(ids.len() <= 4, "{} distinct threads ran 200 dispatches at 4 threads", ids.len());
}

#[test]
fn concurrent_callers_get_positional_results() {
    let expected: Vec<u64> = (0..257u64).map(mix).collect();
    with_threads(2, || {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..300 {
                            let out: Vec<u64> = (0..257u64).into_par_iter().map(mix).collect();
                            assert_eq!(out, expected);
                        }
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller thread finished without panicking");
            }
        });
    });
}
