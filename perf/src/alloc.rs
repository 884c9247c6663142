//! Counting global allocator: allocator calls and live-byte peak, recorded
//! only inside a window.
//!
//! The `micro_components` bench counts calls around one front-end
//! function; here the window spans a whole driver call (all its threads)
//! or, in the single-threaded traced replay, one layer call. Outside a
//! window every allocator entry point costs one relaxed load, so timed
//! repetitions are not perturbed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since the window opened. Signed:
/// blocks allocated before the window may be freed inside it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// All counters are statistics that publish no other data: `Relaxed`.
#[inline]
fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

/// What one window saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls (frees are not counted).
    pub calls: u64,
    /// Highest live-byte level above the level at which the window opened.
    pub peak_bytes: u64,
}

/// Run `f` inside a counting window that covers every thread `f` starts
/// and joins. Windows do not nest.
pub fn counted<R>(f: impl FnOnce() -> R) -> (AllocStats, R) {
    CALLS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let r = f();
    ON.store(false, Ordering::SeqCst);
    let stats = AllocStats {
        calls: CALLS.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (stats, r)
}

/// Allocator calls so far in the open window (the traced replay reads this
/// around each layer call).
#[inline]
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
