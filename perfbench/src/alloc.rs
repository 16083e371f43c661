//! A counting `#[global_allocator]`: heap peak, allocation count and
//! allocated bytes of one closure, measured from outside the program.
//!
//! Counting is off except inside [`measure`], so timed passes pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The system allocator with counters in front of it.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the level when counting was switched on
/// (negative while the closure has freed more than it allocated).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The counters publish no other data, so every access is `Relaxed`.
fn grew(size: usize) {
    if ON.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, and
        // this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one closure did to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// Highest live-byte level above the level at entry.
    pub peak_bytes: u64,
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested over all allocation calls.
    pub bytes: u64,
}

/// Runs `f` with counting on. Not reentrant and process-wide: call it
/// from one thread at a time (the benchmark has one).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let used = HeapUse {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the counters are process-wide and the test
    // harness runs tests on parallel threads.
    #[test]
    fn counts_peak_allocs_and_bytes_of_the_closure_only() {
        let (kept, used) = measure(|| {
            let a = vec![1u8; 3 << 20];
            let b = vec![2u8; 2 << 20];
            drop(a);
            let c = vec![3u8; 1 << 20];
            (b, c)
        });
        // Other test threads may allocate meanwhile, so bounds, not equality.
        assert!(used.peak_bytes >= 5 << 20, "{used:?}");
        assert!(used.peak_bytes < 7 << 20, "{used:?}");
        assert!(used.allocs >= 3, "{used:?}");
        assert!(used.bytes >= 6 << 20, "{used:?}");
        assert_eq!(kept.0.len() + kept.1.len(), 3 << 20);
        let ((), idle) = measure(|| {});
        assert!(idle.peak_bytes < 1 << 16, "{idle:?}");
    }
}
