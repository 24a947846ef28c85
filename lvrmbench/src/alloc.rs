//! A counting global allocator with per-thread attribution.
//!
//! The driver thread counts its own allocations in a thread-local; every
//! other thread (in this benchmark: the VRI threads `ThreadHost` spawns)
//! counts into one shared atomic. Counting is off until [`enable`], so the
//! untraced run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static OTHER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// 0: other thread; 1: driver, counting; 2: driver, paused.
    static ROLE: Cell<u8> = const { Cell::new(0) };
    static DRIVER: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread's locals may already be gone while it exits.
    match ROLE.try_with(|r| r.get()) {
        Ok(1) => {
            let _ = DRIVER.try_with(|d| d.set(d.get() + 1));
        }
        Ok(2) => {}
        _ => {
            // Relaxed: a statistic, publishes no other data.
            OTHER.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches no allocated memory and
// itself never allocates (const-initialised thread-locals, one atomic).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations for `layout` pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Mark the calling thread as the driver.
pub fn mark_driver() {
    ROLE.with(|r| r.set(1));
}

/// Stop or resume counting the driver's allocations (for the bench's own
/// sampling, which is not part of the loop under test).
pub fn pause_driver(paused: bool) {
    ROLE.with(|r| {
        if r.get() != 0 {
            r.set(if paused { 2 } else { 1 });
        }
    });
}

/// Allocations made by the calling driver thread while counting was on.
pub fn driver_count() -> u64 {
    DRIVER.with(|d| d.get())
}

/// Allocations made by every other thread while counting was on.
pub fn other_count() -> u64 {
    OTHER.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_on_the_driver_thread() {
        enable(true);
        mark_driver();
        let before = driver_count();
        let b = std::hint::black_box(Box::new([7u8; 100]));
        assert_eq!(driver_count() - before, 1);
        drop(b);
        pause_driver(true);
        let v = std::hint::black_box(vec![1u32; 10]);
        assert_eq!(driver_count() - before, 1, "paused: not counted");
        drop(v);
        pause_driver(false);
    }

    #[test]
    fn other_threads_count_into_the_shared_counter() {
        enable(true);
        let before = other_count();
        std::thread::spawn(|| {
            let before_local = driver_count();
            for i in 0..50 {
                std::hint::black_box(Box::new(i));
            }
            assert_eq!(driver_count(), before_local, "not the driver");
        })
        .join()
        .expect("allocating thread");
        assert!(other_count() - before >= 50);
    }
}
