//! The harness's counting global allocator.
//!
//! The bench library installs [`CountingAlloc`] globally (see the crate
//! root), and `harness bench` wraps each measured inference burst in
//! [`count_allocations`] to certify the zero-allocation steady-state
//! datapath. The counter itself lives in `shidiannao_core::alloc_count`,
//! shared with the core crate's own allocation tests.

pub use shidiannao_core::alloc_count::{allocation_count, count_allocations, CountingAlloc};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let a = allocation_count();
        let v: Vec<u64> = (0..100).collect();
        let b = allocation_count();
        // The bench library installs CountingAlloc globally, so the Vec
        // above must have been counted.
        assert!(b > a, "allocation went uncounted");
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn count_allocations_sees_zero_for_pure_code() {
        let (allocs, sum) = count_allocations(|| (0u64..64).sum::<u64>());
        assert_eq!(allocs, 0);
        assert_eq!(sum, 2016);
    }

    #[test]
    fn zeroed_allocations_are_counted() {
        let (allocs, v) = count_allocations(|| vec![0u64; 1024]);
        assert!(allocs >= 1, "alloc_zeroed went uncounted");
        assert_eq!(v.len(), 1024);
    }

    #[test]
    fn other_threads_do_not_leak_into_the_count() {
        let (allocs, v) = count_allocations(|| {
            std::thread::spawn(|| (0..1000).map(|i| vec![i; 16]).collect::<Vec<_>>().len())
                .join()
                .expect("worker runs")
        });
        assert_eq!(v, 1000);
        // Spawning and joining allocate a handful of times on this
        // thread; the worker's thousand vectors must not be counted.
        assert!(allocs < 100, "counted {allocs} allocations");
    }
}
