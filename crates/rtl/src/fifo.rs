//! A synchronous FIFO model.
//!
//! The co-simulation bridge receives into one per direction. [`SyncFifo`]
//! models the *architectural* behaviour — bounded depth, full/empty flags,
//! overflow detection — at the granularity the co-simulation needs (one
//! push/pop per clock edge), without signal-level wires for the payload.

use std::collections::VecDeque;

/// A bounded synchronous FIFO.
#[derive(Debug, Clone)]
pub struct SyncFifo<T> {
    depth: usize,
    items: VecDeque<T>,
    /// Count of pushes rejected because the FIFO was full.
    overflows: u64,
    /// High-water mark of occupancy.
    max_occupancy: usize,
}

impl<T> SyncFifo<T> {
    /// Creates a FIFO with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> SyncFifo<T> {
        assert!(depth > 0, "FIFO depth must be nonzero");
        SyncFifo {
            depth,
            items: VecDeque::with_capacity(depth),
            overflows: 0,
            max_occupancy: 0,
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if another push would overflow.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.depth
    }

    /// Attempts to enqueue; returns `false` (and counts an overflow) when
    /// full. Real hardware would assert back-pressure here; callers that
    /// must not lose events check [`SyncFifo::is_full`] first.
    pub fn push(&mut self, item: T) -> bool {
        if self.is_full() {
            self.overflows += 1;
            return false;
        }
        self.items.push_back(item);
        self.max_occupancy = self.max_occupancy.max(self.items.len());
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of rejected pushes so far.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Highest occupancy observed — used to report required queue depths
    /// back to the marking model.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = SyncFifo::new(4);
        assert!(f.is_empty());
        for i in 0..4 {
            assert!(f.push(i));
        }
        assert!(f.is_full());
        assert_eq!(f.front(), Some(&0));
        assert_eq!(f.pop(), Some(0));
        assert_eq!(f.pop(), Some(1));
        assert!(f.push(4));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn overflow_is_counted_not_panicking() {
        let mut f = SyncFifo::new(2);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(!f.push(3));
        assert!(!f.push(4));
        assert_eq!(f.overflows(), 2);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn high_water_mark() {
        let mut f = SyncFifo::new(8);
        for i in 0..5 {
            f.push(i);
        }
        f.pop();
        f.pop();
        assert_eq!(f.max_occupancy(), 5);
        assert_eq!(f.len(), 3);
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_panics() {
        let _ = SyncFifo::<u8>::new(0);
    }
}
