//! The one bounded FIFO behind every fixed-capacity queue in the model.
//!
//! The paper's router (Table 1) holds a 20-flit buffer per VC at each
//! input, a staging buffer per output VC, and pipelined links with credit
//! return. All four are the same structure: a FIFO whose capacity is set
//! by configuration and guaranteed by flow control. [`VcBuffer`] is that
//! FIFO — a `VecDeque` reserved to its capacity — and each user picks the
//! item it queues:
//!
//! * router input VCs hold `(arrival cycle, Flit)`;
//! * output staging buffers hold `(staging cycle, Flit)`;
//! * a [`crate::Link`] holds `(arrival cycle, Flit)`;
//! * a [`crate::CreditLink`] holds `(arrival cycle, VcId)`.
//!
//! Occupancy is governed by flow control (credits for the buffers, the
//! latency window for the links), so `push` overflowing indicates a
//! protocol bug and panics rather than dropping items. A snapshot that
//! claims more items than the capacity is rejected as corrupt.

use std::collections::VecDeque;

use netsim::snap::{SnapError, SnapReader, SnapWriter};

use crate::flit::Flit;

/// A FIFO with a fixed capacity, by default of flits.
///
/// # Example
///
/// ```
/// use flitnet::VcBuffer;
///
/// let mut buf: VcBuffer<u32> = VcBuffer::new(2);
/// buf.push(7);
/// buf.push(8);
/// assert!(buf.is_full());
/// assert_eq!(buf.pop(), Some(7));
/// assert_eq!(buf.head(), Some(&8));
/// ```
#[derive(Debug, Clone)]
pub struct VcBuffer<T = Flit> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> VcBuffer<T> {
    /// Creates an empty buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> VcBuffer<T> {
        assert!(capacity > 0, "a bounded FIFO must hold at least one item");
        VcBuffer {
            items: VecDeque::with_capacity(capacity),
            cap: capacity,
        }
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.cap
    }

    /// Appends an item.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — flow control must have prevented
    /// the send, so overflow is a simulator bug, not a network condition.
    pub fn push(&mut self, item: T) {
        assert!(
            !self.is_full(),
            "bounded FIFO overflow: flow control violated (capacity {})",
            self.cap
        );
        self.items.push_back(item);
    }

    /// The item at the head of the FIFO, if any.
    pub fn head(&self) -> Option<&T> {
        self.items.front()
    }

    /// Removes and returns the head item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Iterates over buffered items, head first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates mutably over buffered items, head first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Serialises the item count, then each item with `save` (not the
    /// capacity, which is configuration).
    pub fn save_with(&self, w: &mut SnapWriter, mut save: impl FnMut(&mut SnapWriter, &T)) {
        w.usize(self.items.len());
        for item in &self.items {
            save(w, item);
        }
    }

    /// Restores items saved by [`VcBuffer::save_with`] into this (empty)
    /// buffer, decoding each with `load`.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors; rejects a count beyond capacity with
    /// [`SnapError::BadValue`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not empty.
    pub fn load_with(
        &mut self,
        r: &mut SnapReader<'_>,
        mut load: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        assert!(self.is_empty(), "restore target FIFO must be empty");
        let n = r.usize()?;
        if n > self.cap {
            return Err(SnapError::BadValue("FIFO occupancy over capacity"));
        }
        for _ in 0..n {
            self.items.push_back(load(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut buf = VcBuffer::new(4);
        for i in 0..4u32 {
            buf.push(i);
        }
        assert!(buf.is_full());
        for i in 0..4 {
            assert_eq!(buf.pop(), Some(i));
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn head_peeks_without_removing() {
        let mut buf = VcBuffer::new(2);
        buf.push(9u32);
        assert_eq!(buf.head(), Some(&9));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut buf = VcBuffer::new(4);
        for i in 0..4u32 {
            buf.push(i);
        }
        buf.pop();
        buf.pop();
        buf.push(10);
        let mut w = SnapWriter::new();
        buf.save_with(&mut w, |w, &x| w.u32(x));
        let bytes = w.finish();
        let mut restored = VcBuffer::new(4);
        let mut r = SnapReader::new(&bytes).unwrap();
        restored.load_with(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();
        assert!(restored.iter().eq(buf.iter()));
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn overflow_panics() {
        let mut buf = VcBuffer::new(1);
        buf.push(0u32);
        buf.push(1);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_capacity_panics() {
        let _ = VcBuffer::<u32>::new(0);
    }
}
