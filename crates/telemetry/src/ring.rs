//! Bounded in-memory event ring: O(1) append, oldest-first eviction with a
//! dropped counter, so a long run can never grow without bound.

use crate::event::EventRecord;
use std::collections::VecDeque;

/// A bounded FIFO of [`EventRecord`]s. When full, pushing evicts the
/// oldest record and counts it as dropped.
#[derive(Clone, Debug)]
pub struct EventRing {
    cap: usize,
    buf: VecDeque<EventRecord>,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` records (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be positive");
        EventRing {
            cap,
            buf: VecDeque::with_capacity(cap.min(1024)),
            dropped: 0,
        }
    }

    /// Append, evicting the oldest record if full.
    pub fn push(&mut self, rec: EventRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (capacity and drop counter reset too).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FaultEvent, FaultKind};

    fn rec(seq: u64) -> EventRecord {
        EventRecord {
            seq,
            t_sim_secs: seq as f64,
            kind: EventKind::Fault(FaultEvent {
                step: seq,
                kind: FaultKind::Retry { retries: 1 },
            }),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for s in 0..5 {
            r.push(rec(s));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }
}
