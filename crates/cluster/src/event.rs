//! The discrete-event core: timestamped events on a virtual clock.
//!
//! The engine is deliberately minimal — a binary heap of events ordered by
//! `(time, sequence)` — in the style of dslab's `SimulationState`.  Virtual
//! time is an `f64` in seconds; there is **no wall clock anywhere** in the
//! simulator, so a run is a pure function of its inputs and two runs with
//! the same seed produce bit-identical traces (the determinism tests assert
//! exactly that).  Ties in time are broken by the monotonically increasing
//! sequence number assigned at push, so simultaneous events fire in the
//! order they were scheduled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened (or is scheduled to happen) at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job enters the system and joins the dispatch queue.
    JobArrival {
        /// Index of the arriving job in the workload.
        job: usize,
    },
    /// A QPU finishes serving a job.
    JobCompletion {
        /// The serving device.
        qpu: usize,
        /// The finished job.
        job: usize,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time in seconds.
    pub time: f64,
    /// Scheduling sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

impl Eq for Event {}

// BinaryHeap is a max-heap; invert the ordering so the earliest event pops
// first.  `total_cmp` keeps the order total even if a NaN ever slipped in.
//
// This `(time, seq)` ordering is the workspace's canonical pattern for
// comparing simulation floats (rule D003 in `docs/LINTING.md` points
// here): `f64::total_cmp` never panics and ranks NaN greatest, and the
// integer `seq` tiebreak makes equal-time pops deterministic.  Never use
// `partial_cmp(..).unwrap()` on sim-side floats.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The future-event list: a min-heap on `(time, seq)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue whose heap is pre-sized for `capacity` events.
    ///
    /// The dispatch loop's allocation budget (see
    /// `crates/cluster/tests/alloc_budget.rs`) requires that steady-state
    /// `schedule` calls never grow the heap, so the engine sizes the queue
    /// for the whole run up front: one arrival per job plus one in-flight
    /// completion per device.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedule `kind` at absolute virtual time `time`.
    ///
    /// # Panics
    /// Panics on a non-finite timestamp — a NaN/infinite service time is a
    /// modeling bug that must not silently scramble the event order.
    // sx-lint: hot-root -- called once per scheduled event inside the dispatch loop
    pub fn schedule(&mut self, time: f64, kind: EventKind) -> Event {
        assert!(time.is_finite(), "non-finite event time {time}");
        let event = Event {
            time,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        self.heap.push(event);
        event
    }

    /// Pop the earliest event, if any.
    // sx-lint: hot-root -- the dispatch loop's main ratchet: one pop per event
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, EventKind::JobArrival { job: 2 });
        q.schedule(1.0, EventKind::JobArrival { job: 0 });
        q.schedule(2.0, EventKind::JobArrival { job: 1 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for job in 0..5 {
            q.schedule(1.0, EventKind::JobArrival { job });
        }
        let jobs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::JobArrival { job } => job,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(jobs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn queue_length_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(0.5, EventKind::JobCompletion { qpu: 0, job: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_times_are_rejected() {
        EventQueue::new().schedule(f64::NAN, EventKind::JobArrival { job: 0 });
    }
}
