//! FIFO resource queues — the building block of the timing model.
//!
//! Every contended resource (a disk lane, an I/O server, the MDS CPU, a
//! client's network link) is a queue: a request arriving at `t` with service
//! time `s` completes at `max(t, next_free) + s`. Requests must be issued in
//! non-decreasing arrival order per simulation (the engine guarantees this);
//! a late-issued earlier arrival simply queues behind, a documented
//! approximation.

/// A single-server FIFO queue.
#[derive(Debug, Clone, Default)]
pub struct SingleQueue {
    next_free: f64,
    busy: f64,
}

impl SingleQueue {
    /// New, idle queue.
    pub fn new() -> SingleQueue {
        SingleQueue::default()
    }

    /// Serve a request arriving at `arrival` needing `service` seconds.
    /// Returns the completion time.
    pub fn serve(&mut self, arrival: f64, service: f64) -> f64 {
        let start = arrival.max(self.next_free);
        self.next_free = start + service;
        self.busy += service;
        self.next_free
    }

    /// When the queue next becomes idle.
    pub fn next_free(&self) -> f64 {
        self.next_free
    }

    /// Total busy seconds served.
    pub fn busy_time(&self) -> f64 {
        self.busy
    }
}

/// A k-server FIFO queue (e.g. a RAID array's independent lanes, or a
/// server pool): each request takes the earliest-free lane.
#[derive(Debug, Clone)]
pub struct MultiQueue {
    lanes: Vec<f64>,
}

impl MultiQueue {
    /// A queue with `lanes` parallel servers.
    pub fn new(lanes: usize) -> MultiQueue {
        MultiQueue {
            lanes: vec![0.0; lanes.max(1)],
        }
    }

    /// Serve on the earliest-free lane; returns completion time.
    pub fn serve(&mut self, arrival: f64, service: f64) -> f64 {
        // Linear scan: lane counts are small (disks per server, servers).
        let (idx, _) = self
            .lanes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let start = arrival.max(self.lanes[idx]);
        self.lanes[idx] = start + service;
        self.lanes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_queue_serializes() {
        let mut q = SingleQueue::new();
        assert_eq!(q.serve(0.0, 1.0), 1.0);
        assert_eq!(q.serve(0.0, 1.0), 2.0, "second request queues");
        assert_eq!(q.serve(5.0, 1.0), 6.0, "idle gap not charged");
        assert!((q.busy_time() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_queue_backlog() {
        let mut q = SingleQueue::new();
        q.serve(0.0, 2.0);
        // An arrival at 0.5 waits out 1.5 s of backlog; one at 10 none.
        assert_eq!(q.serve(0.5, 1.0), 3.0);
        assert_eq!(q.serve(10.0, 1.0), 11.0);
    }

    #[test]
    fn multi_queue_parallelism() {
        let mut q = MultiQueue::new(2);
        assert_eq!(q.serve(0.0, 1.0), 1.0);
        assert_eq!(q.serve(0.0, 1.0), 1.0, "second lane");
        assert_eq!(q.serve(0.0, 1.0), 2.0, "third request waits");
    }

    #[test]
    fn multi_queue_picks_earliest_lane() {
        let mut q = MultiQueue::new(2);
        q.serve(0.0, 5.0); // lane 0 busy until 5
        q.serve(0.0, 1.0); // lane 1 busy until 1
        assert_eq!(q.serve(1.0, 1.0), 2.0, "goes to lane 1");
    }

    #[test]
    fn zero_lane_queue_clamps_to_one() {
        let mut q = MultiQueue::new(0);
        assert_eq!(q.serve(0.0, 1.0), 1.0);
        assert_eq!(q.serve(0.0, 1.0), 2.0, "one lane");
    }
}
