//! The simulated MPI job: ranks, node placement, clocks, and collectives.
//!
//! Ranks are not threads — each rank is a clock. Computation and I/O
//! advance a rank's clock; barriers and collectives synchronise them. This
//! is exact for the bulk-synchronous checkpointing workloads the paper
//! evaluates.

/// Communication cost constants for collectives.
#[derive(Debug, Clone, Copy)]
pub struct CommCosts {
    /// Base latency of a collective (s).
    pub coll_base: f64,
    /// Additional latency per tree hop, multiplied by log2(ranks) (s).
    pub coll_per_hop: f64,
}

impl Default for CommCosts {
    fn default() -> Self {
        // Calibrated for a QDR InfiniBand MPI stack.
        CommCosts {
            coll_base: 5.0e-6,
            coll_per_hop: 2.0e-6,
        }
    }
}

/// A simulated MPI job: `ranks` processes packed `ppn` per node.
#[derive(Debug, Clone)]
pub struct Job {
    ranks: usize,
    ppn: usize,
    clocks: Vec<f64>,
    costs: CommCosts,
}

impl Job {
    /// Create a job of `ranks` processes with `ppn` processes per node,
    /// all clocks at zero.
    pub fn new(ranks: usize, ppn: usize) -> Job {
        assert!(ranks > 0 && ppn > 0, "job must have ranks and ppn");
        Job {
            ranks,
            ppn,
            clocks: vec![0.0; ranks],
            costs: CommCosts::default(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Processes per node.
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// Number of occupied nodes.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ppn)
    }

    /// Node hosting a rank (block placement, like `mpirun -bynode` off).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ppn
    }

    /// The lead (lowest) rank of each node — the default ROMIO aggregator
    /// set: one collective-buffering aggregator per distinct compute node.
    pub fn aggregator_ranks(&self) -> Vec<usize> {
        (0..self.nodes()).map(|n| n * self.ppn).collect()
    }

    /// Current clock of a rank.
    pub fn time(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// Set a rank's clock (monotonicity enforced).
    pub fn set_time(&mut self, rank: usize, t: f64) {
        debug_assert!(t >= self.clocks[rank] - 1e-12, "clock moved backwards");
        self.clocks[rank] = t;
    }

    /// Advance a rank by a compute phase.
    pub fn compute(&mut self, rank: usize, seconds: f64) {
        self.clocks[rank] += seconds;
    }

    /// Latency of one collective at this scale.
    pub fn collective_latency(&self) -> f64 {
        let hops = (self.ranks.max(2) as f64).log2();
        self.costs.coll_base + self.costs.coll_per_hop * hops
    }

    /// Barrier: all clocks jump to the max plus collective latency.
    /// Returns the release time.
    pub fn barrier(&mut self) -> f64 {
        let release = self.max_time() + self.collective_latency();
        for c in &mut self.clocks {
            *c = release;
        }
        release
    }

    /// Latest rank clock.
    pub fn max_time(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_block() {
        let j = Job::new(10, 4);
        assert_eq!(j.nodes(), 3);
        assert_eq!(j.node_of(0), 0);
        assert_eq!(j.node_of(3), 0);
        assert_eq!(j.node_of(4), 1);
        assert_eq!(j.node_of(9), 2, "partial last node");
    }

    #[test]
    fn one_aggregator_per_node() {
        let j = Job::new(10, 4);
        assert_eq!(j.aggregator_ranks(), vec![0, 4, 8]);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut j = Job::new(4, 2);
        j.compute(2, 5.0);
        let r = j.barrier();
        assert!(r > 5.0);
        for rank in 0..4 {
            assert_eq!(j.time(rank), r);
        }
    }

    #[test]
    fn collective_latency_grows_with_scale() {
        let small = Job::new(2, 1).collective_latency();
        let big = Job::new(4096, 12).collective_latency();
        assert!(big > small);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        Job::new(0, 1);
    }
}
