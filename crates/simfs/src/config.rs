//! Configuration of the simulated platform: cluster and file system.
//!
//! The knobs here correspond to Table I of the paper plus the handful of
//! behavioural parameters the shapes in Figs 3–5 depend on (client
//! write-back cache, lock semantics, metadata service). Calibrated values
//! for the two testbeds live in [`crate::presets`].

/// Byte-size helpers.
pub mod units {
    /// Kibibyte.
    pub const KIB: u64 = 1 << 10;
    /// Mebibyte.
    pub const MIB: u64 = 1 << 20;
    /// Gibibyte.
    pub const GIB: u64 = 1 << 30;
}

/// The compute side: nodes, cores and links.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Processor cores per node.
    pub cores_per_node: usize,
    /// Per-node network link bandwidth to the I/O fabric (bytes/s).
    pub link_bw: f64,
    /// Memory copy bandwidth (bytes/s) — cost of cache-absorbed writes.
    pub mem_bw: f64,
    /// Fixed per-POSIX-call client-side software overhead (s).
    pub syscall_overhead: f64,
}

/// Metadata service shape.
#[derive(Debug, Clone)]
pub enum MdsConfig {
    /// Lustre-style dedicated metadata server: one service queue; service
    /// time degrades when the queue is backlogged (directory lock thrash
    /// under create storms).
    Dedicated {
        /// Base service time per metadata op (s).
        base_op: f64,
        /// Service-time inflation per queued request at arrival
        /// (`service = base * (1 + alpha * backlog_depth)`).
        contention_alpha: f64,
        /// Cap on the inflation depth (requests).
        contention_cap: f64,
    },
    /// GPFS-style distributed metadata: ops spread over the storage
    /// servers, constant service time.
    Distributed {
        /// Base service time per metadata op (s).
        base_op: f64,
        /// Number of metadata-serving nodes.
        servers: usize,
    },
}

/// How the file system behaves when several clients write one file.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// Latency to acquire an extent/byte-range lock when the file has other
    /// writers (s). Charged per write op.
    pub acquire_latency: f64,
    /// Fraction of the transfer that proceeds *under* the lock
    /// (0 = locks only serialize acquisition, 1 = fully serialized writes).
    pub hold_transfer_fraction: f64,
    /// Whether lock revocation disables client write-back caching on files
    /// with multiple writers (true for Lustre extent locks).
    pub revoke_cache_on_shared: bool,
}

/// Client write-back cache model.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Per-node dirty-data capacity (bytes). 0 disables caching.
    pub capacity: u64,
    /// Largest single write the cache will absorb (bytes); larger writes go
    /// write-through (Lustre's per-RPC dirty limit).
    pub per_op_threshold: u64,
    /// Background drain rate to the servers (bytes/s).
    pub drain_bw: f64,
}

/// The storage side.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Human-readable name (e.g. "lscratchc (Lustre)").
    pub name: String,
    /// Number of I/O servers (GPFS NSD servers / Lustre OSSes).
    pub servers: usize,
    /// Independent service lanes per server (RAID arrays / OSTs).
    pub lanes_per_server: usize,
    /// Streaming bandwidth per lane (bytes/s), for reads.
    pub lane_bw: f64,
    /// Write bandwidth as a fraction of `lane_bw` (RAID-6 parity penalty;
    /// 1.0 = symmetric).
    pub write_bw_scale: f64,
    /// Fixed per-request server latency: seek + RPC (s).
    pub per_op_latency: f64,
    /// Per-additional-opener inflation of read latency on shared files
    /// (disk-head interference between interleaved streams); the total
    /// inflation factor is capped at 6.
    pub read_interference: f64,
    /// Stripe size for data placement (bytes).
    pub stripe_size: u64,
    /// Default stripe width (how many servers a file stripes over).
    pub stripe_width: usize,
    /// Metadata service.
    pub mds: MdsConfig,
    /// Locking behaviour.
    pub lock: LockConfig,
    /// Client cache behaviour.
    pub cache: CacheConfig,
}

/// A complete simulated platform.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Compute cluster.
    pub cluster: ClusterConfig,
    /// Attached file system.
    pub fs: FsConfig,
}

impl Platform {
    /// Aggregate theoretical storage bandwidth (bytes/s).
    pub fn peak_storage_bw(&self) -> f64 {
        self.fs.servers as f64 * self.fs.lanes_per_server as f64 * self.fs.lane_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bandwidth_is_product_of_parts() {
        let p = Platform {
            cluster: ClusterConfig {
                nodes: 4,
                cores_per_node: 12,
                link_bw: 1e9,
                mem_bw: 4e9,
                syscall_overhead: 1e-6,
            },
            fs: FsConfig {
                name: "toy".into(),
                servers: 2,
                lanes_per_server: 3,
                lane_bw: 100e6,
                write_bw_scale: 1.0,
                per_op_latency: 1e-3,
                read_interference: 0.0,
                stripe_size: units::MIB,
                stripe_width: 2,
                mds: MdsConfig::Distributed {
                    base_op: 1e-3,
                    servers: 2,
                },
                lock: LockConfig {
                    acquire_latency: 1e-4,
                    hold_transfer_fraction: 0.0,
                    revoke_cache_on_shared: false,
                },
                cache: CacheConfig {
                    capacity: units::GIB,
                    per_op_threshold: 4 * units::MIB,
                    drain_bw: 100e6,
                },
            },
        };
        assert!((p.peak_storage_bw() - 600e6).abs() < 1.0);
    }
}
