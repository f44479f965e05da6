//! Platform presets: Table I of the paper, plus helpers.
//!
//! The *structural* numbers (nodes, cores, server counts, disk classes)
//! come straight from Table I. The *behavioural* constants (effective lane
//! bandwidth, lock latencies, cache thresholds, MDS service times) are
//! calibrated so the simulator reproduces the bandwidth envelopes the
//! paper measured on each machine — see EXPERIMENTS.md for the calibration
//! record. Theoretical peaks are deliberately not used: the paper's own
//! measurements run far below them (Fig 3 tops out near 250 MB/s on a
//! "4 GB/s" GPFS setup), and the shapes depend on the effective rates.

use crate::config::{
    units::MIB, CacheConfig, ClusterConfig, FsConfig, LockConfig, MdsConfig, Platform,
};

/// Minerva (University of Warwick): 258 nodes, 2-server GPFS.
///
/// GPFS traits: distributed metadata (no dedicated MDS), fine-grained
/// byte-range locks (only acquisition serialises), modest disk backend
/// (96 × 7.2k-rpm drives behind 2 servers).
pub fn minerva() -> Platform {
    Platform {
        cluster: ClusterConfig {
            nodes: 258,
            cores_per_node: 12,
            // QDR InfiniBand, effective per-node file traffic.
            link_bw: 2.0e9,
            mem_bw: 4.0e9,
            syscall_overhead: 2.0e-6,
        },
        fs: FsConfig {
            name: "Minerva GPFS".into(),
            servers: 2,
            // RAID-6 (8+2) arrays behind each server.
            lanes_per_server: 5,
            // Effective streaming rate per array; calibrated to the
            // ~250 MB/s envelope of Fig 3.
            lane_bw: 30.0e6,
            write_bw_scale: 1.0,
            per_op_latency: 4.0e-3,
            read_interference: 0.05,
            stripe_size: MIB,
            stripe_width: 2,
            mds: MdsConfig::Distributed {
                base_op: 0.4e-3,
                servers: 2,
            },
            lock: LockConfig {
                // GPFS byte-range locks: acquisition RPC serialises, plus a
                // share of the transfer under token churn.
                acquire_latency: 1.5e-3,
                hold_transfer_fraction: 0.55,
                revoke_cache_on_shared: true,
            },
            cache: CacheConfig {
                // GPFS client pagepool; MPI-IO Test's 8 MB blocks exceed
                // the per-op threshold, so Fig 3 is uncached either way.
                capacity: 256 * MIB,
                per_op_threshold: 4 * MIB,
                drain_bw: 120.0e6,
            },
        },
    }
}

/// Sierra (LLNL OCF): 1,849 nodes, 24-OSS Lustre (`lscratchc`) with a
/// dedicated MDS.
///
/// Lustre traits: extent locks that revoke client caching on shared files,
/// and a single metadata service whose throughput degrades under create
/// storms — the Figure 5 mechanism.
pub fn sierra() -> Platform {
    Platform {
        cluster: ClusterConfig {
            nodes: 1849,
            cores_per_node: 12,
            // Effective per-node Lustre client write throughput (RPC
            // pipeline), well under the raw QDR rate.
            link_bw: 500.0e6,
            mem_bw: 5.0e9,
            syscall_overhead: 2.0e-6,
        },
        fs: FsConfig {
            name: "Sierra lscratchc Lustre".into(),
            servers: 24,
            lanes_per_server: 4,
            // Effective per-OST-pool rate; calibrated so the file-per-
            // process envelope peaks near the ~1.65 GB/s of Fig 5.
            lane_bw: 18.0e6,
            write_bw_scale: 1.0,
            per_op_latency: 2.5e-3,
            read_interference: 0.03,
            stripe_size: MIB,
            // Checkpoint volumes stripe wide on lscratchc.
            stripe_width: 24,
            mds: MdsConfig::Dedicated {
                base_op: 0.5e-3,
                // Directory-lock thrash under concurrent create storms
                // (applied to backlog^1.5; see mds.rs).
                contention_alpha: 0.005,
                contention_cap: 1.0e5,
            },
            lock: LockConfig {
                acquire_latency: 2.0e-3,
                hold_transfer_fraction: 0.85,
                revoke_cache_on_shared: true,
            },
            cache: CacheConfig {
                // Lustre max_dirty_mb-style per-client grant, summed over
                // the OSCs a node talks to.
                capacity: 256 * MIB,
                // Per-RPC dirty limit: ~7 MB writes (BT class D at 1,024
                // cores) miss; <2 MB and ~300 KB writes hit.
                per_op_threshold: 4 * MIB,
                // Background writeback per client under a loaded system.
                drain_bw: 40.0e6,
            },
        },
    }
}

/// The Minerva login node used for Table II's serial UNIX-tool study: one
/// client, shared GPFS, asymmetric read/write streaming rates.
pub fn login_node() -> Platform {
    Platform {
        cluster: ClusterConfig {
            nodes: 1,
            cores_per_node: 12,
            // Login-node effective single-stream ceiling (~165 MB/s — the
            // paper's cat rows: 4 GB in ~25 s).
            link_bw: 165.0e6,
            mem_bw: 4.0e9,
            syscall_overhead: 2.0e-6,
        },
        fs: FsConfig {
            name: "Minerva GPFS (login)".into(),
            servers: 2,
            lanes_per_server: 1,
            // Single-stream read rate ~160 MB/s (cat of 4 GB in ~25 s).
            // Server-side streaming is faster than the client ceiling.
            lane_bw: 400.0e6,
            // Login-node writes run far below reads (the paper's cp rows:
            // ~36 MB/s vs ~160 MB/s reads on the shared GPFS volume).
            write_bw_scale: 0.12,
            per_op_latency: 0.1e-3,
            read_interference: 0.0,
            stripe_size: MIB,
            // GPFS stripes every file across both servers.
            stripe_width: 2,
            mds: MdsConfig::Distributed {
                base_op: 0.4e-3,
                servers: 2,
            },
            lock: LockConfig {
                acquire_latency: 1.5e-3,
                hold_transfer_fraction: 0.0,
                revoke_cache_on_shared: false,
            },
            cache: CacheConfig {
                capacity: 0, // measure the storage path, not the page cache
                per_op_threshold: 0,
                drain_bw: 1.0,
            },
        },
    }
}

/// A small deterministic platform for unit tests: 4 nodes, 2 servers.
pub fn toy() -> Platform {
    Platform {
        cluster: ClusterConfig {
            nodes: 4,
            cores_per_node: 2,
            link_bw: 1.0e9,
            mem_bw: 4.0e9,
            syscall_overhead: 1.0e-6,
        },
        fs: FsConfig {
            name: "toy".into(),
            servers: 2,
            lanes_per_server: 2,
            lane_bw: 100.0e6,
            write_bw_scale: 1.0,
            per_op_latency: 1.0e-3,
            read_interference: 0.0,
            stripe_size: MIB,
            stripe_width: 2,
            mds: MdsConfig::Dedicated {
                base_op: 1.0e-3,
                contention_alpha: 0.1,
                contention_cap: 1.0e4,
            },
            lock: LockConfig {
                acquire_latency: 1.0e-3,
                hold_transfer_fraction: 0.5,
                revoke_cache_on_shared: true,
            },
            cache: CacheConfig {
                capacity: 16 * MIB,
                per_op_threshold: MIB,
                drain_bw: 50.0e6,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::units::{GIB, KIB};

    #[test]
    fn table_one_structural_numbers() {
        let m = minerva();
        assert_eq!(m.cluster.nodes, 258);
        assert_eq!(m.cluster.cores_per_node, 12);
        assert_eq!(m.fs.servers, 2);
        assert!(matches!(m.fs.mds, MdsConfig::Distributed { .. }));

        let s = sierra();
        assert_eq!(s.cluster.nodes, 1849);
        assert_eq!(s.fs.servers, 24);
        assert!(matches!(s.fs.mds, MdsConfig::Dedicated { .. }));
        assert!(s.fs.lock.revoke_cache_on_shared);
    }

    #[test]
    fn login_node_is_serial() {
        let l = login_node();
        assert_eq!(l.cluster.nodes, 1);
        assert_eq!(l.fs.cache.capacity, 0);
    }

    #[test]
    fn effective_peaks_below_theoretical() {
        // The calibrated effective rates must sit well under the paper's
        // quoted theoretical peaks (4 GB/s and 30 GB/s).
        assert!(minerva().peak_storage_bw() < 4.0e9);
        assert!(sierra().peak_storage_bw() < 30.0e9);
    }

    #[test]
    fn units_are_sane() {
        assert_eq!(KIB * 1024, MIB);
        assert_eq!(MIB * 1024, GIB);
    }
}
