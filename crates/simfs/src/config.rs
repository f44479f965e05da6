//! Configuration of the simulated platform: cluster and file system.
//!
//! The knobs here correspond to Table I of the paper plus the handful of
//! behavioural parameters the shapes in Figs 3–5 depend on (client
//! write-back cache, lock semantics, metadata service). Calibrated values
//! for the two testbeds live in [`crate::presets`].

use jsonlite::{ParseError, Value};

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

// ---------------------------------------------------------------------------
// JSON (de)serialization. Hand-written against `jsonlite` so platform configs
// can be dumped/loaded without external dependencies; the layout mirrors the
// struct fields one-to-one and MdsConfig uses externally-tagged variants
// (`{"dedicated": {...}}` / `{"distributed": {...}}`).

fn field(v: &Value, key: &str) -> Result<Value, ParseError> {
    v.get(key).cloned().ok_or_else(|| ParseError {
        message: format!("missing field `{key}`"),
        at: 0,
    })
}

fn get_f64(v: &Value, key: &str) -> Result<f64, ParseError> {
    field(v, key)?.as_f64().ok_or_else(|| ParseError {
        message: format!("field `{key}` is not a number"),
        at: 0,
    })
}

fn get_u64(v: &Value, key: &str) -> Result<u64, ParseError> {
    field(v, key)?.as_u64().ok_or_else(|| ParseError {
        message: format!("field `{key}` is not an unsigned integer"),
        at: 0,
    })
}

fn get_usize(v: &Value, key: &str) -> Result<usize, ParseError> {
    Ok(get_u64(v, key)? as usize)
}

fn get_bool(v: &Value, key: &str) -> Result<bool, ParseError> {
    field(v, key)?.as_bool().ok_or_else(|| ParseError {
        message: format!("field `{key}` is not a bool"),
        at: 0,
    })
}

impl ClusterConfig {
    /// JSON representation.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("nodes", self.nodes as u64)
            .with("cores_per_node", self.cores_per_node as u64)
            .with("link_bw", self.link_bw)
            .with("mem_bw", self.mem_bw)
            .with("syscall_overhead", self.syscall_overhead)
    }

    /// Parse from a JSON object.
    pub fn from_json(v: &Value) -> Result<ClusterConfig, ParseError> {
        Ok(ClusterConfig {
            nodes: get_usize(v, "nodes")?,
            cores_per_node: get_usize(v, "cores_per_node")?,
            link_bw: get_f64(v, "link_bw")?,
            mem_bw: get_f64(v, "mem_bw")?,
            syscall_overhead: get_f64(v, "syscall_overhead")?,
        })
    }
}

impl MdsConfig {
    /// JSON representation (externally tagged).
    pub fn to_json(&self) -> Value {
        match self {
            MdsConfig::Dedicated {
                base_op,
                contention_alpha,
                contention_cap,
            } => Value::object().with(
                "dedicated",
                Value::object()
                    .with("base_op", *base_op)
                    .with("contention_alpha", *contention_alpha)
                    .with("contention_cap", *contention_cap),
            ),
            MdsConfig::Distributed { base_op, servers } => Value::object().with(
                "distributed",
                Value::object()
                    .with("base_op", *base_op)
                    .with("servers", *servers as u64),
            ),
        }
    }

    /// Parse from a JSON object.
    pub fn from_json(v: &Value) -> Result<MdsConfig, ParseError> {
        if let Some(d) = v.get("dedicated") {
            Ok(MdsConfig::Dedicated {
                base_op: get_f64(d, "base_op")?,
                contention_alpha: get_f64(d, "contention_alpha")?,
                contention_cap: get_f64(d, "contention_cap")?,
            })
        } else if let Some(d) = v.get("distributed") {
            Ok(MdsConfig::Distributed {
                base_op: get_f64(d, "base_op")?,
                servers: get_usize(d, "servers")?,
            })
        } else {
            Err(ParseError {
                message: "mds: expected `dedicated` or `distributed` variant".into(),
                at: 0,
            })
        }
    }
}

impl LockConfig {
    /// JSON representation.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("acquire_latency", self.acquire_latency)
            .with("hold_transfer_fraction", self.hold_transfer_fraction)
            .with("revoke_cache_on_shared", self.revoke_cache_on_shared)
    }

    /// Parse from a JSON object.
    pub fn from_json(v: &Value) -> Result<LockConfig, ParseError> {
        Ok(LockConfig {
            acquire_latency: get_f64(v, "acquire_latency")?,
            hold_transfer_fraction: get_f64(v, "hold_transfer_fraction")?,
            revoke_cache_on_shared: get_bool(v, "revoke_cache_on_shared")?,
        })
    }
}

impl CacheConfig {
    /// JSON representation.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("capacity", self.capacity)
            .with("per_op_threshold", self.per_op_threshold)
            .with("drain_bw", self.drain_bw)
    }

    /// Parse from a JSON object.
    pub fn from_json(v: &Value) -> Result<CacheConfig, ParseError> {
        Ok(CacheConfig {
            capacity: get_u64(v, "capacity")?,
            per_op_threshold: get_u64(v, "per_op_threshold")?,
            drain_bw: get_f64(v, "drain_bw")?,
        })
    }
}

impl FsConfig {
    /// JSON representation.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("name", self.name.as_str())
            .with("servers", self.servers as u64)
            .with("lanes_per_server", self.lanes_per_server as u64)
            .with("lane_bw", self.lane_bw)
            .with("write_bw_scale", self.write_bw_scale)
            .with("per_op_latency", self.per_op_latency)
            .with("read_interference", self.read_interference)
            .with("stripe_size", self.stripe_size)
            .with("stripe_width", self.stripe_width as u64)
            .with("mds", self.mds.to_json())
            .with("lock", self.lock.to_json())
            .with("cache", self.cache.to_json())
    }

    /// Parse from a JSON object.
    pub fn from_json(v: &Value) -> Result<FsConfig, ParseError> {
        let name = field(v, "name")?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| ParseError {
                message: "field `name` is not a string".into(),
                at: 0,
            })?;
        Ok(FsConfig {
            name,
            servers: get_usize(v, "servers")?,
            lanes_per_server: get_usize(v, "lanes_per_server")?,
            lane_bw: get_f64(v, "lane_bw")?,
            write_bw_scale: get_f64(v, "write_bw_scale")?,
            per_op_latency: get_f64(v, "per_op_latency")?,
            read_interference: get_f64(v, "read_interference")?,
            stripe_size: get_u64(v, "stripe_size")?,
            stripe_width: get_usize(v, "stripe_width")?,
            mds: MdsConfig::from_json(&field(v, "mds")?)?,
            lock: LockConfig::from_json(&field(v, "lock")?)?,
            cache: CacheConfig::from_json(&field(v, "cache")?)?,
        })
    }
}

impl Platform {
    /// JSON representation of the whole platform.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("cluster", self.cluster.to_json())
            .with("fs", self.fs.to_json())
    }

    /// Parse a platform from a JSON object.
    pub fn from_json(v: &Value) -> Result<Platform, ParseError> {
        Ok(Platform {
            cluster: ClusterConfig::from_json(&field(v, "cluster")?)?,
            fs: FsConfig::from_json(&field(v, "fs")?)?,
        })
    }

    /// Parse a platform from JSON text.
    pub fn from_json_str(s: &str) -> Result<Platform, ParseError> {
        Platform::from_json(&jsonlite::parse(s)?)
    }
}

impl jsonlite::ToJson for Platform {
    fn to_json_value(&self) -> Value {
        self.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

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

    #[test]
    fn platform_serializes_roundtrip() {
        let p = presets::minerva();
        let json = p.to_json().to_json();
        let back = Platform::from_json_str(&json).unwrap();
        assert_eq!(back.fs.servers, p.fs.servers);
        assert_eq!(back.cluster.nodes, p.cluster.nodes);
        // Floats and the mds variant must survive too.
        assert!((back.fs.lane_bw - p.fs.lane_bw).abs() < 1e-6);
        assert_eq!(
            matches!(back.fs.mds, MdsConfig::Dedicated { .. }),
            matches!(p.fs.mds, MdsConfig::Dedicated { .. })
        );
    }

    #[test]
    fn platform_from_json_reports_missing_fields() {
        let err = Platform::from_json_str("{\"cluster\": {}}").unwrap_err();
        assert!(err.message.contains("missing field"));
    }

    #[test]
    fn read_capacity_is_optional_in_json() {
        // A cache object written when the model had a clean read cache
        // still parses (the key is ignored), as does one without it...
        for extra in ["", ", \"read_capacity\": 65536"] {
            let legacy = jsonlite::parse(&format!(
                "{{\"capacity\": 1024, \"per_op_threshold\": 64, \"drain_bw\": 1.5{extra}}}"
            ))
            .unwrap();
            assert_eq!(CacheConfig::from_json(&legacy).unwrap().capacity, 1024);
        }
        // ...while the write-cache fields stay mandatory.
        let broken = jsonlite::parse("{\"per_op_threshold\": 64, \"drain_bw\": 1.5}").unwrap();
        assert!(CacheConfig::from_json(&broken).is_err());
    }
}
