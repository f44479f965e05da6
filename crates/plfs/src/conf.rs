//! One [`Conf`], one knob table.
//!
//! The paper's LDPLFS is configured by one `plfsrc` plus one exported
//! variable. [`Conf`] is the single flat struct every layer of this stack
//! reads its tuning from — [`crate::api::Plfs`] hands a `&Conf` to each fd,
//! reader, writer and backend decorator — and [`KNOBS`] is the
//! single table every *spelling* of a knob comes from: the `plfsrc` parser
//! ([`crate::mount::PlfsRc::parse`]), the `LD_PRELOAD` environment parser
//! ([`Conf::from_env`]), `plfs-tools rccheck` and the README's
//! Configuration table ([`knobs_markdown`]). Adding a knob is one row here
//! plus the code that reads the field.
//!
//! A field gets a row (a `plfsrc` key, optionally an `LDPLFS_*` alias) only
//! if it switches a default-off mechanism on or selects a policy a user has
//! a reason to reach for. Second-order values (shard counts, batch sizes,
//! worker counts) are plain fields that tests and bench comparison arms set
//! programmatically.

use crate::error::{Error, Result};
use crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
use std::fmt::Write as _;

/// Submission-queue depth `backend batched` turns on when `submit_depth`
/// is left at 0.
pub const DEFAULT_SUBMIT_DEPTH: usize = 64;

/// Which backend stack [`crate::backend::build_stack`] composes under a
/// mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Plain synchronous backing (the default).
    #[default]
    Direct,
    /// The mount's backing wrapped in [`crate::BatchedBacking`].
    Batched,
    /// [`crate::TieredBacking`]: a fast (burst-buffer) tier in front of the
    /// mount's backing.
    Tiered,
    /// [`crate::ObjectBacking`] over the mount's backing.
    Object,
}

impl BackendKind {
    /// Parse the plfsrc / environment spelling.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "direct" | "sync" | "posix" => Some(BackendKind::Direct),
            "batched" | "async" => Some(BackendKind::Batched),
            "tiered" | "burst" | "burst_buffer" => Some(BackendKind::Tiered),
            "object" | "object_store" => Some(BackendKind::Object),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Direct => "direct",
            BackendKind::Batched => "batched",
            BackendKind::Tiered => "tiered",
            BackendKind::Object => "object",
        }
    }
}

/// Every tuning value of the PLFS stack. [`Conf::default`] is what
/// [`crate::api::Plfs::new`] runs with; every entry point (plfsrc,
/// environment, programmatic) starts from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conf {
    /// Lock shards (rounded up to a power of two) of each sharded table:
    /// the dropping-handle cache, the per-pid writer table and the
    /// container metadata cache. 1 restores single-lock behaviour
    /// everywhere.
    pub lock_shards: usize,
    /// Write-behind aggregation buffer per writer, in bytes (the C
    /// library's `data_buffer_mbs`). 0 = every write hits the backing
    /// store immediately.
    pub data_buffer_bytes: usize,
    /// Buffered index entries per writer before an automatic flush. Set
    /// per mount in `plfsrc` (`index_buffer_entries`).
    pub index_buffer_entries: usize,
    /// After local writes, patch the fd's merged index in place with this
    /// process's fresh entries instead of re-reading every dropping. Off
    /// forces a full re-merge on each post-write read (the reference arm
    /// tests and `paperbench writepath` compare the patch against).
    pub incremental_refresh: bool,
    /// When the last writer closes a container holding more than this many
    /// droppings, compact them into one in the background (0 = never).
    pub compact_droppings_threshold: usize,
    /// Native list I/O: one index-record batch per extent vector on write,
    /// one merged-index query on read. Off lowers every list call to a
    /// per-extent loop.
    pub list_io: bool,
    /// Maximum extents per internal list-I/O batch, so one huge vector
    /// cannot pin an unbounded index-entry buffer.
    pub list_io_max_extents: usize,
    /// Container metadata cache capacity in entries (0 = off: every lookup
    /// probes the backing store). With the cache on, another *process*'s
    /// writes stay invisible to a warm `getattr` here until the cached
    /// verdict is dropped; same-process stats are always exact.
    pub meta_cache_entries: usize,
    /// Which backend stack to compose under the mount.
    pub backend: BackendKind,
    /// Maximum deferred backing ops in flight (0 = every op synchronous in
    /// the caller's thread). Sizes [`crate::BatchedBacking`]'s submission
    /// queue and [`crate::TieredBacking`]'s destage queue.
    pub submit_depth: usize,
    /// Worker threads draining the submission queue.
    pub submit_workers: usize,
    /// Minimum sealed-dropping size in bytes before a tiered backing
    /// destages it to the slow tier (0 = destage every sealed dropping).
    pub destage_threshold: u64,
}

impl Default for Conf {
    fn default() -> Conf {
        Conf {
            lock_shards: 16,
            data_buffer_bytes: 0,
            index_buffer_entries: DEFAULT_INDEX_BUFFER_ENTRIES,
            incremental_refresh: true,
            compact_droppings_threshold: 0,
            list_io: true,
            list_io_max_extents: 1024,
            meta_cache_entries: 4096,
            backend: BackendKind::Direct,
            submit_depth: 0,
            submit_workers: 4,
            destage_threshold: 0,
        }
    }
}

impl Conf {
    /// Clamp every field into the range the stack can run with, and turn
    /// `backend batched` with no explicit depth into a working queue.
    /// Idempotent; every entry point that accepts a `Conf` from outside
    /// applies it.
    pub fn validated(mut self) -> Conf {
        self.lock_shards = self.lock_shards.max(1);
        self.index_buffer_entries = self.index_buffer_entries.max(1);
        self.list_io_max_extents = self.list_io_max_extents.max(1);
        self.submit_workers = self.submit_workers.max(1);
        if self.backend == BackendKind::Batched && self.submit_depth == 0 {
            self.submit_depth = DEFAULT_SUBMIT_DEPTH;
        }
        self
    }

    /// The configuration an `LD_PRELOAD`ed process asked for through its
    /// environment: defaults, overridden by every variable that is some
    /// row's env alias. Names no row claims are skipped, and an unparsable
    /// value keeps the default — the shim must never refuse to start over a
    /// tuning knob.
    pub fn from_env<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Conf
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut conf = Conf::default();
        for (name, value) in vars {
            if let Some(k) = env_knob(name.as_ref()) {
                let _ = k.set(&mut conf, value.as_ref());
            }
        }
        conf.validated()
    }

    /// Is the container metadata cache enabled?
    pub fn meta_cache_enabled(&self) -> bool {
        self.meta_cache_entries > 0
    }

    /// Is the async submission layer enabled?
    pub fn batching(&self) -> bool {
        self.submit_depth > 0
    }
}

/// What one unit of a numeric knob's spelling is worth in its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count (entries, ops).
    Count,
    /// MiB (× 1048576).
    MiB,
}

impl Unit {
    fn scale(self) -> usize {
        match self {
            Unit::Count => 1,
            Unit::MiB => 1 << 20,
        }
    }

    /// Name as printed in the Configuration table.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::MiB => "MiB",
        }
    }
}

/// How a knob's text becomes its field.
pub enum Kind {
    /// A `usize` field: the spelled value is in `unit`, and a number below
    /// `min` is rejected.
    Num {
        /// Unit of the spelling.
        unit: Unit,
        /// Smallest accepted value.
        min: usize,
        /// The field.
        field: fn(&mut Conf) -> &mut usize,
    },
    /// `true|1|yes|on` / `false|0|no|off`.
    Bool(fn(&mut Conf) -> &mut bool),
    /// `direct|batched|tiered|object`.
    Backend(fn(&mut Conf) -> &mut BackendKind),
}

/// One row of the knob table: every spelling of one [`Conf`] field.
pub struct Knob {
    /// Global `plfsrc` key.
    pub key: &'static str,
    /// `LD_PRELOAD`-form environment alias, if the knob has one.
    pub env: Option<&'static str>,
    /// One-line description for `rccheck --knobs` / the README.
    pub doc: &'static str,
    /// Type, unit, range and field accessor.
    pub kind: Kind,
}

/// A [`Kind::Num`] in table-row form: unit, minimum, field.
const fn num(unit: Unit, min: usize, field: fn(&mut Conf) -> &mut usize) -> Kind {
    Kind::Num { unit, min, field }
}

/// The knob table. Order is the order `rccheck` and the README print.
pub const KNOBS: &[Knob] = &[
    Knob {
        key: "data_buffer_mbs",
        env: None,
        doc: "write-behind data buffer per writer; 0 writes through",
        kind: num(Unit::MiB, 0, |c| &mut c.data_buffer_bytes),
    },
    Knob {
        key: "compact_droppings_threshold",
        env: Some("LDPLFS_COMPACT_THRESHOLD"),
        doc: "compact in the background at last close above this many droppings; 0 never",
        kind: num(Unit::Count, 0, |c| &mut c.compact_droppings_threshold),
    },
    Knob {
        key: "list_io",
        env: Some("LDPLFS_LIST_IO"),
        doc: "native list I/O; off lowers vectored/list calls to per-extent ops",
        kind: Kind::Bool(|c| &mut c.list_io),
    },
    Knob {
        key: "meta_cache_entries",
        env: Some("LDPLFS_META_CACHE"),
        doc: "container metadata cache capacity; 0 = strict cross-process stat freshness",
        kind: num(Unit::Count, 0, |c| &mut c.meta_cache_entries),
    },
    Knob {
        key: "backend",
        env: Some("LDPLFS_BACKEND_KIND"),
        doc: "backend stack under the mount; tiered takes the first of two or more `backends` as its fast tier",
        kind: Kind::Backend(|c| &mut c.backend),
    },
    Knob {
        key: "submit_depth",
        env: Some("LDPLFS_SUBMIT_DEPTH"),
        doc: "async submission queue depth; 0 keeps every backing op synchronous",
        kind: num(Unit::Count, 0, |c| &mut c.submit_depth),
    },
];

/// The row whose `plfsrc` key is `key`.
pub fn knob(key: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.key == key)
}

/// The row whose environment alias is `name`.
pub fn env_knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.env == Some(name))
}

impl Knob {
    /// Apply the spelling `value` (the same under the `plfsrc` key and the
    /// env alias) to `conf`.
    pub fn set(&self, conf: &mut Conf, value: &str) -> Result<()> {
        let bad = |what: &str| Error::Config(format!("{}: {what} `{value}`", self.key));
        match &self.kind {
            Kind::Num { unit, min, field } => {
                let n: usize = value.parse().map_err(|_| bad("bad numeric value"))?;
                if n < *min {
                    return Err(bad("value below minimum"));
                }
                // Checked: `18446744073709551615` must be an error, not a
                // debug-build multiply overflow.
                *field(conf) = n
                    .checked_mul(unit.scale())
                    .ok_or_else(|| bad("value out of range"))?;
            }
            Kind::Bool(field) => {
                *field(conf) = match value {
                    "true" | "1" | "yes" | "on" => true,
                    "false" | "0" | "no" | "off" => false,
                    _ => return Err(bad("bad boolean value")),
                }
            }
            Kind::Backend(field) => {
                *field(conf) =
                    BackendKind::parse(value).ok_or_else(|| bad("unknown backend kind"))?
            }
        }
        Ok(())
    }

    /// `conf`'s value of this knob in its `plfsrc` spelling (numeric
    /// values in the key's unit, rounded down).
    pub fn render(&self, conf: &Conf) -> String {
        let mut c = *conf;
        match &self.kind {
            Kind::Num { unit, field, .. } => (*field(&mut c) / unit.scale()).to_string(),
            Kind::Bool(field) => if *field(&mut c) { "on" } else { "off" }.to_string(),
            Kind::Backend(field) => field(&mut c).as_str().to_string(),
        }
    }
}

/// The Configuration table as markdown: what `plfs-tools rccheck --knobs`
/// prints and README.md must contain verbatim (CI diffs the two).
pub fn knobs_markdown() -> String {
    let d = Conf::default();
    let mut out = String::from(
        "| plfsrc key | env alias | unit | default | range | effect |\n|---|---|---|---|---|---|\n",
    );
    for k in KNOBS {
        let (unit, range) = match &k.kind {
            Kind::Num { unit, min, .. } => (unit.as_str(), format!("≥ {min}")),
            Kind::Bool(_) => ("bool", "on, off".to_string()),
            Kind::Backend(_) => ("enum", "direct, batched, tiered, object".to_string()),
        };
        let env = k.env.map_or("—".to_string(), |e| format!("`{e}`"));
        let (key, default, doc) = (k.key, k.render(&d), k.doc);
        let _ = writeln!(
            out,
            "| `{key}` | {env} | {unit} | {default} | {range} | {doc} |"
        );
    }
    out
}

/// A spelling every row's `set` accepts and that differs from its default
/// (shared by this module's and the plfsrc parser's table-driven tests).
#[cfg(test)]
pub(crate) fn sample(k: &Knob) -> &'static str {
    match &k.kind {
        Kind::Num { .. } => "3",
        Kind::Bool(_) => "off",
        Kind::Backend(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_every_optional_mechanism_off() {
        let c = Conf::default();
        assert_eq!(c, c.validated(), "defaults are already valid");
        assert_eq!(c.data_buffer_bytes, 0, "write-behind is opt-in");
        assert!(!c.batching());
        assert!(c.list_io && c.incremental_refresh && c.meta_cache_enabled());
    }

    #[test]
    fn validated_clamps_what_the_stack_cannot_run_with() {
        let c = Conf {
            lock_shards: 0,
            index_buffer_entries: 0,
            list_io_max_extents: 0,
            submit_workers: 0,
            ..Conf::default()
        }
        .validated();
        assert_eq!((c.lock_shards, c.index_buffer_entries), (1, 1));
        assert_eq!((c.list_io_max_extents, c.submit_workers), (1, 1));
        // `backend batched` alone turns the submission layer on.
        let c = Conf {
            backend: BackendKind::Batched,
            ..Conf::default()
        };
        assert!(!c.batching() && c.validated().batching());
    }

    #[test]
    fn every_row_round_trips_and_rejects_garbage() {
        let default = Conf::default();
        for k in KNOBS {
            // render → set → read.
            let mut c = default;
            k.set(&mut c, sample(k)).unwrap();
            assert_eq!(k.render(&c), sample(k), "{}", k.key);
            assert_ne!(c, default, "{} reaches a field", k.key);
            let mut again = default;
            k.set(&mut again, &k.render(&c)).unwrap();
            assert_eq!(again, c, "{}", k.key);
            // The default's own rendering is accepted and changes nothing.
            let mut same = default;
            k.set(&mut same, &k.render(&default)).unwrap();
            assert_eq!(same, default, "{}", k.key);
            // Garbage never lands, whatever the row's type.
            for junk in ["18446744073709551616", "-1", "lots", ""] {
                let mut c = default;
                let err = k.set(&mut c, junk).unwrap_err();
                assert!(err.to_string().contains(k.key), "{err}");
                assert_eq!(c, default, "{} = {junk:?} must not land", k.key);
            }
            // Scaled units overflow into an error, not a wrapped value.
            if let Kind::Num { unit, .. } = &k.kind {
                let mut c = default;
                let r = k.set(&mut c, "18446744073709551615");
                assert_eq!(r.is_err(), unit.scale() > 1, "{}", k.key);
            }
        }
    }

    #[test]
    fn keys_and_env_aliases_are_unique() {
        for (i, k) in KNOBS.iter().enumerate() {
            for other in &KNOBS[i + 1..] {
                assert_ne!(k.key, other.key);
                assert!(k.env.is_none() || k.env != other.env);
            }
            assert!(k.env.is_none_or(|e| e.starts_with("LDPLFS_")));
        }
    }

    /// Ratchet. The earn-or-delete round (EXPERIMENTS.md) removes knobs the
    /// benchmark could not justify; each option doubles the configurations
    /// tests and benchmarks must cover. A new field or row needs two
    /// callers that exist today and want different values — then raise the
    /// bound and extend the destructuring in the same change.
    #[test]
    fn the_option_count_only_goes_down() {
        assert!(KNOBS.len() <= 6, "a row must earn its spelling");
        // Exhaustive: adding a `Conf` field without touching this test
        // fails to compile.
        let Conf {
            lock_shards: _,
            data_buffer_bytes: _,
            index_buffer_entries: _,
            incremental_refresh: _,
            compact_droppings_threshold: _,
            list_io: _,
            list_io_max_extents: _,
            meta_cache_entries: _,
            backend: _,
            submit_depth: _,
            submit_workers: _,
            destage_threshold: _,
        } = Conf::default();
    }

    #[test]
    fn from_env_reaches_every_alias_and_survives_garbage() {
        let default = Conf::default();
        assert_eq!(Conf::from_env(Vec::<(String, String)>::new()), default);
        for k in KNOBS.iter().filter(|k| k.env.is_some()) {
            let c = Conf::from_env([(k.env.unwrap(), sample(k))]);
            assert_ne!(c, default, "{}", k.key);
            // Unparsable values and names no row claims keep the default.
            let c = Conf::from_env([(k.env.unwrap(), "-lots"), ("LDPLFS_MOUNT", "/m")]);
            assert_eq!(c, default, "{}", k.key);
        }
        // plfsrc keys are not environment names.
        assert_eq!(Conf::from_env([("submit_depth", "8")]), default);
    }

    #[test]
    fn markdown_table_has_one_line_per_row() {
        let md = knobs_markdown();
        assert_eq!(md.lines().count(), KNOBS.len() + 2);
        assert!(md.contains("| `data_buffer_mbs` | — | MiB | 0 | ≥ 0 |"));
        assert!(md.contains("| `list_io` | `LDPLFS_LIST_IO` | bool | on | on, off |"));
    }
}
