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
//! A field exists only if two callers want different values of it, and it
//! gets a row (a `plfsrc` key, optionally an `LDPLFS_*` alias) only if it
//! switches a default-off mechanism on or selects a policy a user has a
//! reason to reach for. Shard counts, batch sizes and worker counts are
//! constants beside the code that uses them; the one field without a row,
//! `index_buffer_entries`, is a per-mount `plfsrc` key.

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
}

impl BackendKind {
    /// Parse the plfsrc / environment spelling.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "direct" | "sync" | "posix" => Some(BackendKind::Direct),
            "batched" | "async" => Some(BackendKind::Batched),
            "tiered" | "burst" | "burst_buffer" => Some(BackendKind::Tiered),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Direct => "direct",
            BackendKind::Batched => "batched",
            BackendKind::Tiered => "tiered",
        }
    }
}

/// Every tuning value of the PLFS stack. [`Conf::default`] is what
/// [`crate::api::Plfs::new`] runs with; every entry point (plfsrc,
/// environment, programmatic) starts from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conf {
    /// Buffered index entries per writer before an automatic flush. Set
    /// per mount in `plfsrc` (`index_buffer_entries`).
    pub index_buffer_entries: usize,
    /// When the last writer closes a container holding more than this many
    /// droppings, compact them into one in the background (0 = never).
    pub compact_droppings_threshold: usize,
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
}

impl Default for Conf {
    fn default() -> Conf {
        Conf {
            index_buffer_entries: DEFAULT_INDEX_BUFFER_ENTRIES,
            compact_droppings_threshold: 0,
            meta_cache_entries: 4096,
            backend: BackendKind::Direct,
            submit_depth: 0,
        }
    }
}

impl Conf {
    /// Clamp every field into the range the stack can run with, and turn
    /// `backend batched` with no explicit depth into a working queue.
    /// Idempotent; every entry point that accepts a `Conf` from outside
    /// applies it.
    pub fn validated(mut self) -> Conf {
        self.index_buffer_entries = self.index_buffer_entries.max(1);
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

/// How a knob's text becomes its field.
pub enum Kind {
    /// A `usize` field, spelled as a plain count; a number below `min` is
    /// rejected.
    Num {
        /// Smallest accepted value.
        min: usize,
        /// The field.
        field: fn(&mut Conf) -> &mut usize,
    },
    /// `direct|batched|tiered`.
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
    /// Type, range and field accessor.
    pub kind: Kind,
}

/// A [`Kind::Num`] in table-row form: minimum, field.
const fn num(min: usize, field: fn(&mut Conf) -> &mut usize) -> Kind {
    Kind::Num { min, field }
}

/// The knob table. Order is the order `rccheck` and the README print.
pub const KNOBS: &[Knob] = &[
    Knob {
        key: "compact_droppings_threshold",
        env: Some("LDPLFS_COMPACT_THRESHOLD"),
        doc: "compact in the background at last close above this many droppings; 0 never",
        kind: num(0, |c| &mut c.compact_droppings_threshold),
    },
    Knob {
        key: "meta_cache_entries",
        env: Some("LDPLFS_META_CACHE"),
        doc: "container metadata cache capacity; 0 = strict cross-process stat freshness",
        kind: num(0, |c| &mut c.meta_cache_entries),
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
        kind: num(0, |c| &mut c.submit_depth),
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
            Kind::Num { min, field } => {
                let n: usize = value.parse().map_err(|_| bad("bad numeric value"))?;
                if n < *min {
                    return Err(bad("value below minimum"));
                }
                *field(conf) = n;
            }
            Kind::Backend(field) => {
                *field(conf) =
                    BackendKind::parse(value).ok_or_else(|| bad("unknown backend kind"))?
            }
        }
        Ok(())
    }

    /// `conf`'s value of this knob in its `plfsrc` spelling.
    pub fn render(&self, conf: &Conf) -> String {
        let mut c = *conf;
        match &self.kind {
            Kind::Num { field, .. } => field(&mut c).to_string(),
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
            Kind::Num { min, .. } => ("count", format!("≥ {min}")),
            Kind::Backend(_) => ("enum", "direct, batched, tiered".to_string()),
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
        Kind::Backend(_) => "tiered",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_every_optional_mechanism_off() {
        let c = Conf::default();
        assert_eq!(c, c.validated(), "defaults are already valid");
        assert!(!c.batching() && c.compact_droppings_threshold == 0);
        assert!(c.meta_cache_enabled());
    }

    #[test]
    fn validated_clamps_what_the_stack_cannot_run_with() {
        let c = Conf {
            index_buffer_entries: 0,
            ..Conf::default()
        }
        .validated();
        assert_eq!(c.index_buffer_entries, 1);
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
        assert!(KNOBS.len() <= 4, "a row must earn its spelling");
        let aliases = KNOBS.iter().filter(|k| k.env.is_some()).count();
        assert!(aliases <= 4, "an env alias must earn its spelling");
        // Exhaustive: adding a `Conf` field without touching this test
        // fails to compile.
        let Conf {
            index_buffer_entries: _,
            compact_droppings_threshold: _,
            meta_cache_entries: _,
            backend: _,
            submit_depth: _,
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
        assert!(md.contains("| `submit_depth` | `LDPLFS_SUBMIT_DEPTH` | count | 0 | ≥ 0 |"));
        assert!(md.contains("| enum | direct | direct, batched, tiered |"));
    }
}
