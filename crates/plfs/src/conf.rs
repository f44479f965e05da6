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
//! reason to reach for. Shard counts and batch sizes are constants beside
//! the code that uses them; the one field without a row,
//! `index_buffer_entries`, is a per-mount `plfsrc` key.

use crate::error::{Error, Result};
use crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
use std::fmt::Write as _;

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
}

impl Default for Conf {
    fn default() -> Conf {
        Conf {
            index_buffer_entries: DEFAULT_INDEX_BUFFER_ENTRIES,
            compact_droppings_threshold: 0,
            meta_cache_entries: 4096,
        }
    }
}

impl Conf {
    /// Clamp every field into the range the stack can run with.
    /// Idempotent; every entry point that accepts a `Conf` from outside
    /// applies it.
    pub fn validated(mut self) -> Conf {
        self.index_buffer_entries = self.index_buffer_entries.max(1);
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
}

/// One row of the knob table: every spelling of one [`Conf`] field.
pub struct Knob {
    /// Global `plfsrc` key.
    pub key: &'static str,
    /// `LD_PRELOAD`-form environment alias, if the knob has one.
    pub env: Option<&'static str>,
    /// One-line description for `rccheck --knobs` / the README.
    pub doc: &'static str,
    /// The field, a count spelled as a plain number.
    pub field: fn(&mut Conf) -> &mut usize,
}

/// The knob table. Order is the order `rccheck` and the README print.
pub const KNOBS: &[Knob] = &[
    Knob {
        key: "compact_droppings_threshold",
        env: Some("LDPLFS_COMPACT_THRESHOLD"),
        doc: "compact in the background at last close above this many droppings; 0 never",
        field: |c| &mut c.compact_droppings_threshold,
    },
    Knob {
        key: "meta_cache_entries",
        env: Some("LDPLFS_META_CACHE"),
        doc: "container metadata cache capacity; 0 = strict cross-process stat freshness",
        field: |c| &mut c.meta_cache_entries,
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
        *(self.field)(conf) = value
            .parse()
            .map_err(|_| Error::Config(format!("{}: bad numeric value `{value}`", self.key)))?;
        Ok(())
    }

    /// `conf`'s value of this knob in its `plfsrc` spelling.
    pub fn render(&self, conf: &Conf) -> String {
        let mut c = *conf;
        (self.field)(&mut c).to_string()
    }
}

/// The Configuration table as markdown: what `plfs-tools rccheck --knobs`
/// prints and README.md must contain verbatim (CI diffs the two).
pub fn knobs_markdown() -> String {
    let d = Conf::default();
    let mut out =
        String::from("| plfsrc key | env alias | default | effect |\n|---|---|---|---|\n");
    for k in KNOBS {
        let env = k.env.map_or("—".to_string(), |e| format!("`{e}`"));
        let (key, default, doc) = (k.key, k.render(&d), k.doc);
        let _ = writeln!(out, "| `{key}` | {env} | {default} | {doc} |");
    }
    out
}

/// A spelling every row's `set` accepts and that differs from its default
/// (shared by this module's and the plfsrc parser's table-driven tests).
#[cfg(test)]
pub(crate) const SAMPLE: &str = "3";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_every_optional_mechanism_off() {
        let c = Conf::default();
        assert_eq!(c, c.validated(), "defaults are already valid");
        assert_eq!(c.compact_droppings_threshold, 0);
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
    }

    #[test]
    fn every_row_round_trips_and_rejects_garbage() {
        let default = Conf::default();
        for k in KNOBS {
            // render → set → read.
            let mut c = default;
            k.set(&mut c, SAMPLE).unwrap();
            assert_eq!(k.render(&c), SAMPLE, "{}", k.key);
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
        assert!(KNOBS.len() <= 2, "a row must earn its spelling");
        let aliases = KNOBS.iter().filter(|k| k.env.is_some()).count();
        assert!(aliases <= 2, "an env alias must earn its spelling");
        // Exhaustive: adding a `Conf` field without touching this test
        // fails to compile.
        let Conf {
            index_buffer_entries: _,
            compact_droppings_threshold: _,
            meta_cache_entries: _,
        } = Conf::default();
    }

    #[test]
    fn from_env_reaches_every_alias_and_survives_garbage() {
        let default = Conf::default();
        assert_eq!(Conf::from_env(Vec::<(String, String)>::new()), default);
        for k in KNOBS.iter().filter(|k| k.env.is_some()) {
            let c = Conf::from_env([(k.env.unwrap(), SAMPLE)]);
            assert_ne!(c, default, "{}", k.key);
            // Unparsable values and names no row claims keep the default.
            let c = Conf::from_env([(k.env.unwrap(), "-lots"), ("LDPLFS_MOUNT", "/m")]);
            assert_eq!(c, default, "{}", k.key);
        }
        // plfsrc keys are not environment names.
        assert_eq!(Conf::from_env([("meta_cache_entries", "8")]), default);
    }

    #[test]
    fn markdown_table_has_one_line_per_row() {
        let md = knobs_markdown();
        assert_eq!(md.lines().count(), KNOBS.len() + 2);
        assert!(md.contains("| `meta_cache_entries` | `LDPLFS_META_CACHE` | 4096 |"));
    }
}
