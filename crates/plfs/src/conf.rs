//! One [`Conf`], one knob table.
//!
//! The paper's LDPLFS is configured by one exported variable plus PLFS's
//! `plfsrc`; here the environment is the only way to configure a mount.
//! [`SHIM_ENV`] names the variables the preload reads itself — one mount
//! and one backend per process — and [`KNOBS`] is the single table every
//! tuning variable comes from: the `LD_PRELOAD` environment parser
//! ([`Conf::from_env`]) and the README's Configuration table
//! ([`knobs_markdown`]). [`Conf`] is the single flat struct every layer of
//! this stack reads its tuning from — [`crate::api::Plfs`] hands a `&Conf`
//! to each fd, reader, writer and backend decorator. Adding a knob is one
//! row here plus the code that reads the field.
//!
//! A field exists only if two callers want different values of it, and it
//! gets a row (an `LDPLFS_*` variable) only if it switches a default-off
//! mechanism on or selects a policy a user has a reason to reach for.
//! Shard counts and batch sizes are constants beside the code that uses
//! them; the one field without a row, `index_buffer_entries`, is set only
//! through [`crate::api::Plfs::with_conf`].

use crate::error::{Error, Result};
use crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
use std::fmt::Write as _;

/// Every tuning value of the PLFS stack. [`Conf::default`] is what
/// [`crate::api::Plfs::new`] runs with; both entry points (environment,
/// programmatic) start from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conf {
    /// Buffered index entries per writer before an automatic flush.
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

/// The mount point the preload serves (required).
pub const MOUNT_ENV: &str = "LDPLFS_MOUNT";
/// The backend directory holding the mount's containers (required).
pub const BACKEND_ENV: &str = "LDPLFS_BACKEND";
/// The variables the preload reads itself; every other `LDPLFS_*` name it
/// accepts is a [`KNOBS`] row.
pub const SHIM_ENV: &[&str] = &[MOUNT_ENV, BACKEND_ENV];

/// One row of the knob table: the variable that sets one [`Conf`] field.
pub struct Knob {
    /// The `LDPLFS_*` environment variable.
    pub env: &'static str,
    /// One-line description for the README.
    pub doc: &'static str,
    /// The field, a count spelled as a plain number.
    pub field: fn(&mut Conf) -> &mut usize,
}

/// The knob table. Order is the order the README prints.
pub const KNOBS: &[Knob] = &[
    Knob {
        env: "LDPLFS_COMPACT_THRESHOLD",
        doc: "compact in the background at last close above this many droppings; 0 never",
        field: |c| &mut c.compact_droppings_threshold,
    },
    Knob {
        env: "LDPLFS_META_CACHE",
        doc: "container metadata cache capacity; 0 = strict cross-process stat freshness",
        field: |c| &mut c.meta_cache_entries,
    },
];

/// The row whose variable is `name`.
pub fn env_knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.env == name)
}

/// Does the preload read the variable `name`: a [`SHIM_ENV`] name or a
/// [`KNOBS`] row?
pub fn known_env(name: &str) -> bool {
    SHIM_ENV.contains(&name) || env_knob(name).is_some()
}

impl Knob {
    /// Apply the spelling `value` to `conf`.
    pub fn set(&self, conf: &mut Conf, value: &str) -> Result<()> {
        *(self.field)(conf) = value
            .parse()
            .map_err(|_| Error::Config(format!("{}: bad numeric value `{value}`", self.env)))?;
        Ok(())
    }

    /// `conf`'s value of this knob, spelled as the variable takes it.
    pub fn render(&self, conf: &Conf) -> String {
        let mut c = *conf;
        (self.field)(&mut c).to_string()
    }
}

/// The Configuration table as markdown, which README.md must contain
/// verbatim (a test holds it there).
pub fn knobs_markdown() -> String {
    let d = Conf::default();
    let mut out = String::from("| variable | default | effect |\n|---|---|---|\n");
    for k in KNOBS {
        let (env, default, doc) = (k.env, k.render(&d), k.doc);
        let _ = writeln!(out, "| `{env}` | {default} | {doc} |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spelling every row's `set` accepts and that differs from its
    /// default.
    const SAMPLE: &str = "3";

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
            assert_eq!(k.render(&c), SAMPLE, "{}", k.env);
            assert_ne!(c, default, "{} reaches a field", k.env);
            let mut again = default;
            k.set(&mut again, &k.render(&c)).unwrap();
            assert_eq!(again, c, "{}", k.env);
            // The default's own rendering is accepted and changes nothing.
            let mut same = default;
            k.set(&mut same, &k.render(&default)).unwrap();
            assert_eq!(same, default, "{}", k.env);
            // Garbage never lands, whatever the row's type.
            for junk in ["18446744073709551616", "-1", "lots", ""] {
                let mut c = default;
                let err = k.set(&mut c, junk).unwrap_err();
                assert!(err.to_string().contains(k.env), "{err}");
                assert_eq!(c, default, "{} = {junk:?} must not land", k.env);
            }
        }
    }

    #[test]
    fn variable_names_are_unique() {
        let names: Vec<&str> = KNOBS
            .iter()
            .map(|k| k.env)
            .chain(SHIM_ENV.iter().copied())
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(name.starts_with("LDPLFS_"), "{name}");
            assert!(!names[i + 1..].contains(name), "{name}");
            assert!(known_env(name), "{name}");
        }
    }

    /// Ratchet. The earn-or-delete round (EXPERIMENTS.md) removes knobs the
    /// benchmark could not justify; each option doubles the configurations
    /// tests and benchmarks must cover. A new field, row or variable needs
    /// two callers that exist today and want different values — then raise
    /// the bound and extend the destructuring in the same change.
    #[test]
    fn the_option_count_only_goes_down() {
        assert!(KNOBS.len() <= 2, "a row must earn its variable");
        assert!(
            SHIM_ENV.len() <= 2,
            "the preload reads one mount and one backend"
        );
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
        for k in KNOBS {
            let c = Conf::from_env([(k.env, SAMPLE)]);
            assert_ne!(c, default, "{}", k.env);
            // Unparsable values and names no row claims keep the default.
            let c = Conf::from_env([(k.env, "-lots"), (MOUNT_ENV, "/m")]);
            assert_eq!(c, default, "{}", k.env);
        }
        // Only the variable spells a knob.
        assert_eq!(Conf::from_env([("meta_cache_entries", "8")]), default);
    }

    #[test]
    fn markdown_table_has_one_line_per_row() {
        let md = knobs_markdown();
        assert_eq!(md.lines().count(), KNOBS.len() + 2);
        assert!(md.contains("| `LDPLFS_META_CACHE` | 4096 |"));
    }

    /// README's Configuration block, between its two markers, is the knob
    /// table verbatim: regenerate it from [`knobs_markdown`] after touching
    /// [`KNOBS`].
    #[test]
    fn the_readme_prints_the_knob_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let block = readme
            .split_once("<!-- knobs:begin -->\n")
            .and_then(|(_, rest)| rest.split_once("<!-- knobs:end -->"))
            .map(|(block, _)| block)
            .expect("README.md has a knobs:begin/knobs:end block");
        assert_eq!(block, knobs_markdown(), "README.md's Configuration table");
    }
}
