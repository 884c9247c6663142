//! Seeded property-testing harness — the in-repo `proptest` replacement.
//!
//! Design, in order of importance:
//!
//! 1. **Determinism.** Each case's RNG seed is derived from
//!    `(base_seed, property name, case index)` with
//!    [`derive_seed`], so a failing case is fully
//!    identified by its `(seed, size)` pair and replays exactly.
//! 2. **Size ramping.** The closure receives a `size` hint that grows
//!    linearly from 0 to `max_size` over the run, so early cases exercise
//!    degenerate inputs (empty workloads, single-row tables) and later ones
//!    stress capacity.
//! 3. **Shrinking-lite.** On failure the harness re-runs the *failing seed*
//!    at smaller sizes and reports the smallest size that still fails.
//!    This is not structural shrinking à la proptest/QuickCheck, but with
//!    size-driven generators it reliably minimises the counterexample's
//!    magnitude.
//! 4. **Failure replay.** The minimal failing `(seed, size)` is appended to
//!    `tests/<name>.propfail` under the crate root (located via
//!    `CARGO_MANIFEST_DIR`); subsequent runs execute recorded cases first,
//!    so a red test stays red until genuinely fixed. Delete the file to
//!    forget the history.
//!
//! ```
//! use autoindex_support::prop::{property, PropConfig};
//! use autoindex_support::prop_assert;
//!
//! property("sort_is_idempotent", PropConfig::quick(), |rng, size| {
//!     let mut v: Vec<u32> = (0..size).map(|_| rng.random_range(0..1000u32)).collect();
//!     v.sort();
//!     let once = v.clone();
//!     v.sort();
//!     prop_assert!(v == once, "double sort changed the vector");
//!     Ok(())
//! });
//! ```

use crate::rng::{derive_seed, StdRng};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Configuration for [`property`].
#[derive(Debug, Clone)]
pub struct PropConfig {
    /// Number of random cases to run (after any replayed failures).
    pub cases: usize,
    /// Base seed; per-case seeds are derived from it and the property name.
    pub seed: u64,
    /// Maximum size hint passed to the closure (ramped from 0).
    pub max_size: usize,
    /// How many smaller sizes to try when shrinking a failure.
    pub shrink_rounds: usize,
    /// Directory for `<name>.propfail` replay files; resolved from
    /// `CARGO_MANIFEST_DIR/tests` when `None`. Set to `Some(None…)` paths in
    /// tests to redirect, or disable persistence with [`PropConfig::ephemeral`].
    pub replay_dir: Option<PathBuf>,
    /// When false, failures are not persisted (used by the harness's own
    /// tests and by doctests).
    pub persist: bool,
}

impl Default for PropConfig {
    fn default() -> Self {
        PropConfig {
            cases: 256,
            seed: 0xA070_1DE5, // "autoindex"
            max_size: 100,
            shrink_rounds: 16,
            replay_dir: None,
            persist: true,
        }
    }
}

impl PropConfig {
    /// A lighter profile (64 cases) for expensive properties.
    pub fn quick() -> Self {
        PropConfig {
            cases: 64,
            ..PropConfig::default()
        }
    }

    /// Override the number of cases.
    pub fn cases(mut self, cases: usize) -> Self {
        self.cases = cases;
        self
    }

    /// Override the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the maximum size hint.
    pub fn max_size(mut self, max_size: usize) -> Self {
        self.max_size = max_size;
        self
    }

    /// Disable failure-file persistence (for doctests and self-tests).
    pub fn ephemeral() -> Self {
        PropConfig {
            persist: false,
            ..PropConfig::default()
        }
    }
}

/// Outcome of a single case, as reported by the property closure.
///
/// `Ok(())` means the property held; `Err(msg)` is a counterexample
/// description. Use the [`prop_assert!`](crate::prop_assert) /
/// [`prop_assert_eq!`](crate::prop_assert_eq) macros to produce these.
pub type CaseResult = Result<(), String>;

/// Run `f` over `cfg.cases` seeded cases, panicking with a replay line on
/// the first (shrunk) failure.
///
/// The closure receives a freshly seeded [`StdRng`] and a `size` hint in
/// `0..=cfg.max_size`. Failures are shrunk (smaller sizes, same seed) and
/// persisted for replay; recorded failures from previous runs execute
/// before any new random cases.
pub fn property<F>(name: &str, cfg: PropConfig, mut f: F)
where
    F: FnMut(&mut StdRng, usize) -> CaseResult,
{
    // 1. Replay recorded failures first.
    if let Some(path) = replay_path(name, &cfg) {
        for (seed, size) in read_replay_file(&path) {
            let mut rng = StdRng::seed_from_u64(seed);
            if let Err(msg) = f(&mut rng, size) {
                panic!(
                    "property '{name}' still fails on recorded case \
                     (seed={seed:#x}, size={size}): {msg}\n\
                     replay file: {}",
                    path.display()
                );
            }
        }
    }

    // 2. Random cases with a linear size ramp.
    for case in 0..cfg.cases {
        let seed = derive_seed(cfg.seed ^ hash_name(name), case as u64);
        let size = if cfg.cases <= 1 {
            cfg.max_size
        } else {
            cfg.max_size * case / (cfg.cases - 1)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(msg) = f(&mut rng, size) {
            let (min_size, min_msg) = shrink(&mut f, seed, size, msg, cfg.shrink_rounds);
            if cfg.persist {
                if let Some(path) = replay_path(name, &cfg) {
                    append_replay(&path, seed, min_size);
                }
            }
            panic!(
                "property '{name}' failed at case {case} \
                 (seed={seed:#x}, size={min_size}, shrunk from {size}): {min_msg}"
            );
        }
    }
}

/// Re-run the failing seed at smaller sizes; return the smallest failing
/// `(size, message)`.
fn shrink<F>(
    f: &mut F,
    seed: u64,
    failing_size: usize,
    msg: String,
    rounds: usize,
) -> (usize, String)
where
    F: FnMut(&mut StdRng, usize) -> CaseResult,
{
    let mut best_size = failing_size;
    let mut best_msg = msg;
    let mut lo = 0usize;
    let mut hi = failing_size;
    for _ in 0..rounds {
        if lo >= hi {
            break;
        }
        let mid = lo + (hi - lo) / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        match f(&mut rng, mid) {
            Err(m) => {
                best_size = mid;
                best_msg = m;
                hi = mid; // keep shrinking below
            }
            Ok(()) => {
                lo = mid + 1; // failure needs more size
            }
        }
    }
    (best_size, best_msg)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate properties sharing a base seed.
    crate::hash::fnv1a(name.as_bytes())
}

fn replay_path(name: &str, cfg: &PropConfig) -> Option<PathBuf> {
    if !cfg.persist && cfg.replay_dir.is_none() {
        return None;
    }
    let dir = match &cfg.replay_dir {
        Some(d) => d.clone(),
        None => {
            let root = std::env::var_os("CARGO_MANIFEST_DIR")?;
            PathBuf::from(root).join("tests")
        }
    };
    Some(dir.join(format!("{name}.propfail")))
}

/// Parse a replay file: one `seed=<hex> size=<dec>` pair per line, `#`
/// comments allowed.
fn read_replay_file(path: &std::path::Path) -> Vec<(u64, usize)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut seed = None;
        let mut size = None;
        for tok in line.split_whitespace() {
            if let Some(v) = tok.strip_prefix("seed=") {
                seed = u64::from_str_radix(v.trim_start_matches("0x"), 16).ok();
            } else if let Some(v) = tok.strip_prefix("size=") {
                size = v.parse::<usize>().ok();
            }
        }
        if let (Some(s), Some(z)) = (seed, size) {
            out.push((s, z));
        }
    }
    out
}

fn append_replay(path: &std::path::Path, seed: u64, size: usize) {
    let existing = read_replay_file(path);
    if existing.contains(&(seed, size)) {
        return;
    }
    let mut text = if path.exists() {
        std::fs::read_to_string(path).unwrap_or_default()
    } else {
        String::from(
            "# Failure-seed replay file written by autoindex-support::prop.\n\
             # Each line is one minimal failing case; runs replay these first.\n\
             # Delete lines (or the file) once the underlying bug is fixed.\n",
        )
    };
    let _ = writeln!(text, "seed={seed:#x} size={size}");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, text);
}

/// Assert a condition inside a property closure, returning a counterexample
/// description instead of panicking (so the harness can shrink it).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Assert equality inside a property closure; the counterexample message
/// includes both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) — {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0usize;
        property(
            "support_selftest_pass",
            PropConfig::ephemeral().cases(50),
            |rng, size| {
                count += 1;
                let v = rng.random_range(0..=size.max(1) as u64);
                prop_assert!(v <= size.max(1) as u64);
                Ok(())
            },
        );
        assert_eq!(count, 50);
    }

    #[test]
    fn size_ramps_from_zero_to_max() {
        let mut sizes = Vec::new();
        property(
            "support_selftest_ramp",
            PropConfig::ephemeral().cases(11).max_size(100),
            |_rng, size| {
                sizes.push(size);
                Ok(())
            },
        );
        assert_eq!(sizes.first(), Some(&0));
        assert_eq!(sizes.last(), Some(&100));
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn failing_property_panics_with_shrunk_size() {
        let result = std::panic::catch_unwind(|| {
            property(
                "support_selftest_fail",
                PropConfig::ephemeral().cases(32).max_size(100),
                |_rng, size| {
                    prop_assert!(size < 40, "size {size} too large");
                    Ok(())
                },
            );
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        // Shrinking should land on the boundary: the smallest failing size is 40.
        assert!(msg.contains("size=40"), "got: {msg}");
    }

    #[test]
    fn same_seed_same_cases() {
        let collect = || {
            let mut vals = Vec::new();
            property(
                "support_selftest_det",
                PropConfig::ephemeral().cases(20).seed(99),
                |rng, _| {
                    vals.push(rng.next_u64());
                    Ok(())
                },
            );
            vals
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn replay_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "autoindex-propfail-{}-{:x}",
            std::process::id(),
            hash_name("replay_file_roundtrip")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PropConfig {
            cases: 8,
            max_size: 50,
            replay_dir: Some(dir.clone()),
            persist: true,
            ..PropConfig::default()
        };

        // First run: fails, persists the minimal case.
        let first = std::panic::catch_unwind(|| {
            property("support_selftest_replay", cfg.clone(), |_rng, size| {
                prop_assert!(size < 20);
                Ok(())
            });
        });
        assert!(first.is_err());
        let path = dir.join("support_selftest_replay.propfail");
        let recorded = read_replay_file(&path);
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].1, 20, "minimal failing size persisted");

        // Second run with the bug still present: the recorded case fires
        // immediately (message names the replay file).
        let second = std::panic::catch_unwind(|| {
            property("support_selftest_replay", cfg.clone(), |_rng, size| {
                prop_assert!(size < 20);
                Ok(())
            });
        });
        let msg = second.unwrap_err();
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("recorded case"), "got: {msg}");

        // Third run with the bug fixed: replayed case passes, run is green.
        property("support_selftest_replay", cfg, |_rng, _size| Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prop_assert_eq_reports_values() {
        let f = |x: u32| -> CaseResult {
            prop_assert_eq!(x, 3u32);
            Ok(())
        };
        let err = f(5).unwrap_err();
        assert!(err.contains("left: 5"), "got: {err}");
        assert!(err.contains("right: 3"), "got: {err}");
        assert!(f(3).is_ok());
    }

    #[test]
    fn malformed_replay_lines_ignored() {
        let dir = std::env::temp_dir().join(format!(
            "autoindex-propfail-malformed-{}",
            std::process::id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("x.propfail");
        std::fs::write(
            &path,
            "# comment\n\ngarbage line\nseed=0xab size=7\nsize=3\n",
        )
        .unwrap();
        assert_eq!(read_replay_file(&path), vec![(0xab, 7)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
