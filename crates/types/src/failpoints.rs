//! Deterministic fault injection for the GEMS stack.
//!
//! A *failpoint* is a named site in the code (`net/frame/write-corrupt`,
//! `core/persist/save-io`, …) where a fault can be armed at runtime.
//! Faults are armed on a [`Faults`] handle, and every object that owns
//! fault sites owns one handle: a `graql_core::Server` (shared with its
//! WAL, its query guards and the network server and replica tailer that
//! wrap it) or a `graql_net::RemoteSession`. A site consults only its
//! owner's handle, so a fault armed on one server can never fire in
//! another — tests running side by side in one process are isolated by
//! construction. The handle is always compiled, but the call sites
//! expanded by [`failpoint!`](crate::failpoint) are gated behind each
//! crate's `failpoints` cargo feature, so release builds of the engine
//! carry **zero** fault-injection code on their hot paths.
//!
//! Site names follow `area/component/action` (see `TESTING.md`). A
//! spawned `gems-serve` child is armed through the environment, which
//! its `main` reads once with [`Faults::from_env`]:
//!
//! ```text
//! GRAQL_FAILPOINTS="net/server/exec-delay=1*delay(200);net/frame/write-corrupt=25%corrupt"
//! GRAQL_FAILPOINT_SEED=42
//! ```
//!
//! A spec is `[PCT%][CNT*]ACTION[(ARG)]`: an optional firing probability,
//! an optional maximum number of firings, and the action itself. All
//! randomness is drawn from a per-site SplitMix64 stream derived from the
//! arming seed and the site name, so a given `(seed, site, hit index)`
//! triple always makes the same decision — chaos runs are replayable.
//!
//! ```
//! use graql_types::failpoints::Faults;
//!
//! let faults = Faults::default();
//! faults.arm("net/frame/write-err", "2*err", 0).unwrap();
//! assert!(faults.hit("net/frame/write-err").is_some());
//! assert!(faults.hit("net/frame/write-err").is_some());
//! assert!(faults.hit("net/frame/write-err").is_none()); // count exhausted
//! assert_eq!(faults.fired_count("net/frame/write-err"), 2);
//! // A fault reaches only the handle it was armed on (and its clones).
//! assert!(Faults::default().hit("net/frame/write-err").is_none());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an armed failpoint does when it fires. How each action is applied
/// is up to the site: frame writers interpret `Corrupt`/`Truncate`, the
/// accept loop interprets `Refuse`, and every site honours `Delay`/`Err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Fail the operation with an injected (typed) error.
    Err,
    /// Flip bits in the payload so the peer sees a decode failure.
    Corrupt,
    /// Write only part of the frame, then fail — a mid-frame death.
    Truncate,
    /// Refuse the operation outright (e.g. close at accept time).
    Refuse,
}

/// A parsed failpoint specification: `[PCT%][CNT*]ACTION[(ARG)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub action: Action,
    /// Firing probability in percent (1–100). 100 = always.
    pub pct: u8,
    /// Maximum number of firings; `None` = unlimited.
    pub count: Option<u64>,
}

impl FaultSpec {
    pub fn always(action: Action) -> FaultSpec {
        FaultSpec {
            action,
            pct: 100,
            count: None,
        }
    }
}

/// Parses `[PCT%][CNT*]ACTION[(ARG)]`, e.g. `err`, `3*err`, `25%corrupt`,
/// `50%2*delay(150)`.
pub fn parse_spec(spec: &str) -> Result<FaultSpec, String> {
    let mut rest = spec.trim();
    let mut pct: u8 = 100;
    let mut count: Option<u64> = None;
    if let Some((p, tail)) = rest.split_once('%') {
        pct = p
            .trim()
            .parse::<u8>()
            .ok()
            .filter(|p| (1..=100).contains(p))
            .ok_or_else(|| format!("bad probability {p:?} in failpoint spec {spec:?}"))?;
        rest = tail;
    }
    if let Some((c, tail)) = rest.split_once('*') {
        count = Some(
            c.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad count {c:?} in failpoint spec {spec:?}"))?,
        );
        rest = tail;
    }
    let rest = rest.trim();
    let (name, arg) = match rest.split_once('(') {
        Some((name, tail)) => {
            let arg = tail
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed argument in failpoint spec {spec:?}"))?;
            (name.trim(), Some(arg.trim()))
        }
        None => (rest, None),
    };
    let action = match (name, arg) {
        ("delay", Some(ms)) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay millis {ms:?} in failpoint spec {spec:?}"))?;
            Action::Delay(Duration::from_millis(ms))
        }
        ("delay", None) => Action::Delay(Duration::from_millis(50)),
        ("err", None) => Action::Err,
        ("corrupt", None) => Action::Corrupt,
        ("truncate", None) => Action::Truncate,
        ("refuse", None) => Action::Refuse,
        _ => return Err(format!("unknown action in failpoint spec {spec:?}")),
    };
    Ok(FaultSpec { action, pct, count })
}

#[derive(Debug)]
struct PointState {
    spec: FaultSpec,
    /// How many times this site has fired so far.
    fired: u64,
    /// Per-site SplitMix64 state for probability decisions.
    rng: u64,
}

#[derive(Debug, Default)]
struct Sites {
    points: Mutex<HashMap<String, PointState>>,
    /// Fast path: a single load when nothing is armed.
    armed: AtomicBool,
}

/// The fault state of one object under test: which sites are armed, with
/// what spec, and how often each has fired. Cloning is an `Arc` clone and
/// yields a handle to the *same* state, which is how a server shares its
/// faults with its WAL and its per-query guards. [`Faults::default`] is
/// unarmed.
#[derive(Debug, Clone, Default)]
pub struct Faults(Arc<Sites>);

impl Faults {
    /// Arms (or re-arms) `site` from a textual spec. The site's RNG
    /// stream, derived from `seed` and the site name, and its fired
    /// count reset, so arming is a deterministic starting point
    /// regardless of what ran before.
    pub fn arm(&self, site: &str, spec: &str, seed: u64) -> Result<(), String> {
        let spec = parse_spec(spec)?;
        self.0
            .points
            .lock()
            .expect("fault state lock poisoned")
            .insert(
                site.to_string(),
                PointState {
                    spec,
                    fired: 0,
                    rng: site_seed(seed, site),
                },
            );
        self.0.armed.store(true, Ordering::Release);
        Ok(())
    }

    /// A handle armed from `GRAQL_FAILPOINTS` (`site=spec;…`) under the
    /// seed in `GRAQL_FAILPOINT_SEED` (default 0). Malformed entries are
    /// reported on stderr and skipped. Only process entry points call
    /// this: it is how a test harness reaches into a child process.
    pub fn from_env() -> Faults {
        let faults = Faults::default();
        let seed = std::env::var("GRAQL_FAILPOINT_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let specs = std::env::var("GRAQL_FAILPOINTS").unwrap_or_default();
        for entry in specs.split(';').filter(|e| !e.trim().is_empty()) {
            let armed = match entry.split_once('=') {
                Some((site, spec)) => faults.arm(site.trim(), spec, seed),
                None => Err(format!("malformed entry {entry:?}")),
            };
            if let Err(e) = armed {
                eprintln!("graql: ignoring GRAQL_FAILPOINTS entry: {e}");
            }
        }
        faults
    }

    /// Evaluates `site`: returns the action to apply if the site is
    /// armed, its count is not exhausted, and the probability roll
    /// passes. Call sites should use the [`failpoint!`](crate::failpoint)
    /// macro rather than calling this directly.
    #[inline]
    pub fn hit(&self, site: &str) -> Option<Action> {
        if !self.0.armed.load(Ordering::Acquire) {
            return None;
        }
        self.hit_slow(site)
    }

    #[cold]
    fn hit_slow(&self, site: &str) -> Option<Action> {
        let mut points = self.0.points.lock().expect("fault state lock poisoned");
        let state = points.get_mut(site)?;
        if state.spec.count.is_some_and(|max| state.fired >= max) {
            return None;
        }
        if state.spec.pct < 100 && splitmix64(&mut state.rng) % 100 >= u64::from(state.spec.pct) {
            return None;
        }
        state.fired += 1;
        Some(state.spec.action)
    }

    /// How many times `site` has fired since it was last armed.
    pub fn fired_count(&self, site: &str) -> u64 {
        let points = self.0.points.lock().expect("fault state lock poisoned");
        points.get(site).map_or(0, |s| s.fired)
    }
}

/// Derives the per-site RNG stream from the arming seed and the site
/// name (FNV-1a over the name, mixed with the seed).
fn site_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands a failpoint call site that consults the handle `faults`. The
/// expansion is gated on the **calling crate's** `failpoints` cargo
/// feature, so crates that opt in declare `failpoints = []` in their
/// `[features]` and the sites vanish entirely (not even a branch; the
/// handle is only borrowed) when the feature is off.
///
/// Two forms:
///
/// - `failpoint!(faults, "site")` — honours `Delay` only (sleep, then
///   continue).
/// - `failpoint!(faults, "site", GraqlError::exec)` — additionally
///   honours `Err` by early-returning
///   `Err(ctor("failpoint 'site': injected error"))` from the enclosing
///   function (which must return [`Result`](crate::Result)).
///
/// Sites with richer semantics (`Corrupt`, `Truncate`, `Refuse`) match on
/// [`Faults::hit`] directly under `#[cfg(feature = "failpoints")]`.
#[macro_export]
macro_rules! failpoint {
    ($faults:expr, $name:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some($crate::failpoints::Action::Delay(__d)) = $faults.hit($name) {
                ::std::thread::sleep(__d);
            }
        }
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = &$faults;
        }
    };
    ($faults:expr, $name:expr, $ctor:expr) => {
        #[cfg(feature = "failpoints")]
        {
            match $faults.hit($name) {
                Some($crate::failpoints::Action::Delay(__d)) => ::std::thread::sleep(__d),
                Some($crate::failpoints::Action::Err) => {
                    return ::std::result::Result::Err($ctor(::std::format!(
                        "failpoint '{}': injected error",
                        $name
                    )));
                }
                _ => {}
            }
        }
        #[cfg(not(feature = "failpoints"))]
        {
            let _ = &$faults;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("err").unwrap(), FaultSpec::always(Action::Err));
        assert_eq!(
            parse_spec("3*err").unwrap(),
            FaultSpec {
                action: Action::Err,
                pct: 100,
                count: Some(3)
            }
        );
        assert_eq!(
            parse_spec("25%corrupt").unwrap(),
            FaultSpec {
                action: Action::Corrupt,
                pct: 25,
                count: None
            }
        );
        assert_eq!(
            parse_spec("50%2*delay(150)").unwrap(),
            FaultSpec {
                action: Action::Delay(Duration::from_millis(150)),
                pct: 50,
                count: Some(2)
            }
        );
        assert_eq!(parse_spec("truncate").unwrap().action, Action::Truncate);
        assert_eq!(parse_spec("refuse").unwrap().action, Action::Refuse);
        assert!(parse_spec("explode").is_err());
        assert!(parse_spec("0%err").is_err());
        assert!(parse_spec("delay(abc)").is_err());
        assert!(parse_spec("delay(100").is_err());
    }

    #[test]
    fn count_limits_firings() {
        let faults = Faults::default();
        faults.arm("test/count/site", "2*err", 0).unwrap();
        assert_eq!(faults.hit("test/count/site"), Some(Action::Err));
        assert_eq!(faults.hit("test/count/site"), Some(Action::Err));
        assert_eq!(faults.hit("test/count/site"), None);
        assert_eq!(faults.fired_count("test/count/site"), 2);
    }

    #[test]
    fn probability_is_deterministic_by_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let faults = Faults::default();
            faults.arm("test/prob/site", "50%err", seed).unwrap();
            (0..64)
                .map(|_| faults.hit("test/prob/site").is_some())
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert_ne!(a, c, "different seed, different firing pattern");
        let fired = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fired),
            "50% of 64 should fire roughly half the time, got {fired}"
        );
    }

    #[test]
    fn unarmed_sites_do_not_fire() {
        let faults = Faults::default();
        assert_eq!(faults.hit("test/never/armed"), None);
        faults.arm("test/other/site", "err", 0).unwrap();
        assert_eq!(faults.hit("test/never/armed"), None);
    }

    #[test]
    fn clones_share_state_and_handles_do_not() {
        let a = Faults::default();
        let b = Faults::default();
        let a2 = a.clone();
        a.arm("test/share/site", "err", 0).unwrap();
        assert_eq!(a2.hit("test/share/site"), Some(Action::Err));
        assert_eq!(a.fired_count("test/share/site"), 1);
        assert_eq!(b.hit("test/share/site"), None);
        assert_eq!(b.fired_count("test/share/site"), 0);
    }
}
