//! Deterministic fault injection: one seeded registry of fault sites for
//! every instrumented operation, from the LSM's manifest commits to the
//! shard client's sockets.
//!
//! A [`FaultPlan`] is a set of rules, each binding a *site* (a short
//! string naming one instrumented operation, e.g. `atomic.fsync` or
//! `client.connect`) to an *action* (inject an I/O error, truncate a
//! write, fail an fsync, stall, or drop a connection) and a *trigger*
//! (the nth hit, every kth hit, or a seeded per-hit probability).
//! Instrumented code calls the hook functions in this module; with no
//! plan installed they cost one relaxed atomic load.
//!
//! Plans are deterministic: probabilistic triggers draw from a xorshift
//! stream seeded by `plan seed ^ fnv(site)`, so each site sees the same
//! fire/no-fire sequence regardless of how hits at *other* sites
//! interleave. The same spec + seed therefore reproduces the same fault
//! schedule, which is what lets `repro chaos` oracle-check every reply.
//!
//! Two installation scopes exist:
//!
//! * a **process-global** plan ([`install`], [`install_from_env`],
//!   [`clear`]) consulted by every hook — the CLI's `--faults` flag and
//!   the `COCONUT_FAULTS` / `COCONUT_FAULT_SEED` environment variables
//!   land here;
//! * **instance** plans held by individual components (e.g. the plan
//!   `LsmCoconut::set_fault_plan` installs on one index) and consulted
//!   through [`FaultPlan::fires`] before the global plan, so tests can
//!   target one index without perturbing the rest of the process.
//!
//! ## Spec syntax
//!
//! Comma-separated rules, `site=action[@trigger]`:
//!
//! * actions — `err` (injected I/O error), `short` (write a prefix, then
//!   error), `fsync` (the matching fsync fails), `stall:<ms>` (sleep),
//!   `drop` (close a connection);
//! * triggers — `<n>` (the nth hit only, 1-based), `every:<k>` (every
//!   kth hit), `p:<f>` (probability `f` per hit), or omitted (every hit).
//!
//! Example: `COCONUT_FAULTS='atomic.fsync=err@2,client.connect=drop@p:0.25'`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::error::{Error, Result};

/// Environment variable holding a fault spec applied process-wide.
pub const ENV_SPEC: &str = "COCONUT_FAULTS";
/// Environment variable holding the seed for probabilistic triggers.
pub const ENV_SEED: &str = "COCONUT_FAULT_SEED";

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Fail the operation with an injected I/O error.
    Err,
    /// Write only a prefix of the payload, then fail (a torn write).
    ShortWrite,
    /// Fail the fsync that was supposed to make the operation durable.
    FsyncErr,
    /// Sleep this long before the operation proceeds normally.
    Stall(Duration),
    /// Drop the connection (socket hooks only; file hooks treat it as
    /// [`FaultAction::Err`]).
    Disconnect,
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on the nth hit of the site (1-based), exactly once.
    Nth(u64),
    /// Fire on every kth hit of the site.
    Every(u64),
    /// Fire each hit with this probability (in parts per 2^32), drawn
    /// from the site's seeded stream.
    Prob(u32),
    /// Fire on every hit.
    Always,
}

/// One `site=action@trigger` rule with its per-rule hit counter and
/// deterministic random stream.
#[derive(Debug)]
struct Rule {
    site: String,
    action: FaultAction,
    trigger: Trigger,
    hits: AtomicU64,
    /// xorshift64* state for `Trigger::Prob`; seeded per site so streams
    /// are independent of cross-site interleaving.
    rng: Mutex<u64>,
}

impl Rule {
    fn fires(&self) -> bool {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.trigger {
            Trigger::Nth(n) => hit == n,
            Trigger::Every(k) => hit.is_multiple_of(k),
            Trigger::Always => true,
            Trigger::Prob(ppb) => {
                let mut state = self
                    .rng
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32) < ppb
            }
        }
    }
}

/// FNV-1a over a site name, used to derive per-site random streams.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A parsed, seeded set of fault rules. Cheap to share (`Arc`), safe to
/// consult from any thread.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no rules; nothing ever fires).
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            rules: Vec::new(),
            injected: AtomicU64::new(0),
        }
    }

    /// Parse a spec string (see the module docs for the syntax) with the
    /// given seed for probabilistic triggers.
    pub fn parse(spec: &str, seed: u64) -> Result<Self> {
        let mut plan = FaultPlan {
            seed,
            rules: Vec::new(),
            injected: AtomicU64::new(0),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, rest) = part.split_once('=').ok_or_else(|| {
                Error::invalid(format!("fault rule '{part}' is not site=action[@trigger]"))
            })?;
            let (action_s, trigger_s) = match rest.split_once('@') {
                Some((a, t)) => (a, Some(t)),
                None => (rest, None),
            };
            let action = parse_action(action_s)?;
            let trigger = match trigger_s {
                None => Trigger::Always,
                Some(t) => parse_trigger(t)?,
            };
            plan.add_rule(site, action, trigger);
        }
        Ok(plan)
    }

    /// Add one rule programmatically (what [`FaultPlan::parse`] does per
    /// rule of a spec).
    pub fn add_rule(&mut self, site: &str, action: FaultAction, trigger: Trigger) {
        self.rules.push(Rule {
            site: site.to_string(),
            action,
            trigger,
            hits: AtomicU64::new(0),
            rng: Mutex::new((self.seed ^ fnv64(site)) | 1),
        });
    }

    /// Total faults this plan has injected so far (all rules).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Record one hit at `site`; returns the firing action, if any.
    /// Stalls are *performed here* (the thread sleeps) and then treated
    /// as non-firing, so callers only branch on error-like actions.
    pub fn fires(&self, site: &str) -> Option<FaultAction> {
        let mut fired = None;
        for rule in self.rules.iter().filter(|r| r.site == site) {
            if !rule.fires() {
                continue;
            }
            if let FaultAction::Stall(d) = rule.action {
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
            } else if fired.is_none() {
                self.injected.fetch_add(1, Ordering::Relaxed);
                fired = Some(rule.action);
            }
        }
        fired
    }

    /// Hit `site`; return an injected-I/O-error `Err` if an error-like
    /// rule fires there (stalls sleep inline, disconnects map to errors
    /// at file sites).
    pub fn check(&self, site: &str) -> Result<()> {
        match self.fires(site) {
            None => Ok(()),
            Some(_) => Err(injected_error(site)),
        }
    }
}

/// The error every injected file-level fault surfaces: an `Error::Io`
/// whose message names the site, so tests and logs can tell injected
/// faults from real ones.
pub fn injected_error(site: &str) -> Error {
    Error::Io(std::io::Error::other(format!(
        "injected fault at {site} (fault plan)"
    )))
}

fn parse_action(s: &str) -> Result<FaultAction> {
    if let Some(ms) = s.strip_prefix("stall:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| Error::invalid(format!("fault stall wants milliseconds, got '{ms}'")))?;
        return Ok(FaultAction::Stall(Duration::from_millis(ms)));
    }
    match s {
        "err" => Ok(FaultAction::Err),
        "short" => Ok(FaultAction::ShortWrite),
        "fsync" => Ok(FaultAction::FsyncErr),
        "drop" => Ok(FaultAction::Disconnect),
        other => Err(Error::invalid(format!(
            "unknown fault action '{other}' (err|short|fsync|stall:<ms>|drop)"
        ))),
    }
}

fn parse_trigger(s: &str) -> Result<Trigger> {
    if let Some(k) = s.strip_prefix("every:") {
        let k: u64 = k
            .parse()
            .map_err(|_| Error::invalid(format!("fault trigger every: wants an integer: '{k}'")))?;
        if k == 0 {
            return Err(Error::invalid("fault trigger every:0 would never fire"));
        }
        return Ok(Trigger::Every(k));
    }
    if let Some(p) = s.strip_prefix("p:") {
        let p: f64 = p
            .parse()
            .map_err(|_| Error::invalid(format!("fault trigger p: wants a probability: '{p}'")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(Error::invalid(format!(
                "fault probability {p} outside [0, 1]"
            )));
        }
        return Ok(Trigger::Prob((p * u32::MAX as f64) as u32));
    }
    let n: u64 = s
        .parse()
        .map_err(|_| Error::invalid(format!("unknown fault trigger '{s}'")))?;
    if n == 0 {
        return Err(Error::invalid(
            "fault trigger @0 would never fire (1-based)",
        ));
    }
    Ok(Trigger::Nth(n))
}

/// Fast-path flag: true iff a global plan is installed. Hooks check it
/// with one relaxed load before touching the mutex.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(None))
}

/// Install `plan` process-wide; every hook consults it until [`clear`].
/// Returns the shared handle (e.g. to read [`FaultPlan::injected`]).
pub fn install(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    *global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&plan));
    ACTIVE.store(true, Ordering::Release);
    plan
}

/// Remove the process-global plan (hooks become no-ops again).
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The currently installed global plan, if any.
pub fn current() -> Option<Arc<FaultPlan>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Install a plan from `COCONUT_FAULTS` (+ optional `COCONUT_FAULT_SEED`)
/// if the variable is set; returns the handle when one was installed.
/// Binaries call this once at startup so operators can inject faults
/// without code changes.
pub fn install_from_env() -> Result<Option<Arc<FaultPlan>>> {
    let Ok(spec) = std::env::var(ENV_SPEC) else {
        return Ok(None);
    };
    if spec.trim().is_empty() {
        return Ok(None);
    }
    let seed = match std::env::var(ENV_SEED) {
        Ok(s) => s
            .parse()
            .map_err(|_| Error::invalid(format!("{ENV_SEED} wants an integer, got '{s}'")))?,
        Err(_) => 0,
    };
    Ok(Some(install(FaultPlan::parse(&spec, seed)?)))
}

/// Hit `site` on the global plan: sleeps through stalls, returns an
/// injected error when an error-like rule fires, and is a no-op (one
/// atomic load) when no plan is installed.
pub fn check(site: &str) -> Result<()> {
    match current() {
        None => Ok(()),
        Some(p) => p.check(site),
    }
}

/// Hit `site` on the global plan and return the firing action (socket
/// hooks use this to distinguish `drop` from `err`).
pub fn fires(site: &str) -> Option<FaultAction> {
    current().and_then(|p| p.fires(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse(
            "atomic.fsync=err@2, client.connect=drop@p:0.5,extsort.spill=short,\
             server.read=stall:5@every:3",
            42,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].trigger, Trigger::Nth(2));
        assert_eq!(plan.rules[1].action, FaultAction::Disconnect);
        assert_eq!(plan.rules[2].trigger, Trigger::Always);
        assert_eq!(
            plan.rules[3].action,
            FaultAction::Stall(Duration::from_millis(5))
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "siteonly",
            "a=explode",
            "a=err@zero",
            "a=err@0",
            "a=err@every:0",
            "a=err@p:1.5",
            "a=stall:abc",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "should reject {bad:?}");
        }
        // Empty specs and stray commas are fine (no rules).
        assert!(FaultPlan::parse("", 0).unwrap().rules.is_empty());
        assert!(FaultPlan::parse(" , ", 0).unwrap().rules.is_empty());
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::parse("x=err@3", 0).unwrap();
        assert!(plan.check("x").is_ok());
        assert!(plan.check("x").is_ok());
        let err = plan.check("x").unwrap_err();
        assert!(err.to_string().contains("injected fault at x"), "{err}");
        for _ in 0..10 {
            assert!(plan.check("x").is_ok());
        }
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn every_fires_periodically_and_sites_are_independent() {
        let plan = FaultPlan::parse("a=err@every:2,b=err@every:3", 0).unwrap();
        let fired_a: Vec<bool> = (0..6).map(|_| plan.check("a").is_err()).collect();
        let fired_b: Vec<bool> = (0..6).map(|_| plan.check("b").is_err()).collect();
        assert_eq!(fired_a, [false, true, false, true, false, true]);
        assert_eq!(fired_b, [false, false, true, false, false, true]);
        assert!(plan.check("unknown.site").is_ok());
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let sample = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse("s=err@p:0.5", seed).unwrap();
            (0..64).map(|_| plan.check("s").is_err()).collect()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
        let fired = sample(7).iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn global_install_clear_roundtrip() {
        // Serialized with other global-state tests by the env lock the
        // suite does not have; keep the window tiny and always clear.
        clear();
        assert!(check("g.site").is_ok());
        let handle = install(FaultPlan::parse("g.site=err", 0).unwrap());
        assert!(check("g.site").is_err());
        assert_eq!(handle.injected(), 1);
        assert!(matches!(fires("g.site"), Some(FaultAction::Err)));
        clear();
        assert!(check("g.site").is_ok());
    }

    #[test]
    fn stall_sleeps_but_does_not_error() {
        let plan = FaultPlan::parse("s=stall:10", 0).unwrap();
        let t0 = std::time::Instant::now();
        assert!(plan.check("s").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(plan.injected(), 1);
    }
}
