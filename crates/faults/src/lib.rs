//! # diversity-faults
//!
//! Deterministic, seeded fault injection for the diversity-maximization
//! serving stack — the chaos-engineering counterpart of the
//! `diversity-obs` recorder.
//!
//! A [`FaultPlan`] decides, at **named injection points** threaded
//! through the workspace, whether to fire one of five fault kinds:
//!
//! | site constant                | kind                  | effect at the call site |
//! |------------------------------|-----------------------|--------------------------|
//! | [`sites::SHARD_MUTATE`]      | [`FaultKind::ShardPanic`]    | `panic!` inside a shard mutation (the pool's `catch_unwind` isolates it and quarantines the shard) |
//! | [`sites::LOCK_HOLD`]         | [`FaultKind::SlowLock`]      | sleeps `slow_ms` while a shard lock is **held** (a straggler / lock-convoy) |
//! | [`sites::CHECKPOINT_BYTES`]  | [`FaultKind::CorruptBytes`]  | truncates serialized checkpoint text so the restore path must reject it |
//! | [`sites::MR_PARTITION`]      | [`FaultKind::DropPartition`] | drops one reducer's output, forcing the round driver's retry-with-reshuffle |
//! | [`sites::QUERY`]             | [`FaultKind::Transient`]     | a transient query-path error the pool retries with bounded backoff |
//! | [`sites::RECOVERY`]          | [`FaultKind::Transient`]     | a transient failure *during* shard recovery, exercising the backoff loop |
//! | [`sites::REBALANCE`]         | [`FaultKind::ShardPanic`]    | `panic!` mid-rebalance, before the shard-set swap commits (the pool's `catch_unwind` keeps the old set serving — rebalance is all-or-nothing) |
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, site, seq)` where `seq`
//! is a per-site call counter: the `seq`-th visit to a site fires iff
//! `hash(seed, site, seq)` maps below the site's configured rate. Which
//! *operation* gets hit can vary with thread interleaving (a different
//! op may make the `seq`-th visit), but the **fault log** — the ordered
//! per-site set of `(site, seq, kind)` events in [`FaultPlan::log`] —
//! is identical across runs with the same seed and the same per-site
//! visit counts. A single-threaded schedule is therefore bit-for-bit
//! reproducible, which is what the chaos harness's determinism audit
//! checks.
//!
//! ## Who owns a plan
//!
//! A plan belongs to what it perturbs; there is no process-global plan.
//! The serving pool takes one with `ShardPool::with_faults` and rolls
//! its five sites ([`sites::SHARD_MUTATE`], [`sites::LOCK_HOLD`],
//! [`sites::QUERY`], [`sites::RECOVERY`], [`sites::REBALANCE`]) on it
//! through the [`FaultPlan`] methods; the MapReduce runtime takes one
//! with `MapReduceRuntime::with_faults` and rolls
//! [`sites::MR_PARTITION`] on it. An owner without a plan rolls
//! nothing, so owners in one process never see each other's faults.
//! [`FaultPlan::disarm`] ends a chaos phase without rebuilding the
//! owner.
//!
//! ```
//! use diversity_faults::{sites, FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::from_spec(FaultSpec { drop: 1.0, ..FaultSpec::from_seed(7) });
//! assert!(plan.should_drop(sites::MR_PARTITION));
//! plan.disarm();
//! assert!(!plan.should_drop(sites::MR_PARTITION)); // inert from here on
//! assert_eq!(plan.log().len(), 1);
//! ```
//!
//! The `DIVMAX_FAULTS` environment spec ([`FaultPlan::from_env`],
//! strict-parsed — see [`FaultSpec::parse`]) lets CI chaos jobs pin a
//! seed without code changes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The named injection points threaded through the workspace. Each
/// constant documents which layer visits it; rates come from the
/// plan's [`FaultSpec`].
pub mod sites {
    /// Inside a shard **mutation** (insert/delete), before it changes
    /// anything — fires [`super::FaultKind::ShardPanic`].
    pub const SHARD_MUTATE: &str = "serve.shard.mutate";
    /// While a shard write lock is **held** — fires
    /// [`super::FaultKind::SlowLock`] (sleeps `slow_ms`).
    pub const LOCK_HOLD: &str = "serve.lock.hold";
    /// Where checkpoint text crosses a process boundary — fires
    /// [`super::FaultKind::CorruptBytes`] (truncates the text).
    pub const CHECKPOINT_BYTES: &str = "serve.checkpoint.bytes";
    /// After a MapReduce reducer produced its output — fires
    /// [`super::FaultKind::DropPartition`] (output discarded, the round
    /// driver retries).
    pub const MR_PARTITION: &str = "mr.partition";
    /// At warm-query admission — fires [`super::FaultKind::Transient`]
    /// (the pool retries with bounded backoff).
    pub const QUERY: &str = "serve.query";
    /// During shard recovery — fires [`super::FaultKind::Transient`]
    /// (the recovery loop backs off and retries).
    pub const RECOVERY: &str = "serve.recovery";
    /// Mid-rebalance, after the cut is imaged but before the new shard
    /// set is committed — fires [`super::FaultKind::ShardPanic`]. The
    /// pool's `catch_unwind` makes the swap all-or-nothing: an injected
    /// panic here must leave the old shard set serving unchanged
    /// answers.
    pub const REBALANCE: &str = "serve.rebalance";
}

/// What kind of fault an event injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A `panic!` inside an engine mutation.
    ShardPanic,
    /// A sleep while holding a lock.
    SlowLock,
    /// Corrupted (truncated) checkpoint text.
    CorruptBytes,
    /// A dropped MapReduce partition output.
    DropPartition,
    /// A transient, retryable failure.
    Transient,
}

impl FaultKind {
    /// The obs counter bumped when this kind fires.
    fn counter(self) -> &'static str {
        match self {
            FaultKind::ShardPanic => "fault.panic",
            FaultKind::SlowLock => "fault.slow",
            FaultKind::CorruptBytes => "fault.corrupt",
            FaultKind::DropPartition => "fault.drop",
            FaultKind::Transient => "fault.transient",
        }
    }
}

/// One injected fault: the site, the per-site visit number that fired,
/// and the kind. The ordered log of these ([`FaultPlan::log`]) is the
/// deterministic artifact two same-seed runs must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The injection point ([`sites`]).
    pub site: &'static str,
    /// The per-site visit counter value that fired.
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// The rates and seed of a fault plan. Each rate is a probability in
/// `[0, 1]` applied independently at the matching [`sites`] constant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic decision hash.
    pub seed: u64,
    /// [`sites::SHARD_MUTATE`] panic rate.
    pub panic: f64,
    /// [`sites::LOCK_HOLD`] slow-lock rate.
    pub slow: f64,
    /// Milliseconds a fired slow-lock sleeps while holding the lock.
    pub slow_ms: u64,
    /// [`sites::CHECKPOINT_BYTES`] corruption rate.
    pub corrupt: f64,
    /// [`sites::MR_PARTITION`] drop rate.
    pub drop: f64,
    /// [`sites::QUERY`] / [`sites::RECOVERY`] transient-failure rate.
    pub transient: f64,
}

impl FaultSpec {
    /// The documented default chaos mix for `seed`: low but non-zero
    /// rates across every kind, sized so a few hundred operations see
    /// a handful of faults of each kind.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            panic: 0.01,
            slow: 0.002,
            slow_ms: 1,
            corrupt: 0.02,
            drop: 0.02,
            transient: 0.01,
        }
    }

    /// Strict-parses a `DIVMAX_FAULTS` spec: comma-separated
    /// `key=value` pairs, e.g.
    /// `seed=42,panic=0.02,slow=0.01,slow_ms=2,corrupt=0.1,drop=0.05,transient=0.02`.
    ///
    /// `seed` is **required**; every rate defaults to `0.0` (`slow_ms`
    /// to `1`), so a spec enables exactly the kinds it names. Parsing
    /// is strict in the `DIVMAX_THREADS` tradition: unknown keys,
    /// duplicate keys, malformed numbers, and rates outside `[0, 1]`
    /// reject the **whole spec** — a typo must never half-install a
    /// chaos plan.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut spec = Self {
            seed: 0,
            panic: 0.0,
            slow: 0.0,
            slow_ms: 1,
            corrupt: 0.0,
            drop: 0.0,
            transient: 0.0,
        };
        let mut seen: Vec<&str> = Vec::new();
        let mut has_seed = false;
        for pair in raw.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                return Err("empty key=value pair".into());
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not key=value"))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!("duplicate key `{key}`"));
            }
            let rate = |v: &str| {
                diversity_obs::env::parse_unit_f64(v).map_err(|why| format!("{key}: {why}"))
            };
            match key {
                "seed" => {
                    spec.seed = diversity_obs::env::parse_u64(value)
                        .map_err(|why| format!("seed: {why}"))?;
                    has_seed = true;
                }
                "slow_ms" => {
                    spec.slow_ms = diversity_obs::env::parse_u64(value)
                        .map_err(|why| format!("slow_ms: {why}"))?;
                }
                "panic" => spec.panic = rate(value)?,
                "slow" => spec.slow = rate(value)?,
                "corrupt" => spec.corrupt = rate(value)?,
                "drop" => spec.drop = rate(value)?,
                "transient" => spec.transient = rate(value)?,
                other => return Err(format!("unknown key `{other}`")),
            }
            seen.push(key);
        }
        if !has_seed {
            return Err("missing required key `seed`".into());
        }
        Ok(spec)
    }
}

/// SplitMix64 finalizer — the same integer hash the dataset generators
/// use; full-period and avalanche-complete, so per-seq decisions are
/// independent for any fixed rate.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, mixed into the decision hash so distinct
/// sites see independent fault streams under one seed.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The decision value for `(seed, site, seq)` as a unit-interval float
/// (53 mantissa bits): the visit fires iff this is `< rate`.
fn decision(seed: u64, site: &str, seq: u64) -> f64 {
    let h = splitmix64(
        seed ^ site_hash(site).rotate_left(17) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded fault plan: per-site visit counters, the spec's rates, and
/// the ordered log of fired events. Hand one to what it perturbs (the
/// serving pool's or the MapReduce runtime's `with_faults`), which
/// rolls its sites through the methods below.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-site visit counters: the `seq` of the decision hash.
    counters: Mutex<HashMap<&'static str, u64>>,
    /// Every fired event, in firing order.
    log: Mutex<Vec<FaultEvent>>,
    /// Set by [`disarm`](Self::disarm): every later visit passes clean
    /// and uncounted.
    disarmed: AtomicBool,
}

impl FaultPlan {
    /// A plan with the default chaos mix for `seed`
    /// ([`FaultSpec::from_seed`]).
    pub fn from_seed(seed: u64) -> Self {
        Self::from_spec(FaultSpec::from_seed(seed))
    }

    /// A plan with explicit rates.
    pub fn from_spec(spec: FaultSpec) -> Self {
        Self {
            spec,
            counters: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            disarmed: AtomicBool::new(false),
        }
    }

    /// A plan from the `DIVMAX_FAULTS` environment spec
    /// ([`FaultSpec::parse`]). Unset → `None`. Set but invalid → `None`
    /// too (never a half-parsed plan), with a once-per-process stderr
    /// warning and the `env.invalid_value` counters through the obs
    /// machinery.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("DIVMAX_FAULTS").ok()?;
        match FaultSpec::parse(&raw) {
            Ok(spec) => Some(Self::from_spec(spec)),
            Err(why) => {
                diversity_obs::env::report_rejected("DIVMAX_FAULTS", &raw, &why, "no fault plan");
                None
            }
        }
    }

    /// Ends the plan: every later visit passes clean and is not
    /// counted, so the log stays as it was. A harness calls this where
    /// a chaos phase ends; the plan's owner keeps running fault-free.
    pub fn disarm(&self) {
        self.disarmed.store(true, Ordering::Release);
    }

    /// `panic!`s when this visit to `site` fires
    /// ([`FaultKind::ShardPanic`]). Call **inside** the `catch_unwind`
    /// scope whose isolation is under test.
    pub fn panic_point(&self, site: &'static str) {
        if let Some(seq) = self.roll(site, FaultKind::ShardPanic, self.spec.panic) {
            panic!("injected fault: shard panic at {site} (seq {seq})");
        }
    }

    /// Sleeps `slow_ms` when this visit to `site` fires
    /// ([`FaultKind::SlowLock`]); call while holding the lock under
    /// stress.
    pub fn slow_point(&self, site: &'static str) {
        if self
            .roll(site, FaultKind::SlowLock, self.spec.slow)
            .is_some()
        {
            std::thread::sleep(Duration::from_millis(self.spec.slow_ms));
        }
    }

    /// `true` when this visit to `site` should fail transiently
    /// ([`FaultKind::Transient`]); the caller retries with backoff.
    pub fn should_fail(&self, site: &'static str) -> bool {
        self.roll(site, FaultKind::Transient, self.spec.transient)
            .is_some()
    }

    /// `true` when this visit's MapReduce output should be discarded
    /// ([`FaultKind::DropPartition`]).
    pub fn should_drop(&self, site: &'static str) -> bool {
        self.roll(site, FaultKind::DropPartition, self.spec.drop)
            .is_some()
    }

    /// When this visit to `site` fires ([`FaultKind::CorruptBytes`]),
    /// truncates `text` at a deterministic interior position (so
    /// serialized JSON loses its closing delimiter) and returns `true`.
    pub fn corrupt_text(&self, site: &'static str, text: &mut String) -> bool {
        let Some(seq) = self.roll(site, FaultKind::CorruptBytes, self.spec.corrupt) else {
            return false;
        };
        if text.len() < 2 {
            text.clear();
            return true;
        }
        let mut pos = 1 + (splitmix64(seq ^ 0xC0DE_C0DE) as usize) % (text.len() - 1);
        while !text.is_char_boundary(pos) {
            pos -= 1;
        }
        text.truncate(pos);
        true
    }

    /// The spec this plan decides with.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Every fault fired so far, in firing order — the deterministic
    /// artifact the chaos harness compares across same-seed runs.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Visits `site`: bumps its counter and fires `kind` at `rate`.
    /// Returns the firing visit's `seq`, or `None` when the visit
    /// passes clean.
    fn roll(&self, site: &'static str, kind: FaultKind, rate: f64) -> Option<u64> {
        if self.disarmed.load(Ordering::Acquire) {
            return None;
        }
        let seq = {
            let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let c = counters.entry(site).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        if decision(self.spec.seed, site, seq) < rate {
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(FaultEvent { site, seq, kind });
            diversity_obs::count("fault.injected", 1);
            diversity_obs::count(kind.counter(), 1);
            Some(seq)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rates(seed: u64, rate: f64) -> FaultSpec {
        FaultSpec {
            seed,
            panic: rate,
            slow: rate,
            slow_ms: 0,
            corrupt: rate,
            drop: rate,
            transient: rate,
        }
    }

    #[test]
    fn a_disarmed_plan_passes_every_visit_uncounted() {
        let plan = FaultPlan::from_spec(all_rates(5, 1.0));
        assert!(plan.should_fail(sites::QUERY));
        plan.disarm();
        plan.panic_point(sites::SHARD_MUTATE); // must not panic
        plan.slow_point(sites::LOCK_HOLD);
        assert!(!plan.should_fail(sites::QUERY));
        assert!(!plan.should_drop(sites::MR_PARTITION));
        let mut s = String::from("{\"k\":1}");
        assert!(!plan.corrupt_text(sites::CHECKPOINT_BYTES, &mut s));
        assert_eq!(s, "{\"k\":1}");
        assert_eq!(plan.log().len(), 1, "only the armed visit fired");
    }

    #[test]
    fn same_seed_same_schedule_same_log() {
        let drive = |plan: &FaultPlan| {
            let mut fired = Vec::new();
            for _ in 0..500 {
                if plan
                    .roll(
                        sites::MR_PARTITION,
                        FaultKind::DropPartition,
                        plan.spec.drop,
                    )
                    .is_some()
                {
                    fired.push(true);
                } else {
                    fired.push(false);
                }
                plan.roll(sites::QUERY, FaultKind::Transient, plan.spec.transient);
            }
            (fired, plan.log())
        };
        let a = drive(&FaultPlan::from_spec(all_rates(42, 0.1)));
        let b = drive(&FaultPlan::from_spec(all_rates(42, 0.1)));
        assert_eq!(a, b, "same seed must reproduce the exact fault log");
        assert!(!a.1.is_empty(), "rate 0.1 over 1000 visits must fire");
        let c = drive(&FaultPlan::from_spec(all_rates(43, 0.1)));
        assert_ne!(a.1, c.1, "a different seed decides differently");
    }

    #[test]
    fn rates_are_respected_at_the_extremes() {
        let never = FaultPlan::from_spec(all_rates(1, 0.0));
        let always = FaultPlan::from_spec(all_rates(1, 1.0));
        for _ in 0..100 {
            assert!(never
                .roll(sites::QUERY, FaultKind::Transient, never.spec.transient)
                .is_none());
            assert!(always
                .roll(sites::QUERY, FaultKind::Transient, always.spec.transient)
                .is_some());
        }
        assert!(never.log().is_empty());
        assert_eq!(always.log().len(), 100);
        // Seqs ascend per site.
        for (i, ev) in always.log().iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.site, sites::QUERY);
            assert_eq!(ev.kind, FaultKind::Transient);
        }
    }

    #[test]
    fn sites_decide_independently() {
        let plan = FaultPlan::from_spec(all_rates(9, 0.5));
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..256 {
            a.push(plan.roll(sites::QUERY, FaultKind::Transient, 0.5).is_some());
            b.push(
                plan.roll(sites::MR_PARTITION, FaultKind::DropPartition, 0.5)
                    .is_some(),
            );
        }
        assert_ne!(a, b, "distinct sites must not share a decision stream");
    }

    #[test]
    fn injected_panic_carries_the_site() {
        let plan = FaultPlan::from_spec(all_rates(3, 1.0));
        let err = std::panic::catch_unwind(|| plan.panic_point(sites::SHARD_MUTATE))
            .expect_err("rate 1.0 must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "got: {msg}");
        assert!(msg.contains(sites::SHARD_MUTATE), "got: {msg}");
    }

    #[test]
    fn corruption_always_breaks_json() {
        let plan = FaultPlan::from_spec(all_rates(11, 1.0));
        for payload in ["{}", "{\"ids\":[1,2,3],\"start\":1}", "x"] {
            let mut text = payload.to_string();
            assert!(plan.corrupt_text(sites::CHECKPOINT_BYTES, &mut text));
            assert!(
                text.len() < payload.len(),
                "corruption must shorten {payload:?}"
            );
        }
    }

    #[test]
    fn spec_parse_accepts_full_and_partial_specs() {
        let full = FaultSpec::parse(
            "seed=42,panic=0.02,slow=0.01,slow_ms=2,corrupt=0.1,drop=0.05,transient=0.02",
        )
        .expect("full spec");
        assert_eq!(full.seed, 42);
        assert_eq!(full.slow_ms, 2);
        assert_eq!(full.panic, 0.02);
        assert_eq!(full.drop, 0.05);

        let partial = FaultSpec::parse("seed=7,drop=1.0").expect("partial spec");
        assert_eq!(partial.seed, 7);
        assert_eq!(partial.drop, 1.0);
        assert_eq!(partial.panic, 0.0, "unnamed kinds stay disabled");
        assert_eq!(partial.slow_ms, 1);

        let spaced = FaultSpec::parse(" seed=1 , panic=0.5 ").expect("whitespace tolerated");
        assert_eq!(spaced.seed, 1);
        assert_eq!(spaced.panic, 0.5);
    }

    #[test]
    fn spec_parse_rejects_garbage_wholesale() {
        for bad in [
            "",                      // empty
            "panic=0.1",             // missing seed
            "seed=x",                // bad seed
            "seed=1,panic=1.5",      // rate out of range
            "seed=1,panic=-0.1",     // negative rate
            "seed=1,panic=abc",      // non-numeric rate
            "seed=1,frobnicate=0.1", // unknown key
            "seed=1,seed=2",         // duplicate key
            "seed=1,panic",          // not key=value
            "seed=1,,panic=0.1",     // empty pair
            "seed=1,slow_ms=-2",     // bad u64
            "seed=1,panic=NaN",      // non-finite rate
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted garbage {bad:?}");
        }
    }
}
