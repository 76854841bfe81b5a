//! Deterministic fault injection for the simulated SoC.
//!
//! Production mobile runtimes treat accelerator failure as a normal event:
//! the APU driver rejects a compile, a dispatch times out, thermal
//! pressure throttles a device. This module lets the simulator reproduce
//! those events **deterministically** — a [`FaultPlan`] carries an
//! explicit seed and a list of rules, and every decision is drawn from a
//! splitmix64 stream keyed on `(seed, device, invocation)`. No wall-clock
//! randomness: the same plan injected twice produces byte-identical runs.
//!
//! The plan is data ([`serde`] round-trips it), built from a seed
//! ([`FaultPlan::seeded`]) and one rule per spec string in the grammar of
//! [`FaultPlan::with_spec`] (`<device>:<site>:<kind>[=<value>][@<work>]`,
//! e.g. `apu:dispatch:transient`) — the same strings `--inject-fault`
//! takes.
//!
//! A [`FaultInjector`] interprets the plan at runtime: execution engines
//! consult it at each subgraph dispatch / compile and receive `Some(Fault)`
//! when the seeded stream says this attempt fails. [`RetryPolicy`] and
//! [`CircuitBreaker`] are the policy half: exponential backoff charged in
//! *simulated* microseconds, and a per-device trip counter that tells the
//! fallback layer when to stop trusting a device.
#![deny(clippy::unwrap_used)]

use crate::cost::{CostModel, WorkKind};
use crate::device::DeviceKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where in the execution stack a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// Compiling / planning a network for the device.
    Compile,
    /// Dispatching a compiled subgraph to the device driver.
    Dispatch,
    /// Kernel execution (thermal throttling).
    Kernel,
}

impl FaultSite {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Compile => "compile",
            FaultSite::Dispatch => "dispatch",
            FaultSite::Kernel => "kernel",
        }
    }
}

/// What kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Transient dispatch failure: each invocation fails a seeded number
    /// of leading attempts (`0..=max_failures`), then succeeds — a retry
    /// recovers it. The first invocation on a device always fails at
    /// least once, so a faulted run provably exercises the retry path.
    Transient {
        /// Most leading attempts of one invocation that can fail.
        max_failures: u32,
    },
    /// The device driver is gone: every dispatch fails, retrying is
    /// pointless (`Fault::fatal`).
    DeviceLost,
    /// The driver rejects compiling for the device (fatal at the compile
    /// site).
    CompileReject,
    /// Thermal throttle: kernels of the matched work kind run
    /// `factor`× slower on the device. Not an error — a slowdown charged
    /// through the cost model (see [`FaultPlan::throttled_cost`]).
    ThermalThrottle {
        /// Slowdown multiplier (> 1.0 = slower).
        factor: f64,
    },
}

impl FaultKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient { .. } => "transient",
            FaultKind::DeviceLost => "device-lost",
            FaultKind::CompileReject => "compile-reject",
            FaultKind::ThermalThrottle { .. } => "thermal-throttle",
        }
    }

    /// The site this kind strikes at.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::Transient { .. } | FaultKind::DeviceLost => FaultSite::Dispatch,
            FaultKind::CompileReject => FaultSite::Compile,
            FaultKind::ThermalThrottle { .. } => FaultSite::Kernel,
        }
    }
}

/// One injection rule: a kind of fault striking one device (optionally
/// restricted to one work kind, for thermal throttles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Device the rule applies to.
    pub device: DeviceKind,
    /// What to inject.
    pub kind: FaultKind,
    /// For [`FaultKind::ThermalThrottle`]: restrict to one work kind
    /// (`None` = all kinds). Ignored by the other fault kinds.
    pub work: Option<WorkKind>,
}

/// Error from parsing a `--inject-fault` spec string.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// A seeded, serializable set of fault-injection rules.
///
/// The seed drives every probabilistic decision, so a plan is a complete,
/// reproducible description of a fault scenario — it can be logged,
/// checked into a repro case, or loaded from CLI/JSON.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Injection rules, consulted in order (first match wins per site).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Add one rule from a CLI spec string, mirroring the
    /// `--inject-slowdown` grammar:
    ///
    /// ```text
    /// <device>:<site>:<kind>[=<value>][@<work>]
    ///
    /// apu:dispatch:transient        first attempts fail, retry recovers
    /// apu:dispatch:transient=3      up to 3 leading failures per dispatch
    /// apu:dispatch:device-lost      every dispatch fails
    /// apu:compile:reject            driver rejects the compile
    /// apu:kernel:throttle=2.5       kernels 2.5x slower
    /// apu:kernel:throttle=2.5@mac   only MAC-heavy kernels
    /// ```
    pub fn with_spec(mut self, spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut parts = spec.splitn(3, ':');
        let (Some(dev), Some(site), Some(kind)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(FaultSpecError(format!(
                "'{spec}' (expected <device>:<site>:<kind>[=<value>][@<work>])"
            )));
        };
        let device = DeviceKind::parse(dev)
            .ok_or_else(|| FaultSpecError(format!("unknown device '{dev}' in '{spec}'")))?;
        // Split the optional @<work> suffix, then the optional =<value>.
        let (kind, work) = match kind.split_once('@') {
            Some((k, w)) => {
                let work = WorkKind::parse(w).ok_or_else(|| {
                    FaultSpecError(format!("unknown work kind '{w}' in '{spec}'"))
                })?;
                (k, Some(work))
            }
            None => (kind, None),
        };
        let (kind, value) = match kind.split_once('=') {
            Some((k, v)) => {
                let value: f64 = v
                    .parse()
                    .map_err(|_| FaultSpecError(format!("bad numeric value '{v}' in '{spec}'")))?;
                (k, Some((v, value)))
            }
            None => (kind, None),
        };
        let rule = match (site, kind) {
            ("dispatch", "transient") => {
                // `u32::MAX as f64` is exact, and NaN fails the range test.
                let (text, count) = value.unwrap_or(("2", 2.0));
                if count.fract() != 0.0 || !(1.0..=u32::MAX as f64).contains(&count) {
                    return Err(FaultSpecError(format!(
                        "transient failure count '{text}' in '{spec}' is not an integer >= 1"
                    )));
                }
                FaultRule {
                    device,
                    kind: FaultKind::Transient {
                        max_failures: count as u32,
                    },
                    work,
                }
            }
            ("dispatch", "device-lost") | ("dispatch", "lost") => FaultRule {
                device,
                kind: FaultKind::DeviceLost,
                work,
            },
            ("compile", "reject") => FaultRule {
                device,
                kind: FaultKind::CompileReject,
                work,
            },
            ("kernel", "throttle") => {
                // The factor scales simulated time: anything but a finite
                // positive number would poison the clock.
                let (text, factor) = value.unwrap_or(("2", 2.0));
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(FaultSpecError(format!(
                        "throttle factor '{text}' in '{spec}' is not a finite number > 0"
                    )));
                }
                FaultRule {
                    device,
                    kind: FaultKind::ThermalThrottle { factor },
                    work,
                }
            }
            _ => {
                return Err(FaultSpecError(format!(
                    "unknown site:kind '{site}:{kind}' in '{spec}' (expected \
                     dispatch:transient, dispatch:device-lost, compile:reject, \
                     or kernel:throttle)"
                )))
            }
        };
        self.rules.push(rule);
        Ok(self)
    }

    /// Apply every thermal-throttle rule onto a cost model, scaling the
    /// matched `(device, work kind)` cells. Non-throttle rules are
    /// ignored; with no throttle rules the model is returned unchanged
    /// (bit-identical timings).
    pub fn throttled_cost(&self, mut cost: CostModel) -> CostModel {
        for rule in &self.rules {
            if let FaultKind::ThermalThrottle { factor } = rule.kind {
                match rule.work {
                    Some(kind) => cost = cost.with_device_kind_scale(rule.device, kind, factor),
                    None => {
                        for kind in WorkKind::ALL {
                            cost = cost.with_device_kind_scale(rule.device, kind, factor);
                        }
                    }
                }
            }
        }
        cost
    }
}

/// One injected fault, as seen by an execution engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Device the fault struck.
    pub device: DeviceKind,
    /// Site it struck at.
    pub site: FaultSite,
    /// Whether retrying the same device is pointless (device-lost,
    /// compile-reject) as opposed to transient.
    pub fatal: bool,
    /// Human-readable cause, e.g. `transient dispatch failure on apu
    /// (invocation 3, attempt 1)`.
    pub description: String,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Default)]
struct DispatchState {
    /// Dispatch invocations seen so far (per device).
    invocations: u64,
    /// Leading failures still owed by the current invocation.
    remaining_failures: u32,
}

#[derive(Default)]
struct InjectorState {
    dispatch: [DispatchState; 3],
    faults: [u64; 3],
}

/// Runtime interpreter of a [`FaultPlan`].
///
/// Thread-safe; the deterministic stream advances per consulted dispatch
/// invocation, so a fixed sequence of engine calls yields a fixed
/// sequence of faults. The default interprets the empty plan: it never
/// faults.
#[derive(Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Interpreter over `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            state: Mutex::new(InjectorState::default()),
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn dispatch_rule(&self, device: DeviceKind) -> Option<&FaultRule> {
        self.plan
            .rules
            .iter()
            .find(|r| r.device == device && r.kind.site() == FaultSite::Dispatch)
    }

    /// Consult at dispatch attempt `attempt` (1-based) of one subgraph
    /// invocation on `device`. Engines must call with `attempt = 1` first
    /// and increment on each retry of the *same* invocation — the seeded
    /// per-invocation failure count is drawn at attempt 1.
    pub fn on_dispatch(&self, device: DeviceKind, attempt: u32) -> Option<Fault> {
        let rule = *self.dispatch_rule(device)?;
        let di = device.index();
        let mut st = self.state.lock();
        match rule.kind {
            FaultKind::DeviceLost => {
                st.faults[di] += 1;
                Some(Fault {
                    device,
                    site: FaultSite::Dispatch,
                    fatal: true,
                    description: format!("device lost: {device} driver gone (attempt {attempt})"),
                })
            }
            FaultKind::Transient { max_failures } => {
                let inv = if attempt == 1 {
                    let inv = st.dispatch[di].invocations;
                    st.dispatch[di].invocations += 1;
                    let draw = splitmix64(
                        self.plan
                            .seed
                            .wrapping_add(0x517c_c1b7_2722_0a95u64.wrapping_mul(di as u64 + 1))
                            .wrapping_add(inv),
                    );
                    let mut failures = (draw % (max_failures as u64 + 1)) as u32;
                    // The very first invocation on a faulted device always
                    // fails once: a seeded plan provably exercises retry.
                    if inv == 0 {
                        failures = failures.max(1);
                    }
                    st.dispatch[di].remaining_failures = failures;
                    inv
                } else {
                    st.dispatch[di].invocations.saturating_sub(1)
                };
                if st.dispatch[di].remaining_failures == 0 {
                    return None;
                }
                st.dispatch[di].remaining_failures -= 1;
                st.faults[di] += 1;
                Some(Fault {
                    device,
                    site: FaultSite::Dispatch,
                    fatal: false,
                    description: format!(
                        "transient dispatch failure on {device} (invocation {inv}, attempt {attempt})"
                    ),
                })
            }
            FaultKind::CompileReject | FaultKind::ThermalThrottle { .. } => None,
        }
    }

    /// Consult before compiling / planning a network for `device`.
    pub fn on_compile(&self, device: DeviceKind) -> Option<Fault> {
        let rule = self
            .plan
            .rules
            .iter()
            .find(|r| r.device == device && r.kind.site() == FaultSite::Compile)?;
        debug_assert!(matches!(rule.kind, FaultKind::CompileReject));
        let mut st = self.state.lock();
        st.faults[device.index()] += 1;
        Some(Fault {
            device,
            site: FaultSite::Compile,
            fatal: true,
            description: format!("compile rejected: {device} driver refused the network"),
        })
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().faults.iter().sum()
    }

    /// Faults injected on one device so far.
    pub fn faults_on(&self, device: DeviceKind) -> u64 {
        self.state.lock().faults[device.index()]
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("faults_injected", &self.faults_injected())
            .finish()
    }
}

/// Retry policy for faulted dispatches: exponential backoff charged in
/// **simulated** microseconds (the backoff is cost-model time, not host
/// sleep).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per invocation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, simulated microseconds.
    pub base_backoff_us: f64,
    /// Multiplier applied per further attempt.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 50.0,
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff charged after failed attempt `attempt` (1-based):
    /// `base * multiplier^(attempt-1)`.
    pub fn backoff_us(&self, attempt: u32) -> f64 {
        self.base_backoff_us
            * self
                .backoff_multiplier
                .powi(attempt.saturating_sub(1) as i32)
    }

    /// Whether another attempt is allowed after `attempt` failed.
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

/// Per-device circuit breaker: once a device accumulates `threshold`
/// faults, the breaker opens and the fallback layer stops routing work to
/// it (degrading along the paper-ordered permutation chain instead of
/// retrying a dying device forever).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u64,
    open: [bool; 3],
    trips: u64,
}

impl CircuitBreaker {
    /// Breaker tripping after `threshold` faults per device (≥ 1).
    pub fn new(threshold: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            open: [false; 3],
            trips: 0,
        }
    }

    /// Report the current fault count of `device` (from
    /// [`FaultInjector::faults_on`]); returns `true` when this report
    /// trips the breaker open (exactly once per device).
    pub fn note(&mut self, device: DeviceKind, fault_count: u64) -> bool {
        let di = device.index();
        if !self.open[di] && fault_count >= self.threshold {
            self.open[di] = true;
            self.trips += 1;
            return true;
        }
        false
    }

    /// Whether the breaker is open for `device`.
    pub fn is_open(&self, device: DeviceKind) -> bool {
        self.open[device.index()]
    }

    /// Devices tripped so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The configured trip threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn plan_serde_round_trip() {
        let plan = FaultPlan::seeded(7)
            .with_spec("apu:dispatch:transient=2")
            .unwrap()
            .with_spec("gpu:dispatch:device-lost")
            .unwrap()
            .with_spec("apu:compile:reject")
            .unwrap()
            .with_spec("cpu:kernel:throttle=2.5@mac")
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    /// Each spec form yields exactly one rule, pinned field by field.
    #[test]
    fn spec_grammar_parses() {
        use DeviceKind::{Apu, Cpu, Gpu};
        let rule = |device, kind, work| FaultRule { device, kind, work };
        let table = [
            (
                "apu:dispatch:transient",
                rule(Apu, FaultKind::Transient { max_failures: 2 }, None),
            ),
            (
                "apu:dispatch:transient=3",
                rule(Apu, FaultKind::Transient { max_failures: 3 }, None),
            ),
            (
                "gpu:dispatch:device-lost",
                rule(Gpu, FaultKind::DeviceLost, None),
            ),
            (
                "apu:compile:reject",
                rule(Apu, FaultKind::CompileReject, None),
            ),
            (
                "cpu:kernel:throttle=2.5@mac",
                rule(
                    Cpu,
                    FaultKind::ThermalThrottle { factor: 2.5 },
                    Some(WorkKind::MacHeavy),
                ),
            ),
            (
                "apu:kernel:throttle=2.5",
                rule(Apu, FaultKind::ThermalThrottle { factor: 2.5 }, None),
            ),
        ];
        for (spec, want) in table {
            let plan = FaultPlan::seeded(7).with_spec(spec).unwrap();
            assert_eq!(plan.rules, [want], "{spec}");
        }
        for bad in [
            "apu",
            "nope:dispatch:transient",
            "apu:dispatch:nope",
            "apu:dispatch:transient=0",
        ] {
            assert!(FaultPlan::seeded(0).with_spec(bad).is_err(), "{bad}");
        }
    }

    fn rejected(spec: &str, value: &str) {
        let err = FaultPlan::seeded(0).with_spec(spec).unwrap_err();
        assert!(err.0.contains(&format!("'{value}'")), "{spec}: {err}");
    }

    #[test]
    fn throttle_factor_nan_rejected() {
        rejected("apu:kernel:throttle=nan", "nan");
    }

    #[test]
    fn throttle_factor_infinite_rejected() {
        rejected("apu:kernel:throttle=inf", "inf");
    }

    #[test]
    fn throttle_factor_zero_rejected() {
        rejected("apu:kernel:throttle=0", "0");
    }

    #[test]
    fn throttle_factor_negative_rejected() {
        rejected("apu:kernel:throttle=-2@mac", "-2");
    }

    #[test]
    fn transient_count_nan_rejected() {
        rejected("apu:dispatch:transient=nan", "nan");
    }

    #[test]
    fn transient_count_negative_rejected() {
        rejected("apu:dispatch:transient=-3", "-3");
    }

    #[test]
    fn transient_count_fractional_rejected() {
        rejected("apu:dispatch:transient=2.7", "2.7");
    }

    #[test]
    fn transient_count_zero_and_infinite_rejected() {
        rejected("apu:dispatch:transient=0", "0");
        rejected("apu:dispatch:transient=inf", "inf");
    }

    #[test]
    fn bad_value_and_unknown_work_rejected() {
        rejected("apu:dispatch:transient=x", "x");
        rejected("apu:kernel:throttle=2@nope", "nope");
    }

    #[test]
    fn lost_is_an_alias_of_device_lost() {
        let short = FaultPlan::seeded(1).with_spec("gpu:dispatch:lost").unwrap();
        let long = FaultPlan::seeded(1)
            .with_spec("gpu:dispatch:device-lost")
            .unwrap();
        assert_eq!(short, long);
    }

    /// Specs append in order, and the first rule for a site wins: a
    /// throttle rule ahead of them does not shadow the dispatch rules.
    #[test]
    fn specs_append_in_order_and_first_dispatch_rule_wins() {
        let plan = FaultPlan::seeded(5);
        assert!(plan.is_empty());
        let plan = plan
            .with_spec("apu:kernel:throttle=2")
            .unwrap()
            .with_spec("apu:dispatch:device-lost")
            .unwrap()
            .with_spec("apu:dispatch:transient=1")
            .unwrap();
        assert!(!plan.is_empty());
        let kinds: Vec<FaultKind> = plan.rules.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::ThermalThrottle { factor: 2.0 },
                FaultKind::DeviceLost,
                FaultKind::Transient { max_failures: 1 },
            ]
        );
        let inj = FaultInjector::new(plan);
        for attempt in 1..4 {
            assert!(inj.on_dispatch(DeviceKind::Apu, attempt).unwrap().fatal);
        }
    }

    #[test]
    fn throttle_without_work_scales_every_kind_on_its_device() {
        let plan = FaultPlan::seeded(0)
            .with_spec("gpu:kernel:throttle=2@mac")
            .unwrap()
            .with_spec("gpu:kernel:throttle=1.5")
            .unwrap();
        let cost = plan.throttled_cost(CostModel::default());
        for device in DeviceKind::ALL {
            for kind in WorkKind::ALL {
                let want = match (device, kind) {
                    (DeviceKind::Gpu, WorkKind::MacHeavy) => 3.0,
                    (DeviceKind::Gpu, _) => 1.5,
                    _ => 1.0,
                };
                assert_eq!(
                    cost.device_kind_scale(device, kind),
                    want,
                    "{device} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn transient_faults_deterministic_and_recoverable() {
        let run = || {
            let inj = FaultInjector::new(
                FaultPlan::seeded(7)
                    .with_spec("apu:dispatch:transient=2")
                    .unwrap(),
            );
            let mut pattern = Vec::new();
            for _ in 0..16 {
                let mut attempt = 1;
                while let Some(f) = inj.on_dispatch(DeviceKind::Apu, attempt) {
                    assert!(!f.fatal);
                    attempt += 1;
                    assert!(attempt < 16, "transient must eventually recover");
                }
                pattern.push(attempt);
            }
            (pattern, inj.faults_injected())
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b, "same seed must reproduce the fault pattern");
        assert_eq!(fa, fb);
        assert!(a[0] > 1, "first invocation always fails at least once");
        assert!(fa >= 1);
        // A different seed draws a different pattern (with 16 invocations
        // of 0..=2 failures a collision is astronomically unlikely).
        let other = {
            let inj = FaultInjector::new(
                FaultPlan::seeded(1234)
                    .with_spec("apu:dispatch:transient=2")
                    .unwrap(),
            );
            let mut pattern = Vec::new();
            for _ in 0..16 {
                let mut attempt = 1;
                while inj.on_dispatch(DeviceKind::Apu, attempt).is_some() {
                    attempt += 1;
                }
                pattern.push(attempt);
            }
            pattern
        };
        assert_ne!(a, other, "different seeds should differ");
    }

    #[test]
    fn device_lost_is_fatal_and_scoped() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(3)
                .with_spec("apu:dispatch:device-lost")
                .unwrap(),
        );
        let f = inj.on_dispatch(DeviceKind::Apu, 1).unwrap();
        assert!(f.fatal);
        assert_eq!(f.site, FaultSite::Dispatch);
        assert!(inj.on_dispatch(DeviceKind::Cpu, 1).is_none());
        assert!(inj.on_compile(DeviceKind::Apu).is_none());
        assert_eq!(inj.faults_on(DeviceKind::Apu), 1);
        assert_eq!(inj.faults_on(DeviceKind::Cpu), 0);
    }

    #[test]
    fn compile_reject_hits_compile_site_only() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(3)
                .with_spec("apu:compile:reject")
                .unwrap(),
        );
        assert!(inj.on_dispatch(DeviceKind::Apu, 1).is_none());
        let f = inj.on_compile(DeviceKind::Apu).unwrap();
        assert!(f.fatal);
        assert_eq!(f.site, FaultSite::Compile);
    }

    #[test]
    fn throttled_cost_scales_matched_cells_only() {
        use crate::cost::WorkItem;
        use crate::device::KernelClass;
        let plan = FaultPlan::seeded(0)
            .with_spec("apu:kernel:throttle=3.0@mac")
            .unwrap();
        let base = CostModel::default();
        let hot = plan.throttled_cost(base.clone());
        let w = WorkItem {
            macs: 50_000_000,
            bytes_in: 1 << 20,
            bytes_out: 1 << 18,
            int8: true,
            kind: WorkKind::MacHeavy,
        };
        let t0 = base.kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        let t1 = hot.kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned);
        assert!((t1 - 3.0 * t0).abs() < 1e-9 * t0.max(1.0), "{t1} != 3*{t0}");
        // Other device untouched.
        let c0 = base.kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        let c1 = hot.kernel_body_us(&w, DeviceKind::Cpu, KernelClass::VendorTuned);
        assert_eq!(c0, c1);
        // Empty plan changes nothing.
        assert_eq!(
            FaultPlan::seeded(9)
                .throttled_cost(base.clone())
                .kernel_body_us(&w, DeviceKind::Apu, KernelClass::VendorTuned),
            t0
        );
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(1), 50.0);
        assert_eq!(p.backoff_us(2), 100.0);
        assert_eq!(p.backoff_us(3), 200.0);
        assert!(p.allows_retry(1));
        assert!(!p.allows_retry(4));
    }

    #[test]
    fn breaker_trips_once_per_device() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.note(DeviceKind::Apu, 2));
        assert!(!b.is_open(DeviceKind::Apu));
        assert!(b.note(DeviceKind::Apu, 3), "threshold reached trips");
        assert!(b.is_open(DeviceKind::Apu));
        assert!(!b.note(DeviceKind::Apu, 5), "only trips once");
        assert!(!b.is_open(DeviceKind::Cpu));
        assert_eq!(b.trips(), 1);
    }
}
