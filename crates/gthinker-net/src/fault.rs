//! Seeded, deterministic fault injection, transport-agnostic.
//!
//! A [`FaultConfig`] sits alongside the transport configuration and
//! perturbs the wire: data-plane messages (vertex pull requests and
//! responses) can be dropped, duplicated, or delayed (reorder jitter and
//! latency spikes), and a [`CrashSchedule`] can kill one worker at a
//! message-count or wall-time mark. Every per-message decision is a
//! **pure function** of `(seed, from, to, per-link sequence)` — two runs
//! with the same seed and the same traffic order on a link make
//! identical decisions, which is what makes chaos tests reproducible.
//!
//! [`FaultRuntime`] is the send-side bookkeeping both backends share:
//! the simulated [`Router`](crate::router::Router) and the real
//! [`EventedEndpoint`](crate::evented::EventedEndpoint) call
//! [`FaultRuntime::next_decision`] on every cross-worker data-plane
//! message, so a chaos scenario replays identically whichever
//! interconnect carries it. Crash schedules fire on both backends at
//! the same logical trigger — the sim router delivers
//! [`crate::message::Message::Crash`] and goes dark on the victim's
//! links; the TCP backend, where each worker is a whole OS process,
//! calls `std::process::abort()` on the victim so the process dies for
//! real, mid-syscall, exactly as a kill would. The one semantic
//! difference: `after_messages` counts the router's global message
//! total on the sim backend but the victim endpoint's own sends and
//! receives on TCP (no process has a god's-eye count of the cluster).
//!
//! Only the data plane is faulted: vertex pulls (recovered by the
//! R-table deadline retries) and steal batches (recovered by the
//! victim's retained-copy resend plus the thief's sequence-number
//! dedup). Control messages (progress reports, steal requests/acks,
//! aggregator syncs, terminate/suspend) model TCP-backed channels that
//! either deliver or fail the whole worker.

use gthinker_graph::ids::WorkerId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Kills one worker's threads mid-job. The crash fires once, at the
/// first of the configured marks to be reached. Worker 0 hosts the
/// master loop and must not be the target.
#[derive(Clone, Copy, Debug)]
pub struct CrashSchedule {
    /// Worker to kill (never `WorkerId(0)`, which hosts the master).
    pub worker: WorkerId,
    /// Fire after this many messages have crossed the interconnect.
    pub after_messages: Option<u64>,
    /// Fire after this much wall time since the router was created.
    pub after: Option<Duration>,
}

/// Fault model for the simulated interconnect. The default config
/// injects nothing and adds a single branch to the send path.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for every per-message decision.
    pub seed: u64,
    /// Per-message probability that a data-plane message is dropped.
    pub drop_prob: f64,
    /// Per-message probability that a data-plane message is delivered
    /// twice (the duplicate arrives after an extra `reorder_jitter`).
    pub dup_prob: f64,
    /// Per-message probability of extra delay in `[0, reorder_jitter)`,
    /// which reorders the message behind later traffic on the link.
    pub reorder_prob: f64,
    /// Maximum reorder delay.
    pub reorder_jitter: Duration,
    /// Per-message probability of a latency spike of `spike`.
    pub spike_prob: f64,
    /// Latency spike duration.
    pub spike: Duration,
    /// Optional scheduled worker crash.
    pub crash: Option<CrashSchedule>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_jitter: Duration::ZERO,
            spike_prob: 0.0,
            spike: Duration::ZERO,
            crash: None,
        }
    }
}

/// The outcome of the fault model for one data-plane message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultDecision {
    /// Message is silently discarded.
    pub drop: bool,
    /// Message is delivered a second time.
    pub duplicate: bool,
    /// Extra delivery delay (reorder jitter + latency spike).
    pub delay: Duration,
}

impl FaultDecision {
    /// A decision that leaves the message untouched.
    pub const CLEAN: FaultDecision =
        FaultDecision { drop: false, duplicate: false, delay: Duration::ZERO };
}

impl FaultConfig {
    /// True when any fault can fire; a disabled config keeps the router
    /// on its fault-free fast path.
    pub fn enabled(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.spike_prob > 0.0
            || self.crash.is_some()
    }

    /// Decides the fate of the `seq`-th data-plane message on the
    /// directed link `from → to`. Pure: depends only on the arguments
    /// and the seed, never on wall time or prior decisions.
    pub fn decide(&self, from: usize, to: usize, seq: u64) -> FaultDecision {
        if !self.enabled() {
            return FaultDecision::CLEAN;
        }
        let drop = self.roll(from, to, seq, 0) < self.drop_prob;
        if drop {
            return FaultDecision { drop: true, duplicate: false, delay: Duration::ZERO };
        }
        let duplicate = self.roll(from, to, seq, 1) < self.dup_prob;
        let mut delay = Duration::ZERO;
        if self.roll(from, to, seq, 2) < self.reorder_prob {
            delay += self.reorder_jitter.mul_f64(self.roll(from, to, seq, 3));
        }
        if self.roll(from, to, seq, 4) < self.spike_prob {
            delay += self.spike;
        }
        FaultDecision { drop: false, duplicate, delay }
    }

    /// A uniform sample in `[0, 1)` keyed on the link, sequence number
    /// and a per-question salt.
    fn roll(&self, from: usize, to: usize, seq: u64, salt: u64) -> f64 {
        let key = self
            .seed
            .wrapping_add((from as u64) << 48)
            .wrapping_add((to as u64) << 32)
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        // 53 mantissa bits → exact f64 in [0, 1).
        (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash. Also
/// used by the TCP dial loop for deterministic backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-worker fault counters, attributed to the **sending** side.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Data-plane messages dropped on send.
    pub dropped: AtomicU64,
    /// Data-plane messages delivered twice.
    pub duplicated: AtomicU64,
    /// Data-plane messages given extra delay (reorder or spike).
    pub delayed: AtomicU64,
    /// Crash signals delivered to this worker (0 or 1).
    pub crashes: AtomicU64,
}

/// Runtime state for an enabled [`FaultConfig`]: per-link decision
/// sequence numbers, per-worker counters, crash bookkeeping. Lives in
/// the transport-agnostic layer so the sim router and the TCP backend
/// make byte-identical fault decisions for the same seed and traffic.
pub struct FaultRuntime {
    config: FaultConfig,
    /// `link_seq[from * n + to]`: data-plane messages seen on the link,
    /// the sequence input to [`FaultConfig::decide`].
    link_seq: Vec<AtomicU64>,
    stats: Vec<FaultStats>,
    crashed: Vec<AtomicBool>,
    crash_fired: AtomicBool,
    msg_count: AtomicU64,
    started: Instant,
    num_workers: usize,
}

impl FaultRuntime {
    /// Builds the runtime for an `n`-worker interconnect; `None` when
    /// the config injects nothing, so the fault-free send path pays a
    /// single `Option` check.
    pub fn new(n: usize, config: FaultConfig) -> Option<FaultRuntime> {
        config.enabled().then(|| FaultRuntime {
            config,
            link_seq: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            stats: (0..n).map(|_| FaultStats::default()).collect(),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            crash_fired: AtomicBool::new(false),
            msg_count: AtomicU64::new(0),
            started: Instant::now(),
            num_workers: n,
        })
    }

    /// The configuration driving the decisions.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True once the crash schedule has killed worker `w`.
    pub fn is_crashed(&self, w: usize) -> bool {
        self.crashed[w].load(Ordering::Relaxed)
    }

    /// Advances the crash schedule by one interconnect message; fires
    /// at most once, returning the victim the transport must now kill
    /// (deliver [`crate::message::Message::Crash`] to it, go dark on
    /// its links).
    pub fn crash_due(&self) -> Option<usize> {
        let cs = self.config.crash.as_ref()?;
        let n = self.msg_count.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_fired.load(Ordering::Relaxed) {
            return None;
        }
        let due = cs.after_messages.is_some_and(|m| n >= m)
            || cs.after.is_some_and(|d| self.started.elapsed() >= d);
        if due && !self.crash_fired.swap(true, Ordering::SeqCst) {
            let w = cs.worker.index();
            self.crashed[w].store(true, Ordering::SeqCst);
            self.stats[w].crashes.fetch_add(1, Ordering::Relaxed);
            return Some(w);
        }
        None
    }

    /// Rolls the fate of the next data-plane message on `from → to`,
    /// bumping the link's sequence number and attributing the
    /// drop/dup/delay counters to the sender. Both backends call this
    /// at the same point (send side, cross-worker data plane only), so
    /// counters and decisions agree across transports.
    pub fn next_decision(&self, from: usize, to: usize) -> FaultDecision {
        let seq = self.link_seq[from * self.num_workers + to].fetch_add(1, Ordering::Relaxed);
        let d = self.config.decide(from, to, seq);
        if d.drop {
            self.stats[from].dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            if d.duplicate {
                self.stats[from].duplicated.fetch_add(1, Ordering::Relaxed);
            }
            if !d.delay.is_zero() {
                self.stats[from].delayed.fetch_add(1, Ordering::Relaxed);
            }
        }
        d
    }

    /// Per-worker fault counters (attributed to the sending side).
    pub fn stats(&self, w: usize) -> &FaultStats {
        &self.stats[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultConfig {
        FaultConfig {
            seed: 42,
            drop_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.3,
            reorder_jitter: Duration::from_millis(2),
            spike_prob: 0.05,
            spike: Duration::from_millis(5),
            ..FaultConfig::default()
        }
    }

    #[test]
    fn disabled_config_is_clean() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        for seq in 0..100 {
            assert_eq!(f.decide(0, 1, seq), FaultDecision::CLEAN);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = lossy();
        let b = lossy();
        for from in 0..3 {
            for to in 0..3 {
                for seq in 0..1000 {
                    assert_eq!(a.decide(from, to, seq), b.decide(from, to, seq));
                }
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = lossy();
        let b = FaultConfig { seed: 43, ..lossy() };
        let diverged = (0..1000).any(|seq| a.decide(0, 1, seq) != b.decide(0, 1, seq));
        assert!(diverged, "seed must change the decision stream");
    }

    #[test]
    fn links_are_independent() {
        let f = lossy();
        let diverged = (0..1000).any(|seq| f.decide(0, 1, seq) != f.decide(1, 0, seq));
        assert!(diverged, "each directed link gets its own stream");
    }

    #[test]
    fn rates_track_probabilities() {
        let f = lossy();
        let n = 20_000;
        let mut drops = 0u32;
        let mut dups = 0u32;
        for seq in 0..n {
            let d = f.decide(0, 1, seq);
            drops += d.drop as u32;
            dups += d.duplicate as u32;
        }
        let drop_rate = drops as f64 / n as f64;
        let dup_rate = dups as f64 / n as f64;
        assert!((drop_rate - 0.1).abs() < 0.02, "drop rate {drop_rate}");
        // dup is conditioned on not-dropped: expect ≈ 0.9 * 0.1.
        assert!((dup_rate - 0.09).abs() < 0.02, "dup rate {dup_rate}");
    }
}
