//! What the workloads share: seed derivation, order statistics, the
//! repeated set-up, the tally of checked operations and the run outcome.

use std::time::{Duration, Instant};

use shidiannao::cnn::{LayerKind, Network};
use shidiannao::sim::RunStats;

use crate::metrics::{Host, Metrics, Sim};
use crate::trace::Tracer;

/// Points in a run at which set-up is measured: one before the timed
/// phase and the rest spread evenly over it.
const SETUP_POINTS: u32 = 30;

/// How long a burst of back-to-back set-ups at one point lasts (at least
/// one set-up): cheap set-ups are repeated many times, costly ones once.
const SETUP_BURST: Duration = Duration::from_millis(20);

/// Check failures kept verbatim for stderr; later ones are only counted.
const MAX_PROBLEMS: usize = 20;

/// What one invocation was asked to do.
pub struct RunConfig {
    /// Workload seed: every input, network weight and camera derives
    /// from it.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: Duration,
    /// Records spans around every call into the program.
    pub tracer: Tracer,
}

impl RunConfig {
    /// Independent sub-seed number `stream` of the workload seed.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

/// The splitmix64 finaliser.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of `v`; zero when empty.
pub fn quantile(v: &[Duration], q: f64) -> Duration {
    if v.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = v.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// When the set-ups of a run happen, and their fastest readings. The first
/// set-up precedes the timed phase; bursts at evenly spread points of the
/// timed phase, between timed calls, sample the host over the same stretch
/// of time as the other host metrics. A set-up reports the duration of
/// each of its steps (building, preparing and warming each network, ...),
/// and `setup_s` is the set-up with every step at its fastest reading
/// (see [`Best`] for why the fastest).
pub struct SetupSchedule {
    steps: Best,
    points: u32,
    next: Instant,
    step: Duration,
    burst_end: Option<Instant>,
}

impl SetupSchedule {
    /// Starts the schedule with the first set-up's step durations, at the
    /// start of a timed phase of length `seconds`.
    pub fn new(first: &[Duration], seconds: Duration) -> SetupSchedule {
        let step = seconds / SETUP_POINTS;
        let mut steps = Best::new(first.len());
        steps.record_all(first);
        SetupSchedule {
            steps,
            points: 1,
            next: Instant::now() + step,
            step,
            burst_end: None,
        }
    }

    /// Whether a set-up is due now; call in a loop, recording each one.
    pub fn due(&mut self) -> bool {
        let now = Instant::now();
        match self.burst_end {
            Some(end) if now < end => true,
            Some(_) => {
                self.burst_end = None;
                self.points += 1;
                self.next += self.step;
                false
            }
            None if self.points < SETUP_POINTS && now >= self.next => {
                self.burst_end = Some(now + SETUP_BURST);
                true
            }
            None => false,
        }
    }

    /// Records the step durations of a set-up made because it was due.
    pub fn record(&mut self, steps: &[Duration]) {
        self.steps.record_all(steps);
    }

    /// A set-up with every step at its fastest reading.
    pub fn best(&self) -> Duration {
        self.steps.round()
    }

    /// The fastest reading of step `i`.
    pub fn step(&self, i: usize) -> Duration {
        self.steps.get(i)
    }
}

/// The fastest host time of each call type of a round, over every round
/// of a run.
///
/// A workload repeats a fixed round of call types (a zoo network, a frame
/// of the video clip, the service run) for the whole timed phase. The
/// host is shared: neighbours on the same cores slow every call by up to
/// 2× for seconds to minutes, which moves means and medians by tens of
/// percent from run to run. Contention only ever adds time, so each call
/// type's fastest repetition is the steadiest reading of what the
/// simulator itself costs on this host, and the host metrics are built
/// from those readings.
pub struct Best {
    times: Vec<Duration>,
}

impl Best {
    /// No readings yet for `types` call types.
    pub fn new(types: usize) -> Best {
        Best {
            times: vec![Duration::MAX; types],
        }
    }

    /// Records one call of type `t` that took `took`.
    pub fn record(&mut self, t: usize, took: Duration) {
        self.times[t] = self.times[t].min(took);
    }

    /// Records one call of every type, in type order.
    pub fn record_all(&mut self, took: &[Duration]) {
        for (t, &d) in took.iter().enumerate() {
            self.record(t, d);
        }
    }

    /// The fastest call of type `t`.
    pub fn get(&self, t: usize) -> Duration {
        self.times[t]
    }

    /// One round at every call type's fastest reading.
    pub fn round(&self) -> Duration {
        self.times.iter().sum()
    }

    /// Items per host second for a round of `items` items.
    pub fn rate(&self, items: usize) -> f64 {
        items as f64 / self.round().as_secs_f64()
    }

    /// Nearest-rank `q`-quantile over the call types of a round.
    pub fn quantile(&self, q: f64) -> Duration {
        quantile(&self.times, q)
    }
}

/// Modelled cost of one core inference, which is input-independent for a
/// cold load: every cold call of a network must reproduce it bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreCost {
    /// Modelled cycles.
    pub cycles: u64,
    energy_nj_bits: u64,
    /// `(layer kind or "load", cycles)` in `RunStats::layers()` order.
    layers: Vec<(&'static str, u64)>,
}

impl CoreCost {
    /// The cost `stats` and `energy_nj` record for one inference of `net`.
    pub fn of(net: &Network, stats: &RunStats, energy_nj: f64) -> CoreCost {
        // `RunStats::layers()` is the Load phase followed by one entry
        // per network layer.
        let kinds = std::iter::once("load").chain(net.layers().iter().map(|l| match l.kind() {
            LayerKind::Conv => "conv",
            LayerKind::Pool => "pool",
            LayerKind::Fc => "fc",
            LayerKind::Lrn | LayerKind::Lcn => "norm",
        }));
        CoreCost {
            cycles: stats.cycles(),
            energy_nj_bits: energy_nj.to_bits(),
            layers: kinds.zip(stats.layers().iter().map(|l| l.cycles)).collect(),
        }
    }

    /// Modelled energy in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        f64::from_bits(self.energy_nj_bits)
    }

    /// Records the per-layer core sim metrics of a mix of calls, each
    /// metric a mean per call: cycles, cycles by layer kind, energy.
    ///
    /// # Errors
    ///
    /// A refused metric name.
    pub fn record_mean(m: &mut Metrics, calls: &[CoreCost]) -> Result<(), String> {
        let n = calls.len().max(1) as f64;
        let cycles: u64 = calls.iter().map(|c| c.cycles).sum();
        m.sim("core.sim_cycles_per_call", Sim::Cycles(cycles as f64 / n))?;
        for kind in ["load", "conv", "pool", "fc", "norm"] {
            let total: u64 = calls
                .iter()
                .flat_map(|c| &c.layers)
                .filter(|(k, _)| *k == kind)
                .map(|(_, c)| c)
                .sum();
            m.sim(
                &format!("core.sim_cycles.{kind}"),
                Sim::Cycles(total as f64 / n),
            )?;
        }
        let energy_nj: f64 = calls.iter().map(CoreCost::energy_nj).sum();
        m.sim(
            "core.sim_energy_uj_per_call",
            Sim::Microjoules(energy_nj / 1e3 / n),
        )?;
        Ok(())
    }
}

/// Whether a network runs a normalization layer (the path schedule
/// replay does not cover).
pub fn has_norm(net: &Network) -> bool {
    net.layers()
        .iter()
        .any(|l| matches!(l.kind(), LayerKind::Lrn | LayerKind::Lcn))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in process status")?;
    Ok(kib / 1024.0)
}

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    unlisted: usize,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Returns `ok`; when false, keeps `what` for the failure listing.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            } else {
                self.unlisted += 1;
            }
        }
        ok
    }

    /// Counts one whole-run check (determinism, replay, oracle) as an
    /// operation of its own.
    pub fn whole_run(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let ok = self.expect(ok, what);
        self.record(ok);
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations (program calls and whole-run checks) attempted.
    pub attempted: u64,
    /// Operations whose call failed or whose output check failed.
    pub failed: u64,
    /// Metrics of the run: end-to-end untraced, per-layer traced.
    pub metrics: Metrics,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Closes a run: adds `trace.overhead_share` to a traced run's
    /// metrics, where `traced_wall` is the wall time the spans cover.
    ///
    /// # Errors
    ///
    /// A refused metric name.
    pub fn finish(
        checks: Checks,
        mut metrics: Metrics,
        tracer: &Tracer,
        traced_wall: Duration,
    ) -> Result<Outcome, String> {
        if tracer.enabled() {
            let overhead = Tracer::cost_per_span().as_secs_f64() * tracer.len() as f64
                / traced_wall.as_secs_f64().max(f64::MIN_POSITIVE);
            metrics
                .host("trace.overhead_share", Host::Share(overhead))
                .map_err(|e| e.to_string())?;
        }
        let mut problems = checks.problems;
        if checks.unlisted > 0 {
            problems.push(format!("... and {} more check failures", checks.unlisted));
        }
        Ok(Outcome {
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
            problems,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ms(&[5, 1, 4, 2, 3]);
        assert_eq!(quantile(&v, 0.5), Duration::from_millis(3));
        assert_eq!(quantile(&v, 0.99), Duration::from_millis(5));
        assert_eq!(quantile(&v, 0.2), Duration::from_millis(1));
        assert_eq!(quantile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn best_keeps_the_fastest_reading_per_call_type() {
        let mut b = Best::new(3);
        for (t, took) in [(0, 5), (1, 2), (2, 9), (0, 3), (1, 4), (2, 1)] {
            b.record(t, Duration::from_millis(took));
        }
        assert_eq!(b.get(0), Duration::from_millis(3));
        assert_eq!(b.round(), Duration::from_millis(6));
        assert_eq!(b.rate(6), 1_000.0);
        assert_eq!(b.quantile(0.99), Duration::from_millis(3));
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_seed() {
        let a = RunConfig {
            seed: 7,
            seconds: Duration::ZERO,
            tracer: Tracer::new(false),
        };
        assert_ne!(a.derive(1), a.derive(2));
        assert_eq!(a.derive(1), a.derive(1));
    }

    #[test]
    fn checks_count_failed_operations_once() {
        let mut c = Checks::default();
        let ok = c.expect(false, || "a".into()) & c.expect(false, || "b".into());
        c.record(ok);
        c.record(true);
        c.whole_run(false, || "determinism".into());
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.problems, vec!["a", "b", "determinism"]);
    }
}
