//! Clock-typed metric recording.
//!
//! Every number the benchmark prints is read from one of two clocks:
//!
//! * **host** — wall time of the simulator on the machine running it
//!   (noisy, moves with simulator speed);
//! * **sim** — the modelled accelerator: cycles, energy and event counts
//!   (deterministic, moves only when the model or the workload changes).
//!
//! Host values and sim values enter [`Metrics`] through separate methods
//! and separate value types, and the unit is derived from the value, never
//! written by hand. A name whose spelling claims the other clock is
//! refused: a sim value may not be filed under a host-time unit suffix
//! (`_s`, `_ms`, `_us`, `_ns`, `_per_s`, `_mb`), and a host value may not
//! be filed under a `sim_` name. Dotted per-layer names
//! (`<module>.<metric>[.<network>]`) are judged by their `<metric>` part.

use std::fmt;
use std::time::Duration;

/// Which clock a metric was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the simulator on this machine.
    Host,
    /// The modelled accelerator (cycles, energy, counts).
    Sim,
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        })
    }
}

/// A value read from the host clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Host {
    /// A duration in seconds.
    Seconds(f64),
    /// A duration in milliseconds.
    Millis(f64),
    /// A duration in microseconds.
    Micros(f64),
    /// Items completed per host second.
    PerSecond(f64),
    /// Resident memory in MiB.
    Megabytes(f64),
    /// Host nanoseconds spent per modelled cycle.
    NsPerCycle(f64),
    /// A ratio of two host durations.
    Share(f64),
}

impl Host {
    /// `d` in seconds.
    pub fn seconds(d: Duration) -> Host {
        Host::Seconds(d.as_secs_f64())
    }

    /// `d` in milliseconds.
    pub fn millis(d: Duration) -> Host {
        Host::Millis(d.as_secs_f64() * 1e3)
    }

    /// `d` in microseconds.
    pub fn micros(d: Duration) -> Host {
        Host::Micros(d.as_secs_f64() * 1e6)
    }

    fn parts(self) -> (f64, &'static str) {
        match self {
            Host::Seconds(v) => (v, "s"),
            Host::Millis(v) => (v, "ms"),
            Host::Micros(v) => (v, "us"),
            Host::PerSecond(v) => (v, "1/s"),
            Host::Megabytes(v) => (v, "MB"),
            Host::NsPerCycle(v) => (v, "ns/cycle"),
            Host::Share(v) => (v, "share"),
        }
    }
}

/// A value read from the modelled accelerator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sim {
    /// Modelled cycles (possibly a mean, hence fractional).
    Cycles(f64),
    /// Modelled energy in microjoules.
    Microjoules(f64),
    /// An event count.
    Count(u64),
    /// A ratio of two modelled counts.
    Share(f64),
}

impl Sim {
    fn parts(self) -> (f64, &'static str) {
        match self {
            Sim::Cycles(v) => (v, "cycles"),
            Sim::Microjoules(v) => (v, "uJ"),
            Sim::Count(v) => (v as f64, "count"),
            Sim::Share(v) => (v, "share"),
        }
    }
}

/// Unit suffixes that mark a name as a host-clock time, rate or size.
const HOST_SUFFIXES: [&str; 6] = ["_s", "_ms", "_us", "_ns", "_per_s", "_mb"];

/// One recorded metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit derived from the value's type.
    pub unit: &'static str,
    /// The clock the value was read from.
    pub clock: Clock,
}

/// Why a metric was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelError {
    /// The refused name.
    pub name: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metric {:?} refused: {}", self.name, self.reason)
    }
}

impl std::error::Error for LabelError {}

impl From<LabelError> for String {
    fn from(e: LabelError) -> String {
        e.to_string()
    }
}

/// The part of a name that carries its unit: the `<metric>` segment of a
/// dotted `<module>.<metric>[.<network>]` name, or the whole name.
fn metric_token(name: &str) -> &str {
    name.split('.').nth(1).unwrap_or(name)
}

/// The metrics of one run, in recording order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<Metric>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records a host-clock value.
    ///
    /// # Errors
    ///
    /// Refuses a `sim_` name, a malformed or repeated name, and a value
    /// that is not finite.
    pub fn host(&mut self, name: &str, value: Host) -> Result<(), LabelError> {
        if metric_token(name).starts_with("sim_") {
            return Err(refuse(name, "a host-clock value under a sim_ name"));
        }
        let (value, unit) = value.parts();
        self.push(name, value, unit, Clock::Host)
    }

    /// Records a sim-clock value.
    ///
    /// # Errors
    ///
    /// Refuses a name ending in a host unit suffix, a malformed or
    /// repeated name, and a value that is not finite.
    pub fn sim(&mut self, name: &str, value: Sim) -> Result<(), LabelError> {
        let token = metric_token(name);
        if HOST_SUFFIXES.iter().any(|s| token.ends_with(s)) {
            return Err(refuse(name, "a sim-clock value under a host unit suffix"));
        }
        let (value, unit) = value.parts();
        self.push(name, value, unit, Clock::Sim)
    }

    fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        clock: Clock,
    ) -> Result<(), LabelError> {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        if !well_formed {
            return Err(refuse(name, "not a well-formed metric name"));
        }
        if self.entries.iter().any(|m| m.name == name) {
            return Err(refuse(name, "recorded twice"));
        }
        if !value.is_finite() {
            return Err(refuse(name, "value is not finite"));
        }
        self.entries.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
        });
        Ok(())
    }

    /// Makes the set exactly `declared`, in its order. A declared share,
    /// count or sim value that was not recorded reads 0: the run did not
    /// exercise that layer.
    ///
    /// # Errors
    ///
    /// A recorded metric that is not declared or not in its declared unit
    /// and clock, and a declared host time that was not measured.
    pub fn complete(&mut self, declared: &[Declared]) -> Result<(), String> {
        if let Some(m) = self.entries.iter().find(|m| {
            !declared
                .iter()
                .any(|d| (d.name, d.unit, d.clock) == (m.name.as_str(), m.unit, m.clock))
        }) {
            return Err(format!(
                "metric {:?} ({} {}) is not declared in that unit and clock",
                m.name, m.clock, m.unit
            ));
        }
        let mut entries = Vec::with_capacity(declared.len());
        for d in declared {
            match self.entries.iter().position(|m| m.name == d.name) {
                Some(i) => entries.push(self.entries.swap_remove(i)),
                None if d.clock == Clock::Host && d.unit != "share" => {
                    return Err(format!("host metric {:?} was not measured", d.name));
                }
                None => entries.push(Metric {
                    name: d.name.to_string(),
                    value: 0.0,
                    unit: d.unit,
                    clock: d.clock,
                }),
            }
        }
        self.entries = entries;
        Ok(())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`, values printed with
    /// every digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// A human-readable table: name, value, unit and clock per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.entries {
            out += &format!("{:<40} {:>18} {:<9} {}\n", m.name, m.value, m.unit, m.clock);
        }
        out
    }
}

/// A metric `BENCHMARK.json` declares. Every untraced run reports each
/// of [`END_TO_END`], and every traced run each of [`PER_LAYER`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Declared {
    /// Metric name as printed.
    pub name: &'static str,
    /// The unit its value type gives it.
    pub unit: &'static str,
    /// The clock it is read from.
    pub clock: Clock,
}

const fn host(name: &'static str, unit: &'static str) -> Declared {
    Declared {
        name,
        unit,
        clock: Clock::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> Declared {
    Declared {
        name,
        unit,
        clock: Clock::Sim,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [Declared; 7] = [
    host("setup_s", "s"),
    host("throughput_per_s", "1/s"),
    host("latency_p50_ms", "ms"),
    host("latency_p99_ms", "ms"),
    host("peak_rss_mb", "MB"),
    sim("sim_cycles_per_item", "cycles"),
    sim("sim_latency_mean_cycles", "cycles"),
];

/// The per-layer metrics, reported by every workload's traced run.
///
/// Host times are measured on every workload. A workload that does not
/// exercise a layer (zoo-closed has no video pipeline and no service)
/// reports that layer's shares, cycles and counts as 0: no share of its
/// time went there, and no event happened there.
pub const PER_LAYER: [Declared; 37] = [
    host("cnn.build_ms", "ms"),
    host("core.prepare_ms", "ms"),
    host("core.infer_us", "us"),
    host("core.host_ns_per_sim_cycle", "ns/cycle"),
    host("core.norm_host_share", "share"),
    sim("core.sim_cycles_per_call", "cycles"),
    sim("core.sim_cycles.load", "cycles"),
    sim("core.sim_cycles.conv", "cycles"),
    sim("core.sim_cycles.pool", "cycles"),
    sim("core.sim_cycles.fc", "cycles"),
    sim("core.sim_cycles.norm", "cycles"),
    sim("core.sim_energy_uj_per_call", "uJ"),
    sim("core.delta_rows_share", "share"),
    host("sensor.diff_share", "share"),
    host("video.self_share", "share"),
    sim("video.computed_share", "share"),
    sim("video.sim_cycles.compute", "cycles"),
    sim("video.sim_cycles.load", "cycles"),
    sim("video.sim_cycles.compare", "cycles"),
    sim("video.sim_energy_uj_per_frame", "uJ"),
    host("serve.prepare_share", "share"),
    host("serve.loadgen_share", "share"),
    host("serve.infer_share", "share"),
    host("serve.loop_share", "share"),
    sim("serve.issued", "count"),
    sim("serve.ok", "count"),
    sim("serve.degraded", "count"),
    sim("serve.dropped", "count"),
    sim("serve.rejected", "count"),
    sim("serve.retries", "count"),
    sim("serve.batched", "count"),
    sim("serve.deadline_misses", "count"),
    sim("serve.end_cycles", "cycles"),
    sim("serve.useful_share", "share"),
    sim("serve.goodput", "share"),
    sim("faults.detected", "count"),
    host("trace.overhead_share", "share"),
];

fn refuse(name: &str, reason: &'static str) -> LabelError {
    LabelError {
        name: name.to_string(),
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_values_under_host_units_are_refused() {
        let mut m = Metrics::new();
        // The virtual-clock latency filed as host milliseconds: the
        // defect this type exists to stop.
        for name in [
            "latency_p50_ms",
            "setup_s",
            "throughput_per_s",
            "peak_rss_mb",
            "core.infer_us.LeNet-5",
            "serve.run_s",
        ] {
            assert!(m.sim(name, Sim::Cycles(40_959.0)).is_err(), "{name}");
            assert!(m.sim(name, Sim::Count(1)).is_err(), "{name}");
        }
        assert!(m.entries.is_empty());
    }

    #[test]
    fn host_values_under_sim_names_are_refused() {
        let mut m = Metrics::new();
        let d = Duration::from_micros(310);
        for name in [
            "sim_cycles_per_item",
            "sim_latency_mean_cycles",
            "core.sim_cycles.Gabor",
            "video.sim_cycles.load",
        ] {
            assert!(m.host(name, Host::millis(d)).is_err(), "{name}");
            assert!(m.host(name, Host::PerSecond(1.0)).is_err(), "{name}");
        }
        assert!(m.entries.is_empty());
    }

    #[test]
    fn units_come_from_the_value_type() {
        let mut m = Metrics::new();
        m.host("latency_p50_ms", Host::millis(Duration::from_micros(1500)))
            .unwrap();
        m.host("setup_s", Host::seconds(Duration::from_millis(250)))
            .unwrap();
        m.sim("sim_cycles_per_item", Sim::Cycles(905.0)).unwrap();
        m.sim("serve.issued", Sim::Count(4800)).unwrap();
        m.host("core.host_ns_per_sim_cycle.norm", Host::NsPerCycle(360.0))
            .unwrap();
        let got: Vec<(&str, f64, &str, Clock)> = m
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.value, e.unit, e.clock))
            .collect();
        assert_eq!(
            got,
            vec![
                ("latency_p50_ms", 1.5, "ms", Clock::Host),
                ("setup_s", 0.25, "s", Clock::Host),
                ("sim_cycles_per_item", 905.0, "cycles", Clock::Sim),
                ("serve.issued", 4800.0, "count", Clock::Sim),
                (
                    "core.host_ns_per_sim_cycle.norm",
                    360.0,
                    "ns/cycle",
                    Clock::Host
                ),
            ]
        );
    }

    #[test]
    fn malformed_repeated_and_non_finite_entries_are_refused() {
        let mut m = Metrics::new();
        m.sim("sim_goodput", Sim::Share(0.9)).unwrap();
        assert!(m.sim("sim_goodput", Sim::Share(0.9)).is_err());
        assert!(m.sim("_leading", Sim::Count(1)).is_err());
        assert!(m.sim("has space", Sim::Count(1)).is_err());
        assert!(m.sim(&"x".repeat(65), Sim::Count(1)).is_err());
        assert!(m.host("nan_s", Host::Seconds(f64::NAN)).is_err());
        assert_eq!(m.entries.len(), 1);
    }

    #[test]
    fn complete_fills_unexercised_layers_and_refuses_the_rest() {
        let declared = [
            host("a.time_us", "us"),
            host("a.self_share", "share"),
            sim("a.sim_cycles", "cycles"),
            sim("a.count", "count"),
        ];
        let mut m = Metrics::new();
        m.sim("a.count", Sim::Count(3)).unwrap();
        m.host("a.time_us", Host::Micros(2.5)).unwrap();
        m.complete(&declared).unwrap();
        let got: Vec<(&str, f64)> = m
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.value))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a.time_us", 2.5),
                ("a.self_share", 0.0),
                ("a.sim_cycles", 0.0),
                ("a.count", 3.0)
            ]
        );

        // A host time is never made up.
        let mut m = Metrics::new();
        m.sim("a.count", Sim::Count(3)).unwrap();
        assert!(m.complete(&declared).is_err());
        // Nothing undeclared, and nothing in another unit or clock.
        for (name, value) in [("b.count", Sim::Count(1)), ("a.count", Sim::Cycles(1.0))] {
            let mut m = Metrics::new();
            m.host("a.time_us", Host::Micros(1.0)).unwrap();
            m.sim(name, value).unwrap();
            assert!(m.complete(&declared).is_err(), "{name}");
        }
        let mut m = Metrics::new();
        m.host("a.time_us", Host::Micros(1.0)).unwrap();
        m.host("a.count", Host::Share(1.0)).unwrap();
        assert!(m.complete(&declared).is_err());
    }

    /// `(name, unit)` of every metric object in one section of
    /// `BENCHMARK.json`, in order.
    fn manifest_section(section: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closed")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_manifest() {
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = declared
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(manifest_section(section), ours, "{section}");
        }
    }

    #[test]
    fn declared_names_carry_their_clock() {
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let mut m = Metrics::new();
            let recorded = match d.clock {
                Clock::Host => m.host(d.name, Host::Share(0.5)),
                Clock::Sim => m.sim(d.name, Sim::Share(0.5)),
            };
            assert!(recorded.is_ok(), "{}", d.name);
        }
    }

    #[test]
    fn json_carries_value_and_unit() {
        let mut m = Metrics::new();
        m.host("throughput_per_s", Host::PerSecond(1234.5)).unwrap();
        m.sim("sim_energy_uj_per_item", Sim::Microjoules(0.0625))
            .unwrap();
        assert_eq!(
            m.to_json(),
            "{\"throughput_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"sim_energy_uj_per_item\": {\"value\": 0.0625, \"unit\": \"uJ\"}}"
        );
    }
}
