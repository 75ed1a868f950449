//! `serve-fleet`: camera fleets through `InferenceService::run`.
//!
//! Each call is one `InferenceService::run` over one of [`FLEETS`] fleets
//! of [`CAMERAS`] Gabor camera tenants on `InputSource::VideoStream`,
//! [`REQUESTS_PER_CAMERA`] open-loop requests each on the virtual clock; a
//! round runs every fleet once. Every fourth camera carries
//! parity-protected SRAM flips and scanline faults with salted retries;
//! the fault-free cameras are served in batches of up to eight lanes.
//! Cheap requests across many tenants put the event loop, the fair
//! scheduler, fault retries and the load generator in front of inference.
//!
//! The fleets differ only in their camera seeds, motion and fault
//! patterns. Splitting the 48 cameras into four services, 25 requests per
//! camera, keeps each call near 30 ms: calls that short often run
//! uncontended on a shared host, so their fastest readings repeat from run
//! to run (see [`Best`]), where calls of 0.1–0.5 s did not.
//!
//! The service runs on one OS thread (`physical_threads: 1`): the report
//! is the same at any thread count, but two threads on a two-core host
//! made the host time spread widely from run to run.
//!
//! Checks, all outside the timed calls: every report's ledgers balance,
//! every report equals the run's first report of its fleet, a run on two
//! OS threads equals it too, and every retained request sample replays
//! bit for bit through a direct `Session::infer` of `build_input(seq)`
//! under `request_salt`.

use std::time::{Duration, Instant};

use shidiannao::cnn::{zoo, Network};
use shidiannao::faults::{FaultConfig, FaultPlan, SramProtection};
use shidiannao::sensor::{Motion, MovingObject};
use shidiannao::serve::{
    hash_output, request_salt, InferenceService, InputSource, ServeConfig, ServiceReport,
    TenantSpec, TenantStats, Traffic,
};
use shidiannao::sim::{Accelerator, AcceleratorConfig, PreparedNetwork, RunError};

use crate::common::{self, splitmix64, Best, Checks, CoreCost, Outcome, RunConfig, SetupSchedule};
use crate::metrics::{Host, Metrics, Sim};

/// Services a round runs, one call each.
const FLEETS: usize = 4;

/// Camera tenants in one fleet.
const CAMERAS: usize = 12;

/// Requests each camera issues per `run` call. Kept fixed when sizing the
/// workload: `TenantSpec::build_input` replays a camera from frame 0, so
/// its cost grows with requests per camera.
const REQUESTS_PER_CAMERA: u64 = 25;

/// Mean open-loop inter-arrival gap per camera, in modelled cycles. With
/// [`DEADLINE`], sized so that about nine in ten requests complete within
/// their deadline, and every miss path (rejection, late completion,
/// deadline and fault drops) is taken.
const PERIOD: u64 = 4_000;

/// Modelled cycles from a request's arrival to its deadline.
const DEADLINE: u64 = 24_000;

/// Every `FAULTY_EVERY`-th camera runs under injected faults.
const FAULTY_EVERY: usize = 4;

/// Salted retries a faulty request gets before it is dropped.
const MAX_RETRIES: u32 = 2;

/// Set-up products: the network, its prepared form, the modelled cost of
/// one clean inference, and the fleets.
struct Fleets {
    net: Network,
    prepared: PreparedNetwork,
    clean: CoreCost,
    services: Vec<InferenceService>,
}

/// Fleet `k` on `threads` OS threads; every camera and fault seed derives
/// from the workload seed.
fn fleet(
    cfg: &RunConfig,
    net: &Network,
    k: usize,
    threads: usize,
) -> Result<InferenceService, String> {
    let cameras = cfg.derive(10);
    let object = MovingObject {
        size: (8, 8),
        speed: (5, 3),
    };
    let specs = (k * CAMERAS..(k + 1) * CAMERAS)
        .map(|i| {
            let seed = splitmix64(cameras ^ i as u64);
            let motion = match i % 3 {
                1 => Motion::Pan {
                    dx: 1 + (i as i32 % 2),
                    dy: 1,
                },
                _ => Motion::Static,
            };
            let spec = TenantSpec::new(format!("cam-{i:02}"), net.clone())
                .source(InputSource::VideoStream {
                    seed,
                    frame: (40, 40),
                    stride: (20, 20),
                    motion,
                    object: (i % 3 == 2).then_some(object),
                })
                .traffic(Traffic::Open {
                    period: PERIOD + 97 * (i as u64 % 7),
                    jitter: PERIOD / 2,
                    count: REQUESTS_PER_CAMERA,
                })
                .queue_capacity(4)
                .deadline_cycles(DEADLINE)
                .max_retries(MAX_RETRIES);
            if i % FAULTY_EVERY == FAULTY_EVERY - 1 {
                spec.faults(FaultConfig {
                    seed: splitmix64(seed),
                    nb_flip_rate: 1e-4,
                    sb_flip_rate: 1e-4,
                    ib_flip_rate: 1e-4,
                    pe_stuck_rate: 0.0,
                    scanline_rate: 0.02,
                    double_flip_share: 0.1,
                    protection: SramProtection::Parity,
                })
            } else {
                spec
            }
        })
        .collect();
    let config = ServeConfig {
        virtual_workers: 2,
        physical_threads: threads,
        samples_per_tenant: 2,
        max_batch: 8,
        ..ServeConfig::default()
    };
    InferenceService::new(config, specs).map_err(|e| format!("camera fleet {k}: {e}"))
}

/// Builds Gabor, prepares it and warms a session (the prepared network
/// serves the sample replay), and assembles the fleets. The steps are:
/// build, prepare, warm-up inference, fleet assembly.
fn set_up(cfg: &mut RunConfig) -> Result<(Vec<Duration>, Fleets), String> {
    let span = cfg.tracer.open("cnn.build", None, 0);
    let (build, net) = common::timed(|| zoo::gabor().build(cfg.derive(1)));
    cfg.tracer.close(span);
    let net = net.map_err(|e| format!("gabor build: {e}"))?;
    let start = Instant::now();
    let prepared = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .map_err(|e| format!("gabor prepare: {e}"))?;
    let end = Instant::now();
    cfg.tracer.push("core.prepare", None, 0, start, end);
    let (warm, warmed) = common::timed(|| prepared.session().infer(&net.random_input(0)));
    let warmed = warmed.map_err(|e| format!("warm-up inference: {e}"))?;
    let clean = CoreCost::of(&net, warmed.stats(), warmed.energy().total_nj());
    let (assemble, services) = common::timed(|| {
        (0..FLEETS)
            .map(|k| fleet(cfg, &net, k, 1))
            .collect::<Result<Vec<_>, _>>()
    });
    let steps = vec![build, end - start, warm, assemble];
    Ok((
        steps,
        Fleets {
            net,
            prepared,
            clean,
            services: services?,
        },
    ))
}

/// Sum of `field` over every tenant of every report.
fn total(reports: &[ServiceReport], field: fn(&TenantStats) -> u64) -> u64 {
    reports.iter().map(|r| r.total(field)).sum()
}

/// Runs `serve-fleet`.
///
/// # Errors
///
/// A set-up failure or a refused metric.
pub fn run(cfg: &mut RunConfig) -> Result<Outcome, String> {
    let (first, f) = set_up(cfg)?;
    let mut setups = SetupSchedule::new(&first, cfg.seconds);
    let mut checks = Checks::default();

    let mut best = Best::new(FLEETS);
    let mut replays: Option<Vec<Replay>> = cfg
        .tracer
        .enabled()
        .then(|| f.services.iter().map(Replay::new).collect());
    let mut baselines: Vec<Option<ServiceReport>> = vec![None; FLEETS];
    let started = Instant::now();
    let deadline = started + cfg.seconds;
    let mut round = 0u64;
    while Instant::now() < deadline {
        while setups.due() {
            setups.record(&set_up(cfg)?.0);
        }
        for (k, service) in f.services.iter().enumerate() {
            let call = round * FLEETS as u64 + k as u64;
            let start = Instant::now();
            let result = service.run();
            let end = Instant::now();
            best.record(k, end - start);
            cfg.tracer.push("serve.run", None, call, start, end);
            let ok = match result {
                Ok(report) => {
                    let balanced = checks.expect(report.accounting_consistent(), || {
                        format!("fleet {k} run {round}: a tenant ledger does not balance")
                    });
                    let same = match &baselines[k] {
                        None => {
                            baselines[k] = Some(report);
                            true
                        }
                        Some(b) => checks.expect(*b == report, || {
                            format!("fleet {k} run {round}: report differs from its first")
                        }),
                    };
                    balanced & same
                }
                Err(e) => checks.expect(false, || format!("fleet {k} run {round}: {e}")),
            };
            checks.record(ok);
            if let Some(replays) = replays.as_mut() {
                replays[k].once(cfg, service, call)?;
            }
        }
        round += 1;
    }
    let wall = started.elapsed();
    let reports: Vec<ServiceReport> = baselines
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("no round of run calls completed")?;

    for (k, report) in reports.iter().enumerate() {
        let threaded = fleet(cfg, &f.net, k, 2)?.run();
        checks.whole_run(threaded.as_ref() == Ok(report), || {
            format!("fleet {k}: report differs between 1 and 2 physical threads")
        });
        let (replayed, matched) = verify_samples(&f.prepared, &f.services[k], report)?;
        checks.whole_run(replayed > 0 && matched, || {
            format!(
                "fleet {k}: retained samples diverge from direct Session::infer \
                 ({replayed} replayed)"
            )
        });
    }

    let issued = total(&reports, |s| s.issued);
    let completed = total(&reports, |s| s.ok + s.degraded);
    let attempts = completed + total(&reports, |s| s.dropped_faulty + s.retries);
    let mut m = Metrics::new();
    if let Some(replays) = replays {
        m.host("cnn.build_ms", Host::millis(setups.step(0)))?;
        let tenants = (FLEETS * CAMERAS) as u32;
        let sum = |f: fn(&Replay) -> Duration| replays.iter().map(f).sum::<Duration>();
        let prepare = sum(|r| r.prepare.round());
        m.host("core.prepare_ms", Host::millis(prepare / tenants))?;
        let replayed_attempts: u32 = replays.iter().map(|r| r.attempts).sum();
        let infer = sum(|r| r.infer.round()) / replayed_attempts;
        m.host("core.infer_us", Host::micros(infer))?;
        let ok_cycles: u64 = replays.iter().map(|r| r.ok_cycles).sum();
        m.host(
            "core.host_ns_per_sim_cycle",
            Host::NsPerCycle(sum(|r| r.ok.round()).as_secs_f64() * 1e9 / ok_cycles as f64),
        )?;
        CoreCost::record_mean(&mut m, std::slice::from_ref(&f.clean))?;
        // `Session::infer` loads the whole input: every NB row is streamed.
        m.sim("core.delta_rows_share", Sim::Share(1.0))?;

        // What `run` does inside, at the replay's fastest readings: it
        // prepares each tenant, builds an input per executed request, and
        // infers every attempt plus one calibration per tenant. The rest
        // of the call is the service's own loop (an estimate).
        let requests = (FLEETS * CAMERAS) as u32 * REQUESTS_PER_CAMERA as u32;
        let build_input = sum(|r| r.build.round()) / requests;
        let built = completed + total(&reports, |s| s.dropped_faulty);
        let inferred = attempts + u64::from(tenants);
        let run_s = best.round().as_secs_f64();
        let parts = [
            ("serve.prepare_share", prepare.as_secs_f64()),
            (
                "serve.loadgen_share",
                built as f64 * build_input.as_secs_f64(),
            ),
            ("serve.infer_share", inferred as f64 * infer.as_secs_f64()),
        ];
        let inside: f64 = parts.iter().map(|(_, s)| s).sum();
        for (name, seconds) in parts {
            m.host(name, Host::Share(seconds / run_s))?;
        }
        m.host("serve.loop_share", Host::Share(1.0 - inside / run_s))?;

        for (name, value) in [
            ("serve.issued", issued),
            ("serve.ok", total(&reports, |s| s.ok)),
            ("serve.degraded", total(&reports, |s| s.degraded)),
            (
                "serve.dropped",
                total(&reports, |s| s.dropped_faulty + s.dropped_deadline),
            ),
            ("serve.rejected", total(&reports, |s| s.rejected)),
            ("serve.retries", total(&reports, |s| s.retries)),
            ("serve.batched", total(&reports, |s| s.batched)),
            (
                "serve.deadline_misses",
                total(&reports, |s| s.deadline_misses),
            ),
            ("faults.detected", total(&reports, |s| s.fault.detected)),
        ] {
            m.sim(name, Sim::Count(value))?;
        }
        let end_cycles: u64 = reports.iter().map(|r| r.end_cycles).sum();
        m.sim("serve.end_cycles", Sim::Cycles(end_cycles as f64))?;
        m.sim(
            "serve.useful_share",
            Sim::Share(completed as f64 / attempts as f64),
        )?;
        let on_time = completed - total(&reports, |s| s.deadline_misses);
        m.sim("serve.goodput", Sim::Share(on_time as f64 / issued as f64))?;
    } else {
        m.host("setup_s", Host::seconds(setups.best()))?;
        // Simulated requests per host second, and the host time of one
        // `run` call per fleet.
        m.host(
            "throughput_per_s",
            Host::PerSecond(best.rate(issued as usize)),
        )?;
        m.host("latency_p50_ms", Host::millis(best.quantile(0.50)))?;
        m.host("latency_p99_ms", Host::millis(best.quantile(0.99)))?;
        m.host("peak_rss_mb", Host::Megabytes(common::peak_rss_mb()?))?;
        // Worker cycles per completed request, wasted attempts included.
        let service_cycles = total(&reports, |s| s.service_cycles);
        m.sim(
            "sim_cycles_per_item",
            Sim::Cycles(service_cycles as f64 / completed as f64),
        )?;
        // The exact mean over every completed request (the histogram keeps
        // an exact sum beside its buckets).
        let (sum, count) =
            reports
                .iter()
                .flat_map(|r| &r.tenants)
                .fold((0.0, 0u64), |(s, c), t| {
                    let n = t.stats.latency.count();
                    (s + t.stats.latency.mean() * n as f64, c + n)
                });
        m.sim("sim_latency_mean_cycles", Sim::Cycles(sum / count as f64))?;
    }
    Outcome::finish(checks, m, &cfg.tracer, wall)
}

/// Replays every retained sample through a direct session under its
/// request salt and compares output hashes. Returns `(replayed, all
/// matched)`.
fn verify_samples(
    prepared: &PreparedNetwork,
    service: &InferenceService,
    report: &ServiceReport,
) -> Result<(usize, bool), String> {
    let mut replayed = 0;
    let mut matched = true;
    for (tenant, (spec, tr)) in service.tenants().iter().zip(&report.tenants).enumerate() {
        for sample in &tr.stats.samples {
            let plan = FaultPlan::new(spec.faults).with_salt(request_salt(
                tenant,
                sample.seq,
                sample.attempt,
            ));
            let input = spec
                .build_input(sample.seq)
                .map_err(|e| format!("{}: input {}: {e}", spec.name, sample.seq))?;
            replayed += 1;
            matched &= match prepared.session_with_faults(plan).infer(&input) {
                Ok(inference) => hash_output(inference.output()) == sample.output_hash,
                // Only successful attempts are sampled, so an abort on
                // replay is a divergence.
                Err(_) => false,
            };
        }
    }
    Ok((replayed, matched))
}

/// Host cost of the three things `run` does per tenant and per request,
/// measured by making the same calls on the same tenants, sequence
/// numbers and attempt salts as sibling spans. The traced run replays a
/// fleet once after each of its `run` calls, so both sides see the same
/// host contention, and keeps each call's fastest reading.
struct Replay {
    /// Preparing each tenant's network.
    prepare: Best,
    /// `TenantSpec::build_input`, per request.
    build: Best,
    /// `Session::infer` over all of a request's attempts.
    infer: Best,
    /// The attempt that succeeded, per request (zero when none did).
    ok: Best,
    /// Attempts one replay makes.
    attempts: u32,
    /// Modelled cycles of the attempts that succeeded.
    ok_cycles: u64,
}

impl Replay {
    fn new(service: &InferenceService) -> Replay {
        let tenants = service.tenants();
        let requests = tenants.iter().map(|t| t.traffic.count()).sum::<u64>() as usize;
        Replay {
            prepare: Best::new(tenants.len()),
            build: Best::new(requests),
            infer: Best::new(requests),
            ok: Best::new(requests),
            attempts: 0,
            ok_cycles: 0,
        }
    }

    fn once(
        &mut self,
        cfg: &mut RunConfig,
        service: &InferenceService,
        call: u64,
    ) -> Result<(), String> {
        let accel = Accelerator::new(service.config().accel.clone());
        self.attempts = 0;
        self.ok_cycles = 0;
        let mut request = 0;
        let replay_span = cfg.tracer.open("serve.replay", None, call);
        for (t, spec) in service.tenants().iter().enumerate() {
            let start = Instant::now();
            let prepared = accel
                .prepare(&spec.network)
                .map_err(|e| format!("{}: prepare: {e}", spec.name))?;
            let end = Instant::now();
            self.prepare.record(t, end - start);
            cfg.tracer
                .push("serve.prepare", Some(replay_span), t as u64, start, end);
            let mut session = prepared.session();
            for seq in 0..spec.traffic.count() {
                let item = ((t as u64) << 32) | seq;
                let start = Instant::now();
                let input = spec
                    .build_input(seq)
                    .map_err(|e| format!("{}: input {seq}: {e}", spec.name))?;
                let end = Instant::now();
                self.build.record(request, end - start);
                cfg.tracer
                    .push("serve.build_input", Some(replay_span), item, start, end);
                let mut inferring = Duration::ZERO;
                let mut succeeded = Duration::ZERO;
                for attempt in 0..=spec.max_retries {
                    let plan = FaultPlan::new(spec.faults).with_salt(request_salt(t, seq, attempt));
                    session.set_fault_plan(plan);
                    let start = Instant::now();
                    let result = session.infer(&input);
                    let end = Instant::now();
                    inferring += end - start;
                    self.attempts += 1;
                    cfg.tracer
                        .push("serve.infer", Some(replay_span), item, start, end);
                    match result {
                        Ok(inference) => {
                            succeeded = end - start;
                            self.ok_cycles += inference.stats().cycles();
                            break;
                        }
                        Err(RunError::FaultDetected(_)) => continue,
                        Err(e) => return Err(format!("{}: request {seq}: {e}", spec.name)),
                    }
                }
                self.infer.record(request, inferring);
                self.ok.record(request, succeeded);
                request += 1;
            }
        }
        cfg.tracer.close(replay_span);
        Ok(())
    }
}
