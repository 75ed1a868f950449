//! `zoo-closed`: the core executor on the 13 zoo networks (the ten of
//! Table 2 plus `zoo::extended`).
//!
//! One closed-loop client; each call is one `Session::infer_ref`,
//! round-robin over the networks. Puts the per-inference executor in
//! front: schedule replay on the paper networks, and the non-replayed
//! LRN/LCN path of AlexNet-lite and Jarrett-LCN.
//!
//! Every output is compared with `Network::forward_fixed` outside the
//! timed call, and every call's modelled cycles and energy must equal the
//! network's first run exactly.

use std::time::{Duration, Instant};

use shidiannao::cnn::{zoo, Network};
use shidiannao::fixed::Fx;
use shidiannao::sim::{Accelerator, AcceleratorConfig, PreparedNetwork, Session};
use shidiannao::tensor::MapStack;

use crate::common::{self, has_norm, Best, Checks, CoreCost, Outcome, RunConfig, SetupSchedule};
use crate::metrics::{Host, Metrics, Sim};

/// Inputs per network; rounds cycle through them.
const POOL: usize = 16;

/// One network's checked inputs.
struct Inputs {
    inputs: Vec<MapStack<Fx>>,
    golden: Vec<Vec<Fx>>,
}

/// Set-up products: the 13 networks and their prepared forms.
struct Zoo {
    nets: Vec<Network>,
    prepared: Vec<PreparedNetwork>,
}

fn build(cfg: &RunConfig) -> Result<Vec<Network>, String> {
    let seed = cfg.derive(1);
    zoo::all()
        .into_iter()
        .chain(zoo::extended::all())
        .map(|b| b.build(seed))
        .collect::<Result<Vec<Network>, _>>()
        .map_err(|e| format!("zoo build: {e}"))
}

/// Builds the networks, prepares each and warms a session on each. The
/// steps are: the build, then one prepare per network, then one warm-up
/// inference per network.
fn set_up(cfg: &mut RunConfig, pool: &[Inputs]) -> Result<(Vec<Duration>, Zoo), String> {
    let span = cfg.tracer.open("cnn.build", None, 0);
    let (build, nets) = common::timed(|| build(cfg));
    cfg.tracer.close(span);
    let nets = nets?;
    let mut steps = vec![build];
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let mut prepared = Vec::with_capacity(nets.len());
    for (n, net) in nets.iter().enumerate() {
        let start = Instant::now();
        let p = accel
            .prepare(net)
            .map_err(|e| format!("{}: prepare: {e}", net.name()))?;
        let end = Instant::now();
        cfg.tracer.push("core.prepare", None, n as u64, start, end);
        steps.push(end - start);
        prepared.push(p);
    }
    for (p, inputs) in prepared.iter().zip(pool) {
        let (warm, warmed) = common::timed(|| p.session().infer_ref(&inputs.inputs[0]).map(|_| ()));
        warmed.map_err(|e| format!("warm-up inference: {e}"))?;
        steps.push(warm);
    }
    Ok((steps, Zoo { nets, prepared }))
}

/// The checked inputs: made once per run, outside every timed region
/// and outside set-up.
fn generate_inputs(cfg: &RunConfig, nets: &[Network]) -> Vec<Inputs> {
    nets.iter()
        .enumerate()
        .map(|(n, net)| {
            let inputs: Vec<MapStack<Fx>> = (0..POOL)
                .map(|k| net.random_input(cfg.derive(1_000 + (n * POOL + k) as u64)))
                .collect();
            let golden = inputs
                .iter()
                .map(|x| net.forward_fixed(x).output())
                .collect();
            Inputs { inputs, golden }
        })
        .collect()
}

/// Runs `zoo-closed`.
///
/// # Errors
///
/// A set-up failure or a refused metric.
pub fn run(cfg: &mut RunConfig) -> Result<Outcome, String> {
    let pool = generate_inputs(cfg, &build(cfg)?);
    let (first, zoo) = set_up(cfg, &pool)?;
    let nets = zoo.nets.len();
    let mut setups = SetupSchedule::new(&first, cfg.seconds);
    let mut checks = Checks::default();

    // Fresh sessions for the timed phase, warmed (untimed) on the first
    // input; that run's modelled cost is the reference every call must
    // reproduce.
    let mut sessions: Vec<Session<'_>> = zoo.prepared.iter().map(|p| p.session()).collect();
    let mut reference = Vec::with_capacity(nets);
    for ((session, net), inputs) in sessions.iter_mut().zip(&zoo.nets).zip(&pool) {
        let r = session
            .infer_ref(&inputs.inputs[0])
            .map_err(|e| format!("{}: warm-up: {e}", net.name()))?;
        reference.push(CoreCost::of(net, r.stats(), r.energy().total_nj()));
    }

    let mut best = Best::new(nets);
    let started = Instant::now();
    let deadline = started + cfg.seconds;
    let mut round = 0;
    while Instant::now() < deadline {
        while setups.due() {
            setups.record(&set_up(cfg, &pool)?.0);
        }
        let round_span = cfg.tracer.open("zoo.round", None, round as u64);
        for (n, net) in zoo.nets.iter().enumerate() {
            let k = round % POOL;
            let start = Instant::now();
            let result = sessions[n].infer_ref(&pool[n].inputs[k]);
            let end = Instant::now();
            best.record(n, end - start);
            let item = (round * nets + n) as u64;
            cfg.tracer
                .push("core.infer_ref", Some(round_span), item, start, end);
            let ok = match result {
                Ok(r) => {
                    let cost = CoreCost::of(net, r.stats(), r.energy().total_nj());
                    let out = r.output_flat();
                    checks.expect(out == pool[n].golden[k], || {
                        format!("{}: input {k} differs from forward_fixed", net.name())
                    }) & checks.expect(cost == reference[n], || {
                        format!("{}: modelled cost changed between calls", net.name())
                    })
                }
                Err(e) => checks.expect(false, || format!("{}: {e}", net.name())),
            };
            checks.record(ok);
        }
        cfg.tracer.close(round_span);
        round += 1;
    }
    let wall = started.elapsed();

    let mut m = Metrics::new();
    if cfg.tracer.enabled() {
        m.host("cnn.build_ms", Host::millis(setups.step(0)))?;
        let prepare: Duration = (1..=nets).map(|n| setups.step(n)).sum();
        m.host("core.prepare_ms", Host::millis(prepare / nets as u32))?;
        per_layer(&mut m, &zoo.nets, &best, &reference)?;
    } else {
        m.host("setup_s", Host::seconds(setups.best()))?;
        m.host("throughput_per_s", Host::PerSecond(best.rate(nets)))?;
        m.host("latency_p50_ms", Host::millis(best.quantile(0.50)))?;
        m.host("latency_p99_ms", Host::millis(best.quantile(0.99)))?;
        m.host("peak_rss_mb", Host::Megabytes(common::peak_rss_mb()?))?;
        // The uniform round-robin mix: one inference of each network. A
        // closed loop with one client never queues, so an inference's
        // modelled latency is its cycles.
        let cycles: u64 = reference.iter().map(|r| r.cycles).sum();
        let per_item = cycles as f64 / nets as f64;
        m.sim("sim_cycles_per_item", Sim::Cycles(per_item))?;
        m.sim("sim_latency_mean_cycles", Sim::Cycles(per_item))?;
    }
    Outcome::finish(checks, m, &cfg.tracer, wall)
}

/// The traced core metrics: host time per inference and per modelled
/// cycle, the share of it the non-replayed norm networks take, and the
/// modelled cost per inference of the mix.
fn per_layer(
    m: &mut Metrics,
    nets: &[Network],
    best: &Best,
    reference: &[CoreCost],
) -> Result<(), String> {
    let round = best.round();
    m.host("core.infer_us", Host::micros(round / nets.len() as u32))?;
    let cycles: u64 = reference.iter().map(|r| r.cycles).sum();
    m.host(
        "core.host_ns_per_sim_cycle",
        Host::NsPerCycle(round.as_secs_f64() * 1e9 / cycles as f64),
    )?;
    let norm: Duration = (0..nets.len())
        .filter(|&n| has_norm(&nets[n]))
        .map(|n| best.get(n))
        .sum();
    m.host(
        "core.norm_host_share",
        Host::Share(norm.as_secs_f64() / round.as_secs_f64()),
    )?;
    CoreCost::record_mean(m, reference)?;
    // `infer_ref` loads the whole input: every NB row is streamed.
    m.sim("core.delta_rows_share", Sim::Share(1.0))?;
    Ok(())
}
