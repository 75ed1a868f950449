//! `video-gated`: the motion-gated video pipeline on a mostly-static
//! scene.
//!
//! Each call is one `VideoPipeline::process_frame` over pre-rendered
//! frames of the `harness video` mostly-static class: a static camera, one
//! moving object, Gabor on each 20×20 region of a 60×60 frame. Frames
//! share most pixels, so frame differencing, cached-result replay and the
//! cross-frame NBin delta-load (`Session::infer_delta`) do the work. A run
//! streams the clip again and again, resetting the pipeline's temporal
//! state between passes.
//!
//! The timed passes use the default `VideoConfig` with the oracle off:
//! the oracle runs the golden reference on every region and would make the
//! workload time `cnn::reference` instead of the pipeline. An untimed
//! `oracle: true` pass over the same frames certifies the outputs instead.

use std::time::{Duration, Instant};

use shidiannao::cnn::zoo;
use shidiannao::pipeline::RegionResult;
use shidiannao::sensor::{
    Frame, FrameDelta, FrameSource, Motion, MovingObject, RegionGrid, VideoSensor,
};
use shidiannao::sim::{Accelerator, AcceleratorConfig, NbResidency, PreparedNetwork};
use shidiannao::video::{VideoConfig, VideoFrameReport, VideoPipeline};

use crate::common::{self, Best, Checks, CoreCost, Outcome, RunConfig, SetupSchedule};
use crate::metrics::{Host, Metrics, Sim};

/// Sensor frame size.
const FRAME: (usize, usize) = (60, 60);

/// Region tiling stride (non-overlapping 20×20 Gabor regions).
const STRIDE: (usize, usize) = (20, 20);

/// Frames per pass: four refresh intervals of the default config.
const CLIP: usize = 64;

/// The scene's moving object (the `harness video` mostly-static class).
const OBJECT: MovingObject = MovingObject {
    size: (10, 10),
    speed: (7, 4),
};

/// The modelled side of one frame: every pass must reproduce it exactly.
#[derive(Clone, Debug, PartialEq)]
struct FrameSim {
    computed: usize,
    skipped: usize,
    compute_cycles: u64,
    load_cycles: u64,
    compare_cycles: u64,
    total_cycles: u64,
    energy_nj_bits: u64,
    rows_streamed: usize,
    rows_total: usize,
    results: Vec<RegionResult>,
}

impl FrameSim {
    fn of(r: &VideoFrameReport) -> FrameSim {
        FrameSim {
            computed: r.ledger().computed,
            skipped: r.ledger().skipped,
            compute_cycles: r.compute_cycles(),
            load_cycles: r.load_cycles(),
            compare_cycles: r.compare_cycles(),
            total_cycles: r.total_cycles(),
            energy_nj_bits: r.total_energy_nj().to_bits(),
            rows_streamed: r.rows_streamed(),
            rows_total: r.rows_total(),
            results: r.results().to_vec(),
        }
    }
}

fn pipeline(net: &shidiannao::cnn::Network, oracle: bool) -> Result<VideoPipeline, String> {
    let grid = RegionGrid::new(FRAME, net.input_dims(), STRIDE);
    VideoPipeline::new(
        Accelerator::new(AcceleratorConfig::paper()),
        net.clone(),
        grid,
        VideoConfig {
            oracle,
            ..VideoConfig::default()
        },
    )
    .map_err(|e| format!("video pipeline: {e}"))
}

/// Set-up: build Gabor and assemble the pipeline (which prepares the
/// network and warms a session with one probe inference). The steps are:
/// build, pipeline assembly.
fn set_up(cfg: &mut RunConfig) -> Result<(Vec<Duration>, VideoPipeline), String> {
    let span = cfg.tracer.open("cnn.build", None, 0);
    let (build, net) = common::timed(|| zoo::gabor().build(cfg.derive(1)));
    cfg.tracer.close(span);
    let net = net.map_err(|e| format!("gabor build: {e}"))?;
    let span = cfg.tracer.open("video.new", None, 0);
    let (assemble, pipe) = common::timed(|| pipeline(&net, false));
    cfg.tracer.close(span);
    Ok((vec![build, assemble], pipe?))
}

/// Runs `video-gated`.
///
/// # Errors
///
/// A set-up failure or a refused metric.
pub fn run(cfg: &mut RunConfig) -> Result<Outcome, String> {
    let (first, mut pipe) = set_up(cfg)?;
    let mut setups = SetupSchedule::new(&first, cfg.seconds);
    let mut camera =
        VideoSensor::new(FRAME.0, FRAME.1, cfg.derive(20), Motion::Static).with_object(OBJECT);
    let frames: Vec<Frame> = (0..CLIP).map(|_| camera.next_frame()).collect();
    let mut checks = Checks::default();

    // The traced run's layer replay gets a prepared network of its own, so
    // its session does not borrow the pipeline; preparing it is the traced
    // reading of `core.prepare_ms.Gabor`.
    let prepared = if cfg.tracer.enabled() {
        let start = Instant::now();
        let prepared = Accelerator::new(AcceleratorConfig::paper())
            .prepare(pipe.network())
            .map_err(|e| format!("gabor prepare: {e}"))?;
        let end = Instant::now();
        cfg.tracer.push("core.prepare", None, 0, start, end);
        Some((prepared, end - start))
    } else {
        None
    };
    let mut replay = prepared.as_ref().map(|(p, _)| Replay::new(p, &pipe));

    let mut reference: Vec<FrameSim> = Vec::with_capacity(CLIP);
    let mut best = Best::new(CLIP);
    let started = Instant::now();
    let deadline = started + cfg.seconds;
    let mut pass = 0u64;
    while Instant::now() < deadline {
        while setups.due() {
            setups.record(&set_up(cfg)?.0);
        }
        pipe.reset();
        let pass_span = cfg.tracer.open("video.pass", None, pass);
        for (i, frame) in frames.iter().enumerate() {
            let start = Instant::now();
            let result = pipe.process_frame(frame);
            let end = Instant::now();
            best.record(i, end - start);
            let item = pass * CLIP as u64 + i as u64;
            cfg.tracer
                .push("video.process_frame", Some(pass_span), item, start, end);
            let ok = match result {
                Ok(r) => {
                    let got = FrameSim::of(&r);
                    if pass == 0 {
                        reference.push(got);
                        true
                    } else {
                        checks.expect(got == reference[i], || {
                            format!("pass {pass} frame {i}: differs from the first pass")
                        })
                    }
                }
                Err(e) => checks.expect(false, || format!("pass {pass} frame {i}: {e}")),
            };
            checks.record(ok);
        }
        cfg.tracer.close(pass_span);
        if let Some(replay) = replay.as_mut() {
            replay.pass(cfg, &frames, pass)?;
        }
        pass += 1;
    }
    let wall = started.elapsed();
    if reference.len() != CLIP {
        return Err("the first pass did not complete".to_string());
    }

    // The untimed oracle pass: every computed region checked against the
    // golden reference, and the same ledger, cycles and outputs.
    let mut oracle = pipeline(pipe.network(), true)?;
    let mut certified = true;
    for (i, frame) in frames.iter().enumerate() {
        certified &= match oracle.process_frame(frame) {
            Ok(r) => {
                checks.expect(r.bit_identical(), || {
                    format!("frame {i}: a computed region differs from forward_fixed")
                }) & checks.expect(FrameSim::of(&r) == reference[i], || {
                    format!("frame {i}: the oracle pass differs from the timed pass")
                })
            }
            Err(e) => checks.expect(false, || format!("oracle frame {i}: {e}")),
        };
    }
    checks.record(certified);

    let per_frame =
        |f: fn(&FrameSim) -> u64| reference.iter().map(f).sum::<u64>() as f64 / CLIP as f64;
    let mut m = Metrics::new();
    if let (Some(replay), Some((_, prepare))) = (replay, &prepared) {
        m.host("cnn.build_ms", Host::millis(setups.step(0)))?;
        m.host("core.prepare_ms", Host::millis(*prepare))?;
        checks.whole_run(
            replay.calls.len() == reference.iter().map(|r| r.computed).sum::<usize>(),
            || "the layer replay computed other regions than the pipeline".to_string(),
        );
        let (diff, infer) = (replay.diff.round(), replay.infer.round());
        let calls = replay.calls.len().max(1);
        m.host("core.infer_us", Host::micros(infer / calls as u32))?;
        let cycles: u64 = replay.calls.iter().map(|c| c.cycles).sum();
        m.host(
            "core.host_ns_per_sim_cycle",
            Host::NsPerCycle(infer.as_secs_f64() * 1e9 / cycles as f64),
        )?;
        CoreCost::record_mean(&mut m, &replay.calls)?;
        let frames = best.round().as_secs_f64();
        m.host(
            "sensor.diff_share",
            Host::Share(diff.as_secs_f64() / frames),
        )?;
        m.host(
            "video.self_share",
            Host::Share(1.0 - (diff + infer).as_secs_f64() / frames),
        )?;
        let sum = |f: fn(&FrameSim) -> usize| reference.iter().map(f).sum::<usize>() as f64;
        m.sim(
            "video.computed_share",
            Sim::Share(sum(|r| r.computed) / sum(|r| r.computed + r.skipped)),
        )?;
        m.sim(
            "core.delta_rows_share",
            Sim::Share(sum(|r| r.rows_streamed) / sum(|r| r.rows_total)),
        )?;
        m.sim(
            "video.sim_cycles.compute",
            Sim::Cycles(per_frame(|r| r.compute_cycles)),
        )?;
        m.sim(
            "video.sim_cycles.load",
            Sim::Cycles(per_frame(|r| r.load_cycles)),
        )?;
        m.sim(
            "video.sim_cycles.compare",
            Sim::Cycles(per_frame(|r| r.compare_cycles)),
        )?;
        let energy_nj: f64 = reference
            .iter()
            .map(|r| f64::from_bits(r.energy_nj_bits))
            .sum();
        m.sim(
            "video.sim_energy_uj_per_frame",
            Sim::Microjoules(energy_nj / 1e3 / CLIP as f64),
        )?;
    } else {
        m.host("setup_s", Host::seconds(setups.best()))?;
        m.host("throughput_per_s", Host::PerSecond(best.rate(CLIP)))?;
        m.host("latency_p50_ms", Host::millis(best.quantile(0.50)))?;
        m.host("latency_p99_ms", Host::millis(best.quantile(0.99)))?;
        m.host("peak_rss_mb", Host::Megabytes(common::peak_rss_mb()?))?;
        m.sim(
            "sim_cycles_per_item",
            Sim::Cycles(per_frame(|r| r.total_cycles)),
        )?;
        // Stages of a frame run back to back, so a frame's modelled
        // latency is its total cycles.
        m.sim(
            "sim_latency_mean_cycles",
            Sim::Cycles(per_frame(|r| r.total_cycles)),
        )?;
    }
    Outcome::finish(checks, m, &cfg.tracer, wall)
}

/// Host cost of the two layers a frame calls into, measured by making the
/// calls `process_frame` makes on the same frames as sibling spans:
/// `FrameDelta::observe` per frame, and `Session::infer_delta` on every
/// region the default config computes (first frame, refresh frames, dirty
/// regions). The traced run replays one pass after every timed pass, so
/// both sides see the same host contention, and keeps each call's fastest
/// reading.
struct Replay<'p> {
    prepared: &'p PreparedNetwork,
    grid: RegionGrid,
    config: VideoConfig,
    maps: usize,
    /// `FrameDelta::observe`, per frame of the clip.
    diff: Best,
    /// `Session::infer_delta`, per region of each frame (zero when the
    /// region is not computed).
    infer: Best,
    /// Modelled cost of each region `infer_delta` computed in one pass.
    calls: Vec<CoreCost>,
}

impl<'p> Replay<'p> {
    fn new(prepared: &'p PreparedNetwork, pipe: &VideoPipeline) -> Replay<'p> {
        let grid = *pipe.grid();
        Replay {
            prepared,
            grid,
            config: *pipe.config(),
            maps: pipe.network().input_maps(),
            diff: Best::new(CLIP),
            infer: Best::new(CLIP * grid.count()),
            calls: Vec::new(),
        }
    }

    fn pass(&mut self, cfg: &mut RunConfig, frames: &[Frame], pass: u64) -> Result<(), String> {
        let regions = self.grid.count();
        let mut delta = FrameDelta::new(self.grid, self.config.dirty_threshold);
        let mut residency = vec![NbResidency::new(); regions];
        let mut session = self.prepared.session();
        let refresh = self.config.refresh_interval;
        self.calls.clear();
        for (i, frame) in frames.iter().enumerate() {
            let item = pass * CLIP as u64 + i as u64;
            let frame_span = cfg.tracer.open("video.replay", None, item);
            let start = Instant::now();
            let dirty = delta
                .observe(frame)
                .map_err(|e| format!("frame delta: {e}"))?;
            let end = Instant::now();
            self.diff.record(i, end - start);
            cfg.tracer
                .push("sensor.frame_delta", Some(frame_span), item, start, end);
            let forced = i == 0 || (refresh > 0 && (i as u64).is_multiple_of(refresh));
            let raws = self
                .grid
                .try_stream(frame, self.maps)
                .map_err(|e| format!("region stream: {e}"))?;
            for (ri, raw) in raws.enumerate() {
                let mut took = Duration::ZERO;
                if forced || dirty.is_dirty(ri) {
                    let start = Instant::now();
                    let (inference, _) = session
                        .infer_delta(&raw, &mut residency[ri])
                        .map_err(|e| format!("infer_delta: {e}"))?;
                    let end = Instant::now();
                    took = end - start;
                    cfg.tracer
                        .push("core.infer_delta", Some(frame_span), item, start, end);
                    self.calls.push(CoreCost::of(
                        self.prepared.network(),
                        inference.stats(),
                        inference.energy().total_nj(),
                    ));
                }
                self.infer.record(i * regions + ri, took);
            }
            cfg.tracer.close(frame_span);
        }
        Ok(())
    }
}
