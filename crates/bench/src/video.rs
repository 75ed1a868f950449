//! The temporal-reuse video experiment behind `harness video [--smoke]`.
//!
//! Two legs, one artifact (`BENCH_video.json`):
//!
//! * **Scene classes** — three camera motion classes (static,
//!   mostly-static with a crossing object, panning) stream through the
//!   motion-gated [`VideoPipeline`], plus a fourth run wiring the PR-9
//!   binarized front-end as a second gate
//!   ([`MotionGate::DiffThenBinaryFront`]). Each scene reports its
//!   skip/compute ledger, delta-load row traffic, compare/front costs,
//!   and cycle/energy totals against frame-independent processing.
//! * **Multi-camera serving** — dozens (smoke) to over a hundred (full)
//!   deterministic camera streams (`InputSource::VideoStream`) driven
//!   through the multi-tenant `InferenceService` on the virtual clock,
//!   each with its own deadline SLO, reported per camera.
//!
//! Determinism contract matches the other harness artifacts: the report
//! is a pure function of the scenario constants, so the JSON document is
//! byte-identical across runs, machines, and thread counts. `run_video`
//! proves it the same blunt way as the tuner and the cascade — three
//! generations, one pinned to a single rayon worker, byte-compared.
//!
//! Gates (smoke, CI):
//!
//! * the static and mostly-static scenes save **strictly** on both
//!   cycles (≥ [`CYCLE_SPEEDUP_GATE`]×) and energy vs frame-independent
//!   processing (the panning scene is reported ungated — panning motion
//!   is the honest no-benefit case),
//! * every computed region in every scene is bit-identical to a direct
//!   `Session::infer` (the pipeline's every-region oracle),
//! * the static scene's warm recomputes stream strictly fewer NBin rows
//!   than cold loads (the delta-load evidence),
//! * the front-gated scene actually runs the binary front,
//! * the serve leg is invariant across physical worker counts, its
//!   ledgers balance, and (in smoke mode) the per-scene skip/compute
//!   ledger and the serve totals are frozen so any drift in the scene
//!   synthesis, the differencing, the gate, or the scheduler fails CI.

use crate::json::{comma, json_f64, json_str};
use shidiannao::video::{MotionGate, VideoConfig, VideoPipeline};
use shidiannao_cnn::zoo;
use shidiannao_core::{Accelerator, AcceleratorConfig};
use shidiannao_fixed::Fx;
use shidiannao_sensor::{FrameSource, Motion, MovingObject, RegionGrid, VideoSensor};
use shidiannao_serve::{InferenceService, InputSource, ServeConfig, TenantSpec, Traffic};

/// Network build seed — the same one the perf harness uses.
const BUILD_SEED: u64 = crate::experiments::SEED;

/// World-texture seed shared by the scene-class cameras.
const SCENE_SEED: u64 = 0x71DE0;

/// Base seed for the multi-camera serve leg.
const CAM_SEED: u64 = 0xCA13;

/// Frames per scene in smoke / full mode.
const SMOKE_FRAMES: usize = 8;
const FULL_FRAMES: usize = 24;

/// Cameras in the serve leg in smoke / full mode.
const SMOKE_CAMERAS: usize = 24;
const FULL_CAMERAS: usize = 120;

/// Requests per camera in smoke / full mode.
const SMOKE_REQUESTS: u64 = 4;
const FULL_REQUESTS: u64 = 8;

/// Minimum cycle speedup the gated (static, mostly-static) scenes must
/// show over frame-independent processing.
pub const CYCLE_SPEEDUP_GATE: f64 = 2.0;

/// Frozen smoke-mode per-scene ledgers: `(name, computed, skipped)`
/// summed over all [`SMOKE_FRAMES`] frames of the 3×3 region grid.
/// Regenerate deliberately if the scene synthesis, the differencing
/// threshold, the refresh policy, or the front-end topology changes.
pub const EXPECTED_SMOKE_SCENES: &[(&str, usize, usize)] = &[
    ("static", 18, 54),
    ("mostly-static", 30, 42),
    ("panning", 72, 0),
    ("front-gated", 25, 47),
];

/// Frozen smoke-mode serve totals: `(issued, ok)` summed over all
/// [`SMOKE_CAMERAS`] camera tenants.
pub const EXPECTED_SMOKE_SERVE: (u64, u64) = (96, 96);

/// Frozen virtual cycle the smoke serve leg must end at.
pub const EXPECTED_SMOKE_SERVE_END_CYCLES: u64 = 68_611;

/// One scene class through the motion-gated pipeline, totalled over the
/// whole clip.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneRow {
    /// Scene label.
    pub name: &'static str,
    /// Whether the cycle/energy savings gates apply to this scene.
    pub gated: bool,
    /// Frames streamed.
    pub frames: usize,
    /// Regions per frame.
    pub regions: usize,
    /// Regions computed at full precision.
    pub computed: usize,
    /// Regions that replayed their cached result.
    pub skipped: usize,
    /// Total pipeline cycles (compute + delta-load + compare + front).
    pub total_cycles: u64,
    /// Frame-independent baseline cycles for the same clip.
    pub baseline_cycles: u64,
    /// Total pipeline energy in nJ.
    pub total_energy_nj: f64,
    /// Frame-independent baseline energy in nJ.
    pub baseline_energy_nj: f64,
    /// Cycles spent on per-region frame differencing.
    pub compare_cycles: u64,
    /// Cycles spent in the binary front gate.
    pub front_cycles: u64,
    /// Binary-front gate decisions taken.
    pub front_runs: usize,
    /// Dirty regions the front rejected back to cached replay.
    pub front_rejected: usize,
    /// NBin input rows actually streamed by computed regions.
    pub rows_streamed: usize,
    /// NBin input rows a cold load of the same regions would stream.
    pub rows_total: usize,
    /// Skipped regions whose cached replay disagreed with the oracle's
    /// detection decision.
    pub stale_results: usize,
    /// Stale replays that crossed the detection threshold.
    pub missed_detections: usize,
    /// Every computed region matched a direct `Session::infer`.
    pub bit_identical: bool,
}

impl SceneRow {
    /// Baseline / pipeline cycle ratio.
    pub fn cycle_speedup(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.baseline_cycles as f64 / self.total_cycles as f64
    }

    /// Fraction of baseline energy saved.
    pub fn energy_saved(&self) -> f64 {
        if self.baseline_energy_nj == 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy_nj / self.baseline_energy_nj
    }
}

/// One camera tenant of the serve leg.
#[derive(Clone, Debug, PartialEq)]
pub struct CameraRow {
    /// Tenant name (`cam-000` …).
    pub name: String,
    /// Requests issued.
    pub issued: u64,
    /// Requests answered within SLO policy.
    pub ok: u64,
    /// Requests dropped (faulty or past deadline).
    pub dropped: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Deadline misses among completions.
    pub deadline_misses: u64,
    /// 99th-percentile latency in virtual cycles.
    pub latency_p99: u64,
}

/// The video experiment's full result.
#[derive(Clone, Debug, PartialEq)]
pub struct VideoBenchReport {
    /// Scenario label (`smoke` / `full`).
    pub scenario: &'static str,
    /// Per-scene totals.
    pub scenes: Vec<SceneRow>,
    /// Per-camera serve rows.
    pub cameras: Vec<CameraRow>,
    /// Virtual cycle the serve leg ended at.
    pub serve_end_cycles: u64,
    /// Serve leg equal across 1 and 2 physical worker threads.
    pub worker_count_invariant: bool,
    /// Every camera's outcome ledger balanced.
    pub accounting_consistent: bool,
}

/// The four scene classes: `(name, motion, object, gate, gated)`.
fn scene_classes() -> [(&'static str, Motion, Option<MovingObject>, MotionGate, bool); 4] {
    let object = MovingObject {
        size: (10, 10),
        speed: (7, 4),
    };
    [
        ("static", Motion::Static, None, MotionGate::Diff, true),
        (
            "mostly-static",
            Motion::Static,
            Some(object),
            MotionGate::Diff,
            true,
        ),
        (
            "panning",
            Motion::Pan { dx: 2, dy: 1 },
            None,
            MotionGate::Diff,
            false,
        ),
        (
            "front-gated",
            Motion::Static,
            Some(object),
            MotionGate::DiffThenBinaryFront {
                threshold: Fx::from_f32(0.25),
                seed: BUILD_SEED,
            },
            false,
        ),
    ]
}

/// Streams one scene class through a fresh pipeline and totals it.
fn run_scene(
    name: &'static str,
    motion: Motion,
    object: Option<MovingObject>,
    gate: MotionGate,
    gated: bool,
    frames: usize,
) -> Result<SceneRow, String> {
    let net = zoo::gabor()
        .build(BUILD_SEED)
        .map_err(|e| format!("{name}: gabor build: {e}"))?;
    let grid = RegionGrid::new((60, 60), net.input_dims(), (20, 20));
    let regions = grid.count();
    // A short refresh interval forces periodic warm recomputes even on
    // the static scene, so the smoke clip exercises the delta-load path
    // (zero rows streamed on an unchanged region) rather than only
    // cold loads and cache replays.
    let config = VideoConfig {
        gate,
        refresh_interval: 4,
        ..VideoConfig::default()
    };
    let mut pipe = VideoPipeline::new(
        Accelerator::new(AcceleratorConfig::paper()),
        net,
        grid,
        config,
    )
    .map_err(|e| format!("{name}: pipeline: {e}"))?;
    let mut cam = VideoSensor::new(60, 60, SCENE_SEED, motion);
    if let Some(o) = object {
        cam = cam.with_object(o);
    }
    let mut row = SceneRow {
        name,
        gated,
        frames,
        regions,
        computed: 0,
        skipped: 0,
        total_cycles: 0,
        baseline_cycles: 0,
        total_energy_nj: 0.0,
        baseline_energy_nj: 0.0,
        compare_cycles: 0,
        front_cycles: 0,
        front_runs: 0,
        front_rejected: 0,
        rows_streamed: 0,
        rows_total: 0,
        stale_results: 0,
        missed_detections: 0,
        bit_identical: true,
    };
    for _ in 0..frames {
        let r = pipe
            .process_frame(&cam.next_frame())
            .map_err(|e| format!("{name}: frame: {e}"))?;
        row.computed += r.ledger().computed;
        row.skipped += r.ledger().skipped;
        row.total_cycles += r.total_cycles();
        row.baseline_cycles += r.baseline_cycles();
        row.total_energy_nj += r.total_energy_nj();
        row.baseline_energy_nj += r.baseline_energy_nj();
        row.compare_cycles += r.compare_cycles();
        row.front_cycles += r.front_cycles();
        row.front_runs += r.front_runs();
        row.front_rejected += r.front_rejected();
        row.rows_streamed += r.rows_streamed();
        row.rows_total += r.rows_total();
        row.stale_results += r.stale_results();
        row.missed_detections += r.missed_detections();
        row.bit_identical &= r.bit_identical();
    }
    Ok(row)
}

/// Builds the multi-camera serving scenario: `cameras` independent
/// [`InputSource::VideoStream`] tenants over one shared topology, each
/// with its own seed, motion class, arrival period, and deadline SLO.
fn camera_fleet(cameras: usize, requests: u64, threads: usize) -> Result<InferenceService, String> {
    let net = zoo::gabor()
        .build(BUILD_SEED)
        .map_err(|e| format!("gabor build: {e}"))?;
    let object = MovingObject {
        size: (8, 8),
        speed: (5, 3),
    };
    let specs: Vec<TenantSpec> = (0..cameras)
        .map(|i| {
            let motion = match i % 3 {
                0 => Motion::Static,
                1 => Motion::Pan {
                    dx: 1 + (i as i32 % 2),
                    dy: 1,
                },
                _ => Motion::Static,
            };
            TenantSpec::new(format!("cam-{i:03}"), net.clone())
                .source(InputSource::VideoStream {
                    seed: CAM_SEED ^ i as u64,
                    frame: (40, 40),
                    stride: (20, 20),
                    motion,
                    object: if i % 3 == 2 { Some(object) } else { None },
                })
                .traffic(Traffic::Open {
                    // One fleet round costs cameras × clean-cycles / 2
                    // virtual workers; the period scales with the fleet
                    // so smoke and full are both busy without drowning.
                    period: 600 * cameras as u64 + 97 * (i as u64 % 7),
                    jitter: 300,
                    count: requests,
                })
                .weight(1)
                .queue_capacity(2)
                .deadline_cycles(900 * cameras as u64)
        })
        .collect();
    let config = ServeConfig {
        virtual_workers: 2,
        physical_threads: threads,
        samples_per_tenant: 2,
        ..ServeConfig::default()
    };
    InferenceService::new(config, specs).map_err(|e| format!("camera fleet: {e}"))
}

/// Runs the scene classes and the camera fleet and assembles the report.
///
/// # Errors
///
/// Returns a description of the first scene or serve failure.
pub fn evaluate(smoke: bool) -> Result<VideoBenchReport, String> {
    let frames = if smoke { SMOKE_FRAMES } else { FULL_FRAMES };
    let cameras = if smoke { SMOKE_CAMERAS } else { FULL_CAMERAS };
    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };

    let mut scenes = Vec::new();
    for (name, motion, object, gate, gated) in scene_classes() {
        scenes.push(run_scene(name, motion, object, gate, gated, frames)?);
    }

    let serial = camera_fleet(cameras, requests, 1)?
        .run()
        .map_err(|e| format!("serve leg: {e}"))?;
    let threaded = camera_fleet(cameras, requests, 2)?
        .run()
        .map_err(|e| format!("serve leg (threaded): {e}"))?;
    let worker_count_invariant = serial == threaded;
    let accounting_consistent = serial.accounting_consistent();
    let camera_rows = serial
        .tenants
        .iter()
        .map(|t| {
            let s = &t.stats;
            CameraRow {
                name: t.name.clone(),
                issued: s.issued,
                ok: s.ok,
                dropped: s.dropped_faulty + s.dropped_deadline,
                rejected: s.rejected,
                deadline_misses: s.deadline_misses,
                latency_p99: t.latency().p99,
            }
        })
        .collect();
    Ok(VideoBenchReport {
        scenario: if smoke { "smoke" } else { "full" },
        scenes,
        cameras: camera_rows,
        serve_end_cycles: serial.end_cycles,
        worker_count_invariant,
        accounting_consistent,
    })
}

impl VideoBenchReport {
    /// Total `(issued, ok)` across the camera fleet.
    pub fn serve_totals(&self) -> (u64, u64) {
        self.cameras
            .iter()
            .fold((0, 0), |acc, c| (acc.0 + c.issued, acc.1 + c.ok))
    }

    /// Deterministic JSON document (`BENCH_video.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += &format!("  \"scenario\": {},\n", json_str(self.scenario));
        out += "  \"scenes\": [\n";
        for (i, s) in self.scenes.iter().enumerate() {
            out += &format!(
                "    {{\"name\": {}, \"gated\": {}, \"frames\": {}, \"regions\": {}, \
                 \"computed\": {}, \"skipped\": {}, \"total_cycles\": {}, \
                 \"baseline_cycles\": {}, \"cycle_speedup\": {}, \
                 \"total_energy_nj\": {}, \"baseline_energy_nj\": {}, \
                 \"energy_saved\": {}, \"compare_cycles\": {}, \"front_cycles\": {}, \
                 \"front_runs\": {}, \"front_rejected\": {}, \"rows_streamed\": {}, \
                 \"rows_total\": {}, \"stale_results\": {}, \"missed_detections\": {}, \
                 \"bit_identical\": {}}}{}\n",
                json_str(s.name),
                s.gated,
                s.frames,
                s.regions,
                s.computed,
                s.skipped,
                s.total_cycles,
                s.baseline_cycles,
                json_f64(s.cycle_speedup()),
                json_f64(s.total_energy_nj),
                json_f64(s.baseline_energy_nj),
                json_f64(s.energy_saved()),
                s.compare_cycles,
                s.front_cycles,
                s.front_runs,
                s.front_rejected,
                s.rows_streamed,
                s.rows_total,
                s.stale_results,
                s.missed_detections,
                s.bit_identical,
                comma(i, self.scenes.len()),
            );
        }
        out += "  ],\n";
        let (issued, ok) = self.serve_totals();
        out += &format!("  \"serve_cameras\": {},\n", self.cameras.len());
        out += &format!("  \"serve_issued\": {issued},\n");
        out += &format!("  \"serve_ok\": {ok},\n");
        out += &format!("  \"serve_end_cycles\": {},\n", self.serve_end_cycles);
        out += &format!(
            "  \"worker_count_invariant\": {},\n",
            self.worker_count_invariant
        );
        out += &format!(
            "  \"accounting_consistent\": {},\n",
            self.accounting_consistent
        );
        out += "  \"cameras\": [\n";
        for (i, c) in self.cameras.iter().enumerate() {
            out += &format!(
                "    {{\"name\": {}, \"issued\": {}, \"ok\": {}, \"dropped\": {}, \
                 \"rejected\": {}, \"deadline_misses\": {}, \"latency_p99\": {}}}{}\n",
                json_str(&c.name),
                c.issued,
                c.ok,
                c.dropped,
                c.rejected,
                c.deadline_misses,
                c.latency_p99,
                comma(i, self.cameras.len()),
            );
        }
        out += "  ]\n}\n";
        out
    }

    /// Human-readable summary for harness stdout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "temporal-reuse video datapath ({}): {} scenes, {} cameras\n",
            self.scenario,
            self.scenes.len(),
            self.cameras.len()
        );
        out += "scene          comp  skip    cycles  vs base  energy  rows in/total  front  stale  8-bit\n";
        for s in &self.scenes {
            out += &format!(
                "{:<13} {:>5} {:>5} {:>9} {:>7.2}x {:>6.1}% {:>6}/{:<6} {:>3}-{:<3} {:>4}   {}\n",
                s.name,
                s.computed,
                s.skipped,
                s.total_cycles,
                s.cycle_speedup(),
                100.0 * s.energy_saved(),
                s.rows_streamed,
                s.rows_total,
                s.front_runs,
                s.front_rejected,
                s.stale_results,
                if s.bit_identical { "yes" } else { "NO" },
            );
        }
        let (issued, ok) = self.serve_totals();
        let misses: u64 = self.cameras.iter().map(|c| c.deadline_misses).sum();
        let p99 = self
            .cameras
            .iter()
            .map(|c| c.latency_p99)
            .max()
            .unwrap_or(0);
        out += &format!(
            "serve: {} cameras, {issued} issued, {ok} ok, {misses} deadline misses, \
             worst p99 {p99} cycles, {} virtual cycles\n",
            self.cameras.len(),
            self.serve_end_cycles
        );
        out += &format!(
            "certificates: worker-invariant {}, accounting {}\n",
            self.worker_count_invariant, self.accounting_consistent
        );
        out
    }

    /// Gate violations under the harness's unified exit-code policy.
    pub fn gate_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for s in &self.scenes {
            if !s.bit_identical {
                errors.push(format!(
                    "{}: a computed region diverged from direct Session::infer",
                    s.name
                ));
            }
            if !s.gated {
                continue;
            }
            if s.cycle_speedup() < CYCLE_SPEEDUP_GATE {
                errors.push(format!(
                    "{}: cycle speedup {:.2}x below the {CYCLE_SPEEDUP_GATE}x gate \
                     ({} vs {} baseline)",
                    s.name,
                    s.cycle_speedup(),
                    s.total_cycles,
                    s.baseline_cycles
                ));
            }
            if s.total_energy_nj >= s.baseline_energy_nj {
                errors.push(format!(
                    "{}: energy {:.1} nJ not below frame-independent {:.1} nJ",
                    s.name, s.total_energy_nj, s.baseline_energy_nj
                ));
            }
        }
        if let Some(s) = self.scenes.iter().find(|s| s.name == "static") {
            if s.rows_streamed >= s.rows_total {
                errors.push(format!(
                    "static: delta-load saved no NBin rows ({}/{} streamed)",
                    s.rows_streamed, s.rows_total
                ));
            }
        }
        if let Some(s) = self.scenes.iter().find(|s| s.name == "front-gated") {
            if s.front_runs == 0 {
                errors.push("front-gated: binary front never consulted".to_string());
            }
        }
        if !self.worker_count_invariant {
            errors.push("serve leg differs across physical worker counts".to_string());
        }
        if !self.accounting_consistent {
            errors.push("a camera's outcome ledger does not balance".to_string());
        }
        let (issued, ok) = self.serve_totals();
        if ok == 0 {
            errors.push("serve leg completed no requests".to_string());
        }
        if self.scenario == "smoke" {
            for &(name, computed, skipped) in EXPECTED_SMOKE_SCENES {
                let Some(s) = self.scenes.iter().find(|s| s.name == name) else {
                    errors.push(format!("smoke scene {name} missing from report"));
                    continue;
                };
                if (s.computed, s.skipped) != (computed, skipped) {
                    errors.push(format!(
                        "{name}: skip/compute ledger drift: got ({}, {}), \
                         frozen ({computed}, {skipped})",
                        s.computed, s.skipped
                    ));
                }
            }
            if (issued, ok) != EXPECTED_SMOKE_SERVE {
                errors.push(format!(
                    "smoke serve totals (issued, ok) = ({issued}, {ok}) != \
                     frozen {EXPECTED_SMOKE_SERVE:?}"
                ));
            }
            if self.serve_end_cycles != EXPECTED_SMOKE_SERVE_END_CYCLES {
                errors.push(format!(
                    "smoke serve end_cycles {} != frozen {EXPECTED_SMOKE_SERVE_END_CYCLES}",
                    self.serve_end_cycles
                ));
            }
        }
        errors
    }
}

/// Runs the experiment three times — once pinned to a single rayon
/// worker, twice with the full pool — byte-compares the three JSON
/// documents, writes `BENCH_video.json`, and returns `(stdout summary,
/// gate violations)` under the harness's unified exit-code policy.
pub fn run_video(smoke: bool) -> (String, Vec<String>) {
    let serial = crate::on_one_worker(|| evaluate(smoke).map(|r| r.to_json()));
    let report = match evaluate(smoke) {
        Ok(r) => r,
        Err(e) => return (String::new(), vec![format!("video run failed: {e}")]),
    };
    let parallel = report.to_json();
    let third = evaluate(smoke).map(|r| r.to_json());

    let mut errors = report.gate_errors();
    match serial {
        Ok(s) if s != parallel => errors
            .push("BENCH_video.json differs between serial and parallel evaluation".to_string()),
        Err(e) => errors.push(format!("serial video run failed: {e}")),
        _ => {}
    }
    match third {
        Ok(t) if t != parallel => {
            errors.push("BENCH_video.json differs between two identical runs".to_string());
        }
        Err(e) => errors.push(format!("repeat video run failed: {e}")),
        _ => {}
    }
    let mut out = report.render();
    let path = "BENCH_video.json";
    match std::fs::write(path, &parallel) {
        Ok(()) => out += &format!("\nwrote {path}\n"),
        Err(e) => errors.push(format!("could not write {path}: {e}")),
    }
    (out, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_video_passes_its_frozen_gate() {
        let report = evaluate(true).unwrap();
        let errors = report.gate_errors();
        assert!(errors.is_empty(), "gate failed: {errors:?}");
        assert_eq!(report.scenes.len(), 4);
        assert_eq!(report.cameras.len(), SMOKE_CAMERAS);
    }

    #[test]
    fn smoke_json_is_byte_deterministic() {
        let a = evaluate(true).unwrap().to_json();
        let b = evaluate(true).unwrap().to_json();
        assert_eq!(a, b);
        for key in [
            "\"scenario\"",
            "\"scenes\"",
            "\"cycle_speedup\"",
            "\"energy_saved\"",
            "\"rows_streamed\"",
            "\"front_rejected\"",
            "\"stale_results\"",
            "\"bit_identical\"",
            "\"serve_cameras\"",
            "\"worker_count_invariant\"",
            "\"cameras\"",
            "\"latency_p99\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn panning_is_the_honest_no_benefit_case() {
        let report = evaluate(true).unwrap();
        let pan = report
            .scenes
            .iter()
            .find(|s| s.name == "panning")
            .expect("panning scene present");
        let stat = report
            .scenes
            .iter()
            .find(|s| s.name == "static")
            .expect("static scene present");
        // Panning recomputes (almost) everything; static skips almost
        // everything — the gap is the whole point of motion gating.
        assert!(stat.cycle_speedup() > pan.cycle_speedup());
        assert!(pan.computed > stat.computed);
    }
}
