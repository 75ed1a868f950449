//! Experiment runners regenerating every table and figure of the
//! ShiDianNao evaluation (§10).
//!
//! Each function produces the structured rows of one paper artifact; the
//! `harness` binary prints them, the Criterion benches time them, and the
//! repository-level integration tests assert the paper's qualitative
//! claims against them. The experiment-to-module index lives in DESIGN.md;
//! measured-vs-paper numbers are recorded in EXPERIMENTS.md.

pub mod alloc;
pub mod cascade;
pub mod cluster;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod perf;
pub mod report;
pub mod serve;
pub mod tune;
pub mod video;

/// Every binary, bench, and test linking this crate counts heap
/// allocations, so `harness bench` can certify the zero-allocation
/// steady-state datapath (see [`alloc`]).
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Runs `f` with the rayon pool pinned to one worker on the calling
/// thread — the serial pass of the harnesses' serial-vs-parallel
/// byte-identity gates. The pin is scoped to `f` and this thread; the
/// process environment is never touched.
pub(crate) fn on_one_worker<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool builds infallibly")
        .install(f)
}

pub use cascade::{run_cascade, CascadeBenchReport};
pub use experiments::{
    compute_paper_runs, design_space_sweep, fig18_speedups, fig19_energy, fig7_bandwidth,
    framerate_report, paper_runs, reuse_report, table1_storage, table4_characteristics,
    DesignPoint, Fig18Row, Fig19Row, Fig7Row, FramerateReport, PaperRun, ReuseReport, Table1Row,
    Table4Report,
};
pub use faults::{DegradationRow, FaultCell, FaultReport, ProtectionOverhead};
pub use perf::{ExperimentTiming, PerfReport, ThroughputRow};
pub use serve::{serve_report, ServeBenchReport};
pub use tune::{
    run_tune, tuned_shard_specs, tuned_shard_specs_for, TenantPick, TunePoint, TuneReport,
};
pub use video::{run_video, VideoBenchReport};

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
