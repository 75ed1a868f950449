//! Property-based equivalence of the batched execution path:
//! `Session::infer_batch` must be bit-identical — per-lane outputs,
//! statistics (including every `LayerStats` slot), energy, and fault
//! counters — to running the same inputs through N sequential
//! `Session::infer` calls, across random topologies, batch sizes 1–8,
//! fault plans, and replay on/off. Plus the allocation contract: a
//! steady-state `infer_batch_into` performs zero heap allocations.

use proptest::prelude::*;
use shidiannao_cnn::{
    zoo, Activation, ConvSpec, FcSpec, LcnSpec, LrnSpec, Network, NetworkBuilder, PoolSpec,
};
use shidiannao_core::alloc_count::{count_allocations, CountingAlloc};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, RunError, SramProtection,
};

/// The zero-allocation gate counts per thread, so tests running beside
/// it cannot leak allocations into its count.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `inputs` through one `infer_batch` and through N sequential
/// `infer` calls on a second session under the same plan, and asserts
/// every per-lane observable is bit-identical. The sequential session
/// live-decodes every layer, so replayed value lanes are checked against
/// the reference executor, not against replay itself.
fn check_batch_matches_sequential(
    net: &Network,
    cfg: AcceleratorConfig,
    plan: FaultPlan,
    replay: bool,
    batch_n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let inputs: Vec<_> = (0..batch_n)
        .map(|i| net.random_input(seed ^ i as u64))
        .collect();
    let accel = Accelerator::new(cfg);
    let prepared = accel.prepare(net).expect("network fits");
    let mut batch = prepared.session_with_faults(plan);
    let mut seq = prepared.session_with_faults(plan);
    batch.set_schedule_replay(replay);
    seq.set_schedule_replay(false);

    match batch.infer_batch(&inputs) {
        Ok(results) => {
            prop_assert_eq!(results.len(), inputs.len());
            for (lane, (input, r)) in inputs.iter().zip(&results).enumerate() {
                let s = seq.infer(input).map_err(|e| {
                    TestCaseError::fail(format!("lane {lane}: sequential path errored: {e}"))
                })?;
                prop_assert_eq!(r.output(), s.output(), "lane {} output", lane);
                prop_assert_eq!(r.stats(), s.stats(), "lane {} stats", lane);
                prop_assert_eq!(r.energy(), s.energy(), "lane {} energy", lane);
                prop_assert_eq!(r.fault_stats(), s.fault_stats(), "lane {} faults", lane);
            }
        }
        Err(RunError::FaultDetected(_)) => {
            // Detected faults are input-independent, so the sequential
            // path aborts identically on its first lane, with the same
            // wasted-attempt cycles and counters.
            let first = seq.infer(&inputs[0]);
            prop_assert!(
                matches!(first, Err(RunError::FaultDetected(_))),
                "batch aborted but sequential lane 0 did not"
            );
            prop_assert_eq!(batch.last_cycles(), seq.last_cycles());
            prop_assert_eq!(batch.fault_stats(), seq.fault_stats());
        }
        Err(e) => return Err(TestCaseError::fail(format!("unexpected batch error: {e}"))),
    }
    Ok(())
}

fn plan(seed: u64, rate: f64, protection: SramProtection, stuck_rate: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        seed,
        nb_flip_rate: rate,
        sb_flip_rate: rate,
        ib_flip_rate: rate,
        pe_stuck_rate: stuck_rate,
        scanline_rate: 0.0,
        double_flip_share: 0.2,
        protection,
    })
}

fn protections() -> impl Strategy<Value = SramProtection> {
    prop_oneof![
        Just(SramProtection::None),
        Just(SramProtection::Parity),
        Just(SramProtection::Secded),
    ]
}

fn rates() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-4), Just(1e-3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_stacks_batch_bit_identical(
        w in 10usize..20,
        c1_maps in 2usize..5,
        k in 2usize..5,
        avg in any::<bool>(),
        out in 1usize..16,
        batch_n in 1usize..=8,
        replay in any::<bool>(),
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        let pool = if avg { PoolSpec::avg((2, 2)) } else { PoolSpec::max((2, 2)) };
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(c1_maps, (k, k)).with_activation(Activation::Tanh))
            .pool(pool)
            .fc(FcSpec::new(out))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0xBA7C, rate, protection, 0.0),
            replay,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn lrn_layers_batch_bit_identical(
        maps in 1usize..4,
        window in 1usize..5,
        w in 5usize..9,
        batch_n in 2usize..=6,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // Batch value lanes replay LRN layers on clean runs and
        // live-decode them mid-run under a fault plan, while replaying
        // their neighbours either way.
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(maps, (2, 2)))
            .lrn(LrnSpec { window_maps: window, k: 1.0, alpha: 0.5 })
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x10A7, rate, protection, 0.0),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn random_lcn_layers_batch_bit_identical(
        maps in 1usize..=4,
        window in prop_oneof![Just(3usize), Just(5usize)],
        w in 6usize..11,
        h in 6usize..11,
        batch_n in 2usize..=5,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // LCN layers through the value-only kernels on every lane of a
        // clean batch, and through live decode under a fault plan.
        let net = NetworkBuilder::new("p", maps, (w, h))
            .conv(ConvSpec::new(maps, (2, 2)))
            .lcn(LcnSpec::new(window))
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x1C4B, rate, protection, 0.0),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn packed_conv_layers_batch_bit_identical(
        maps in 2usize..5,
        w in 4usize..=5,
        batch_n in 2usize..=5,
        rate in rates(),
        protection in protections(),
        seed in 0u64..1000,
    ) {
        // Multi-map-packed convolutions are not modeled by the schedule:
        // value lanes live-decode them on every run, between a
        // normalization layer and a classifier that replay.
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(maps, (2, 2)))
            .lcn(LcnSpec::new(3))
            .fc(FcSpec::new(4))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper().with_multi_map_packing(),
            plan(seed ^ 0x9AC4, rate, protection, 0.0),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn stuck_pe_sessions_batch_bit_identical(
        w in 10usize..16,
        k in 2usize..4,
        stuck_rate in prop_oneof![Just(0.0), Just(0.05), Just(0.5)],
        batch_n in 2usize..=5,
        seed in 0u64..1000,
    ) {
        // Stuck-PE meshes make replay decline the whole run; batch value
        // lanes must fall back to full live decode and still match.
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(3, (k, k)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(6))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::paper(),
            plan(seed ^ 0x57CC, 0.0, SramProtection::None, stuck_rate),
            true,
            batch_n,
            seed,
        )?;
    }

    #[test]
    fn small_pe_grids_batch_bit_identical(
        px in 2usize..8,
        py in 2usize..8,
        w in 8usize..14,
        batch_n in 1usize..=8,
        replay in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let net = NetworkBuilder::new("p", 2, (w, w))
            .conv(ConvSpec::new(3, (3, 3)).with_activation(Activation::Sigmoid))
            .fc(FcSpec::new(9))
            .build(seed)
            .unwrap();
        check_batch_matches_sequential(
            &net,
            AcceleratorConfig::with_pe_grid(px, py),
            FaultPlan::none(),
            replay,
            batch_n,
            seed,
        )?;
    }
}

fn lenet_like() -> Network {
    NetworkBuilder::new("batch-steady", 1, (24, 24))
        .conv(ConvSpec::new(4, (5, 5)).with_activation(Activation::Tanh))
        .pool(PoolSpec::max((2, 2)))
        .conv(ConvSpec::new(6, (3, 3)).with_activation(Activation::Tanh))
        .pool(PoolSpec::avg((2, 2)))
        .fc(FcSpec::new(10))
        .build(7)
        .expect("builds")
}

#[test]
fn steady_state_batched_inference_allocates_nothing() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let inputs: Vec<_> = (0..8).map(|i| net.random_input(i)).collect();
    let mut outputs = Vec::new();

    // Warm-up: grow every buffer, scratch arena, and recycled output
    // stack to the network's high-water mark.
    for _ in 0..3 {
        session
            .infer_batch_into(&inputs, &mut outputs)
            .expect("batch runs");
    }

    let (allocs, ()) = count_allocations(|| {
        for _ in 0..5 {
            let batch = session
                .infer_batch_into(&inputs, &mut outputs)
                .expect("batch runs");
            assert!(batch.stats().cycles() > 0);
            assert_eq!(batch.len(), inputs.len());
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state infer_batch_into must not touch the heap"
    );
}

#[test]
fn every_zoo_network_infers_without_allocating() {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    for builder in zoo::all().into_iter().chain(zoo::extended::all()) {
        let net = builder.build(11).expect("builds");
        let prepared = accel.prepare(&net).expect("fits");
        let mut session = prepared.session();
        let inputs: Vec<_> = (0..4).map(|i| net.random_input(i)).collect();
        let mut outputs = Vec::new();
        for _ in 0..3 {
            for input in &inputs {
                session.infer_ref(input).expect("runs");
            }
            session
                .infer_batch_into(&inputs, &mut outputs)
                .expect("batch runs");
        }
        let (single, ()) = count_allocations(|| {
            for input in &inputs {
                assert!(session.infer_ref(input).expect("runs").stats().cycles() > 0);
            }
        });
        let (batched, ()) = count_allocations(|| {
            let batch = session
                .infer_batch_into(&inputs, &mut outputs)
                .expect("batch runs");
            assert_eq!(batch.len(), inputs.len());
        });
        assert_eq!(
            single,
            0,
            "{}: steady-state infer_ref allocated",
            net.name()
        );
        assert_eq!(
            batched,
            0,
            "{}: steady-state infer_batch_into allocated",
            net.name()
        );
    }
}

#[test]
fn batch_output_recycling_survives_batch_size_changes() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let mut check = prepared.session();
    let mut outputs = Vec::new();

    // Shrinks and regrowths of the output vector must keep every lane
    // bit-identical to a sequential inference of the same input.
    for &n in &[5usize, 2, 8, 1, 4] {
        let inputs: Vec<_> = (0..n)
            .map(|i| net.random_input(0x5EED ^ i as u64))
            .collect();
        session
            .infer_batch_into(&inputs, &mut outputs)
            .expect("batch runs");
        assert_eq!(outputs.len(), n);
        for (input, out) in inputs.iter().zip(&outputs) {
            let expect = check.infer(input).expect("sequential runs");
            assert_eq!(out, expect.output());
        }
    }
}

#[test]
fn empty_batches_are_rejected() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    assert!(matches!(
        session.infer_batch(&[]),
        Err(RunError::EmptyBuffer(_))
    ));
}

#[test]
fn mismatched_lane_shapes_are_rejected() {
    let net = lenet_like();
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let prepared = accel.prepare(&net).expect("fits");
    let mut session = prepared.session();
    let good = net.random_input(1);
    let bad = shidiannao_tensor::MapStack::filled(3, 3, 1, shidiannao_fixed::Fx::ZERO);
    assert!(matches!(
        session.infer_batch(&[good.clone(), bad]),
        Err(RunError::InputShape { .. })
    ));
    // The session recovers: the next batch runs normally.
    let results = session.infer_batch(&[good]).expect("session recovered");
    assert_eq!(results.len(), 1);
}
