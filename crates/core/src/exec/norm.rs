//! Normalization-layer executors (§8.4, Figs. 15–16).
//!
//! LRN and LCN layers are decomposed into NFU primitives (element-wise
//! square, matrix addition, convolution-like weighted sums) plus ALU
//! operations (division, square root via the PLA), exactly mirroring the
//! golden reference's operation ordering so results stay bit-identical.
//!
//! [`run`] is the live executor (the reference). [`values`] is its
//! value-only twin for schedule replay: the same per-neuron arithmetic,
//! read straight from NBin with no control stream, fault filtering or
//! metering (the statistics arrive wholesale from the schedule).

use super::values::{LaneKernel, ValueKernel};
use super::window::blocks;
use super::Engine;
use crate::accel::RunError;
use crate::stats::LayerStats;
use core::mem;
use shidiannao_cnn::{Layer, LayerBody, LrnSpec};
use shidiannao_fixed::{Accum, Fx};
use shidiannao_tensor::FeatureMap;

// NBout staged-read tags for the fault filter: LCN stages μ and v through
// NBout and re-reads them in later sub-passes; each re-read pass is its
// own fault address space.
const STAGE_MU: u64 = 0;
const STAGE_V_SQUARE: u64 = 1;
const STAGE_V_DIVIDE: u64 = 2;

/// Dispatches a normalization layer.
pub(super) fn run(eng: &mut Engine<'_>, layer: &Layer) -> Result<(), RunError> {
    match layer.body() {
        LayerBody::Lrn(spec) => run_lrn(eng, layer, spec),
        LayerBody::Lcn { gauss, .. } => run_lcn(eng, layer, gauss),
        _ => unreachable!("norm executor fed a non-normalization layer"),
    }
}

/// LRN (formula (3), Fig. 15): per position, square-accumulate the
/// cross-map window in the PEs, apply the `k + α·s` scale in the NFU, and
/// divide in the ALU.
fn run_lrn(eng: &mut Engine<'_>, layer: &Layer, spec: &LrnSpec) -> Result<(), RunError> {
    let dims = layer.in_dims();
    let maps = layer.in_maps();
    let half = spec.window_maps / 2;
    let (k, alpha) = (spec.k_fx(), spec.alpha_fx());
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);

    for mi in 0..maps {
        let lo = mi.saturating_sub(half);
        let hi = (mi + half).min(maps - 1);
        for (origin, active) in blocks(dims, pe_dims) {
            let (aw, ah) = active;
            for py in 0..ah {
                for px in 0..aw {
                    eng.nfu.pe_mut(px, py).reset_accumulator(Fx::ZERO);
                }
            }
            // Square-accumulate pass: one tile read + one square MAC per
            // window map per cycle.
            for j in lo..=hi {
                let vals = eng.nb_tile(j, origin, active, (1, 1))?;
                for py in 0..ah {
                    for px in 0..aw {
                        let v = vals[py * aw + px];
                        eng.nfu.pe_mut(px, py).mac(v, v);
                        eng.stats.pe_muls += 1;
                        eng.stats.pe_adds += 1;
                    }
                }
                eng.tick(aw * ah);
            }
            // Scale-and-offset in the NFU (one cycle): denom = k + α·s.
            let mut denoms: Vec<Fx> = Vec::with_capacity(aw * ah);
            for py in 0..ah {
                for px in 0..aw {
                    denoms.push(k + alpha * eng.nfu.pe(px, py).accumulator());
                }
            }
            eng.stats.pe_muls += (aw * ah) as u64;
            eng.stats.pe_adds += (aw * ah) as u64;
            eng.tick(aw * ah);
            // Divide the layer's own neurons in the ALU and flush.
            let mut own = eng.nb_tile(mi, origin, active, (1, 1))?;
            let div_cycles = eng.alu.divide_elementwise(&mut own, &denoms, eng.stats);
            eng.tick_idle(div_cycles.max(1));
            eng.nbout.write_block(mi, origin, active, &own, eng.stats);
        }
    }
    Ok(())
}

/// LCN (formulae (4)–(6), Fig. 16): Gaussian subtractive pass, weighted
/// variance, ALU square root, mean, and divisive pass.
///
/// Intermediate maps (μ, v, δ) are staged through NBout like the paper's
/// decomposed sub-layers; their traffic is charged to NBout.
fn run_lcn(eng: &mut Engine<'_>, layer: &Layer, gauss: &FeatureMap<Fx>) -> Result<(), RunError> {
    let (w, h) = layer.in_dims();
    let maps = layer.in_maps();
    let win = gauss.width();
    let half = win / 2;
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);

    // Pass 1: μ = Σ_{j,p,q} ω(p,q) · I_j (clipped at edges), computed
    // blockwise with one gather + one MAC per (j, p, q) cycle.
    let mut mu = FeatureMap::filled(w, h, Fx::ZERO);
    for (origin, active) in blocks((w, h), pe_dims) {
        let (aw, ah) = active;
        for py in 0..ah {
            for px in 0..aw {
                eng.nfu.pe_mut(px, py).reset_accumulator(Fx::ZERO);
            }
        }
        for j in 0..maps {
            for q in 0..win {
                for p in 0..win {
                    let wgt = gauss[(p, q)];
                    let mut coords = Vec::new();
                    let mut lanes = Vec::new();
                    for py in 0..ah {
                        for px in 0..aw {
                            let (x, y) = (origin.0 + px, origin.1 + py);
                            let (xx, yy) = (x + p, y + q);
                            if xx < half || yy < half || xx - half >= w || yy - half >= h {
                                continue;
                            }
                            coords.push((xx - half, yy - half));
                            lanes.push((px, py));
                        }
                    }
                    let vals = eng.nb_gather(j, &coords)?;
                    for (&(px, py), v) in lanes.iter().zip(vals) {
                        eng.nfu.pe_mut(px, py).mac(wgt, v);
                        eng.stats.pe_muls += 1;
                        eng.stats.pe_adds += 1;
                    }
                    eng.tick(lanes.len());
                }
            }
        }
        for py in 0..ah {
            for px in 0..aw {
                mu[(origin.0 + px, origin.1 + py)] = eng.nfu.pe(px, py).accumulator();
            }
        }
        // Stage μ through NBout (decomposed sub-layer write).
        eng.stats.nbout.write((aw * ah * 2) as u64);
        eng.tick_idle(1);
    }

    // Pass 2: v_j = I_j − μ (matrix subtraction in the NFU).
    let mut v: Vec<FeatureMap<Fx>> = Vec::with_capacity(maps);
    for j in 0..maps {
        let mut vj = FeatureMap::filled(w, h, Fx::ZERO);
        for (origin, active) in blocks((w, h), pe_dims) {
            let (aw, ah) = active;
            let own = eng.nb_tile(j, origin, active, (1, 1))?;
            // μ arrives back from NBout (a staged re-read: fault-filtered
            // per word).
            eng.stats.nbout.read((aw * ah * 2) as u64);
            for py in 0..ah {
                for px in 0..aw {
                    let (x, y) = (origin.0 + px, origin.1 + py);
                    let m = eng.nbout_value(STAGE_MU, (x, y), mu[(x, y)])?;
                    vj[(x, y)] = own[py * aw + px] - m;
                }
            }
            eng.stats.pe_adds += (aw * ah) as u64;
            eng.tick(aw * ah);
            eng.stats.nbout.write((aw * ah * 2) as u64);
        }
        v.push(vj);
    }

    // Pass 3: δ = √(Σ ω v²), squares in the NFU, root in the ALU.
    let mut delta = FeatureMap::filled(w, h, Fx::ZERO);
    for (origin, active) in blocks((w, h), pe_dims) {
        let (aw, ah) = active;
        for py in 0..ah {
            for px in 0..aw {
                eng.nfu.pe_mut(px, py).reset_accumulator(Fx::ZERO);
            }
        }
        for vj in &v {
            for q in 0..win {
                for p in 0..win {
                    let wgt = gauss[(p, q)];
                    let mut busy = 0;
                    for py in 0..ah {
                        for px in 0..aw {
                            let (x, y) = (origin.0 + px, origin.1 + py);
                            let (xx, yy) = (x + p, y + q);
                            if xx < half || yy < half || xx - half >= w || yy - half >= h {
                                continue;
                            }
                            // v is staged in NBout; charge (and fault-
                            // filter) the re-read.
                            let c = (xx - half, yy - half);
                            let s = eng.nbout_value(STAGE_V_SQUARE, c, vj[c])?.squared();
                            eng.nfu.pe_mut(px, py).mac(wgt, s);
                            eng.stats.pe_muls += 2; // square + weight
                            eng.stats.pe_adds += 1;
                            busy += 1;
                        }
                    }
                    eng.stats.nbout.read((busy * 2) as u64);
                    eng.tick(busy);
                }
            }
        }
        let mut vals: Vec<Fx> = Vec::with_capacity(aw * ah);
        for py in 0..ah {
            for px in 0..aw {
                vals.push(eng.nfu.pe(px, py).accumulator());
            }
        }
        let cycles = eng.alu.sqrt(&mut vals, eng.stats);
        eng.tick_idle(cycles.max(1));
        for py in 0..ah {
            for px in 0..aw {
                delta[(origin.0 + px, origin.1 + py)] = vals[py * aw + px];
            }
        }
        eng.stats.nbout.write((aw * ah * 2) as u64);
    }

    // Mean of δ (running sum in the NFU, one ALU division).
    let mut sum = Accum::new();
    for d in delta.iter() {
        sum.add_fx(*d);
    }
    eng.stats.pe_adds += (w * h) as u64;
    eng.tick_idle(((w * h).div_ceil(eng.cfg.pe_count())) as u64);
    let mean_delta = sum.mean(w * h);
    eng.stats.alu_divs += 1;
    eng.tick_idle(1);

    // Pass 4: O = v / max(mean(δ), δ) in the ALU, flushed per block.
    for (j, vj) in v.iter().enumerate() {
        for (origin, active) in blocks((w, h), pe_dims) {
            let (aw, ah) = active;
            let mut vals = Vec::with_capacity(aw * ah);
            for py in 0..ah {
                for px in 0..aw {
                    let (x, y) = (origin.0 + px, origin.1 + py);
                    let d = mean_delta.max(delta[(x, y)]);
                    let vv = eng.nbout_value(STAGE_V_DIVIDE, (x, y), vj[(x, y)])?;
                    vals.push(if d == Fx::ZERO { vv } else { vv / d });
                }
            }
            eng.stats.nbout.read((aw * ah * 2) as u64);
            eng.stats.alu_divs += (aw * ah) as u64;
            eng.tick_idle(eng.alu.cycles_for(aw * ah).max(1));
            eng.nbout.write_block(j, origin, active, &vals, eng.stats);
        }
    }
    Ok(())
}

/// Value-only normalization for schedule replay: the arithmetic of
/// [`run`] without its control stream. Clean runs only — the live path's
/// staged NBout re-reads are fault-filtered, and no overlay prices them
/// ([`crate::schedule::ReplayScope::CleanRuns`]).
pub(super) fn values(eng: &mut Engine<'_>, layer: &Layer) {
    // Metering discard: the real counters arrive from the schedule.
    let mut meter = LayerStats::default();
    match layer.body() {
        LayerBody::Lrn(spec) => lrn_values(eng, layer, spec, &mut meter),
        LayerBody::Lcn { gauss, .. } => lcn_values(eng, layer, gauss, &mut meter),
        _ => unreachable!("norm executor fed a non-normalization layer"),
    }
}

/// The `[lo, hi)` window taps whose input coordinate `c + tap − half`
/// lies inside `0..len` — exactly the taps [`run_lcn`]'s edge clipping
/// keeps, in the same ascending order.
#[inline]
fn taps(c: usize, half: usize, len: usize, win: usize) -> (usize, usize) {
    (half.saturating_sub(c), win.min(len + half - c))
}

/// Value-only LRN: per neuron, the square-accumulate over the same
/// cross-map window in the same map order, the NFU scale-and-offset, and
/// the ALU divide of [`run_lrn`]; results write back per PE block so
/// NBout's write-group counters match the live path.
fn lrn_values(eng: &mut Engine<'_>, layer: &Layer, spec: &LrnSpec, meter: &mut LayerStats) {
    let dims = layer.in_dims();
    let maps = layer.in_maps();
    let half = spec.window_maps / 2;
    let (k, alpha) = (spec.k_fx(), spec.alpha_fx());
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);
    let stack = eng.nbin.contents().expect("session loaded the input");
    let mut own = mem::take(&mut eng.scratch.vals);
    let mut denoms = mem::take(&mut eng.scratch.aux);

    for mi in 0..maps {
        let lo = mi.saturating_sub(half);
        let hi = (mi + half).min(maps - 1);
        for (origin, active) in blocks(dims, pe_dims) {
            let (aw, ah) = active;
            own.clear();
            denoms.clear();
            for y in origin.1..origin.1 + ah {
                let xs = origin.0..origin.0 + aw;
                for x in xs.clone() {
                    let mut acc = Accum::new();
                    for j in lo..=hi {
                        let v = stack[j].row(y)[x];
                        acc.mac(v, v);
                    }
                    denoms.push(k + alpha * acc.to_fx());
                }
                own.extend_from_slice(&stack[mi].row(y)[xs]);
            }
            let _ = eng.alu.divide_elementwise(&mut own, &denoms, meter);
            eng.nbout.write_block(mi, origin, active, &own, meter);
        }
    }
    eng.scratch.vals = own;
    eng.scratch.aux = denoms;
}

/// Host-side staging for replayed LCN layers: the maps the live path
/// stages through NBout (μ, v, δ), plus v² so the weighted-variance pass
/// squares each difference once instead of once per window tap.
#[derive(Debug, Default)]
pub(crate) struct Stage {
    mu: Vec<Fx>,
    v: Vec<Fx>,
    sq: Vec<Fx>,
    delta: Vec<Fx>,
}

/// For every neuron of a `w × h` map in row-major order, reads out
/// `Σ_{j,q,p} ω(p,q) · m_j(x + p − half, y + q − half)` over the taps that
/// land inside the map (the live path's edge clipping) into `out`
/// (cleared first). Each `(j, q)` window row is one exact i64 dot product added to
/// the neuron's accumulator in the live `(j, q, p)` order — bit-identical
/// to the per-tap `mac` chain by the contract in `values.rs`.
fn gauss_sums<'m>(
    gauss: &FeatureMap<Fx>,
    (w, h): (usize, usize),
    maps: impl Iterator<Item = &'m [Fx]> + Clone,
    out: &mut Vec<Fx>,
) {
    let win = gauss.width();
    let half = win / 2;
    out.clear();
    for y in 0..h {
        let (q0, q1) = taps(y, half, h, win);
        for x in 0..w {
            let (p0, p1) = taps(x, half, w, win);
            let mut acc = Accum::new();
            for m in maps.clone() {
                for q in q0..q1 {
                    // Row-major index of the tap row's first kept input.
                    let start = (y + q - half) * w + x + p0 - half;
                    let dot = LaneKernel.dot_raw(&gauss.row(q)[p0..p1], &m[start..start + p1 - p0]);
                    acc.add_raw(dot);
                }
            }
            out.push(acc.to_fx());
        }
    }
}

/// Value-only LCN: the four passes of [`run_lcn`] with μ, v and δ staged
/// in host scratch instead of NBout. The μ and δ accumulations follow the
/// live order and clipping ([`gauss_sums`]), the root runs through the
/// ALU's PLA, and the divisive pass writes back per PE block so NBout's
/// write-group counters match the live path.
fn lcn_values(eng: &mut Engine<'_>, layer: &Layer, gauss: &FeatureMap<Fx>, meter: &mut LayerStats) {
    let (w, h) = layer.in_dims();
    let area = w * h;
    let pe_dims = (eng.cfg.pe_cols, eng.cfg.pe_rows);
    let stack = eng.nbin.contents().expect("session loaded the input");
    let mut st = mem::take(&mut eng.scratch.norm);
    let mut vals = mem::take(&mut eng.scratch.vals);

    // Pass 1: μ = Σ_{j,q,p} ω(p,q) · I_j.
    gauss_sums(
        gauss,
        (w, h),
        stack.iter().map(FeatureMap::as_slice),
        &mut st.mu,
    );
    // Pass 2: v_j = I_j − μ.
    st.v.clear();
    for fm in stack.iter() {
        st.v.extend(fm.as_slice().iter().zip(&st.mu).map(|(&i, &m)| i - m));
    }
    // Pass 3: δ = √(Σ_{j,q,p} ω(p,q) · v_j²), the root in the ALU.
    st.sq.clear();
    st.sq.extend(st.v.iter().map(|d| d.squared()));
    gauss_sums(gauss, (w, h), st.sq.chunks_exact(area), &mut st.delta);
    let _ = eng.alu.sqrt(&mut st.delta, meter);

    // Mean of δ, then pass 4: O = v / max(mean(δ), δ), per PE block.
    let mut sum = Accum::new();
    for &d in &st.delta {
        sum.add_fx(d);
    }
    let mean_delta = sum.mean(area);
    for (j, vj) in st.v.chunks_exact(area).enumerate() {
        for (origin, active) in blocks((w, h), pe_dims) {
            let (aw, ah) = active;
            vals.clear();
            for y in origin.1..origin.1 + ah {
                for x in origin.0..origin.0 + aw {
                    let d = mean_delta.max(st.delta[y * w + x]);
                    let vv = vj[y * w + x];
                    vals.push(if d == Fx::ZERO { vv } else { vv / d });
                }
            }
            eng.nbout.write_block(j, origin, active, &vals, meter);
        }
    }
    eng.scratch.norm = st;
    eng.scratch.vals = vals;
}
