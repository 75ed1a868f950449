//! Execution statistics: cycles, buffer traffic, PE activity.
//!
//! Every event the energy model charges for is counted here, and the
//! bandwidth numbers of Fig. 7 are derived from the byte counters.

use core::fmt;
use core::ops::AddAssign;

/// The NB controller's read modes (Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadMode {
    /// (a) Read bank group 0 (banks `0 .. Py−1`), a full `Px × Py` tile.
    A,
    /// (b) Read bank group 1 (banks `Py .. 2Py−1`), a full tile.
    B,
    /// (c) Read one bank: up to `Px` neurons of one row.
    C,
    /// (d) Read a single neuron (classifier broadcast).
    D,
    /// (e) Read neurons with a step size (strided windows).
    E,
    /// (f) Read a single neuron per bank: a column of up to `Py` neurons.
    F,
}

impl ReadMode {
    /// All six modes, in paper order.
    pub const ALL: [ReadMode; 6] = [
        ReadMode::A,
        ReadMode::B,
        ReadMode::C,
        ReadMode::D,
        ReadMode::E,
        ReadMode::F,
    ];
}

impl fmt::Display for ReadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            ReadMode::A => 'a',
            ReadMode::B => 'b',
            ReadMode::C => 'c',
            ReadMode::D => 'd',
            ReadMode::E => 'e',
            ReadMode::F => 'f',
        };
        write!(f, "({c})")
    }
}

/// Traffic counters for one buffer role.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferTraffic {
    /// Number of read requests.
    pub read_accesses: u64,
    /// Bytes delivered by reads.
    pub read_bytes: u64,
    /// Number of write requests.
    pub write_accesses: u64,
    /// Bytes absorbed by writes.
    pub write_bytes: u64,
}

impl BufferTraffic {
    /// Records a read of `bytes` bytes.
    #[inline]
    pub fn read(&mut self, bytes: u64) {
        self.read_accesses += 1;
        self.read_bytes += bytes;
    }

    /// Records a write of `bytes` bytes.
    #[inline]
    pub fn write(&mut self, bytes: u64) {
        self.write_accesses += 1;
        self.write_bytes += bytes;
    }

    /// Total bytes moved.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

impl AddAssign for BufferTraffic {
    fn add_assign(&mut self, rhs: BufferTraffic) {
        self.read_accesses += rhs.read_accesses;
        self.read_bytes += rhs.read_bytes;
        self.write_accesses += rhs.write_accesses;
        self.write_bytes += rhs.write_bytes;
    }
}

/// All counters for one executed layer (or a whole run, when aggregated).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// Table 2 style label of the layer (empty for aggregates).
    pub label: String,
    /// Cycles spent.
    pub cycles: u64,
    /// Input-neuron buffer traffic (the NB currently serving reads).
    pub nbin: BufferTraffic,
    /// Output-neuron buffer traffic (the NB collecting results).
    pub nbout: BufferTraffic,
    /// Synapse buffer traffic.
    pub sb: BufferTraffic,
    /// Instruction buffer traffic.
    pub ib: BufferTraffic,
    /// NBin read requests per mode `(a)…(f)`, paper order.
    pub reads_by_mode: [u64; 6],
    /// PE multiplications.
    pub pe_muls: u64,
    /// PE additions (accumulates, matrix adds, pooling sums).
    pub pe_adds: u64,
    /// PE comparisons (max pooling).
    pub pe_cmps: u64,
    /// ALU activation evaluations.
    pub alu_acts: u64,
    /// ALU divisions.
    pub alu_divs: u64,
    /// PE-cycle slots where a PE did useful work.
    pub pe_busy_slots: u64,
    /// PE-cycle slots available (`cycles × Px × Py`, accumulated per
    /// compute cycle).
    pub pe_total_slots: u64,
    /// Values moved through inter-PE FIFO pops (the reads *avoided* at
    /// NBin).
    pub fifo_pops: u64,
    /// Values pushed into PE FIFOs.
    pub fifo_pushes: u64,
    /// Deepest FIFO-H occupancy observed.
    pub fifo_h_peak: usize,
    /// Deepest FIFO-V occupancy observed.
    pub fifo_v_peak: usize,
    /// Extra cycles a banked SRAM would need to serialise conflicting
    /// requests (always measured; added to `cycles` only when
    /// `AcceleratorConfig::model_bank_conflicts` is set).
    pub bank_conflict_cycles: u64,
}

impl LayerStats {
    /// Creates empty counters labelled for a layer.
    pub fn new(label: impl Into<String>) -> LayerStats {
        LayerStats {
            label: label.into(),
            ..LayerStats::default()
        }
    }

    /// Zeroes every counter and relabels in place, reusing the label
    /// `String`'s capacity — how [`RunStats::begin_layer`] recycles slots
    /// without allocating.
    pub fn reset_with_label(&mut self, label: &str) {
        let mut s = core::mem::take(&mut self.label);
        s.clear();
        s.push_str(label);
        *self = LayerStats {
            label: s,
            ..LayerStats::default()
        };
    }

    /// Records an NBin read in a given mode.
    #[inline]
    pub fn nbin_read(&mut self, mode: ReadMode, bytes: u64) {
        self.nbin.read(bytes);
        self.reads_by_mode[mode as usize] += 1;
    }

    /// Fraction of PE slots that did useful work, in `[0, 1]`.
    pub fn pe_utilization(&self) -> f64 {
        if self.pe_total_slots == 0 {
            0.0
        } else {
            self.pe_busy_slots as f64 / self.pe_total_slots as f64
        }
    }

    /// Bytes read from NBin and SB per cycle — the internal bandwidth
    /// requirement of Fig. 7 (multiply by the clock in GHz for GB/s).
    pub fn internal_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.nbin.read_bytes + self.sb.read_bytes) as f64 / self.cycles as f64
        }
    }

    /// Merges another layer's counters into this aggregate.
    pub fn absorb(&mut self, other: &LayerStats) {
        self.cycles += other.cycles;
        self.nbin += other.nbin;
        self.nbout += other.nbout;
        self.sb += other.sb;
        self.ib += other.ib;
        for (a, b) in self.reads_by_mode.iter_mut().zip(other.reads_by_mode) {
            *a += b;
        }
        self.pe_muls += other.pe_muls;
        self.pe_adds += other.pe_adds;
        self.pe_cmps += other.pe_cmps;
        self.alu_acts += other.alu_acts;
        self.alu_divs += other.alu_divs;
        self.pe_busy_slots += other.pe_busy_slots;
        self.pe_total_slots += other.pe_total_slots;
        self.fifo_pops += other.fifo_pops;
        self.fifo_pushes += other.fifo_pushes;
        self.fifo_h_peak = self.fifo_h_peak.max(other.fifo_h_peak);
        self.fifo_v_peak = self.fifo_v_peak.max(other.fifo_v_peak);
        self.bank_conflict_cycles += other.bank_conflict_cycles;
    }
}

/// Statistics of a complete network execution.
///
/// Layer slots are recycled across runs: [`RunStats::restart`] rewinds
/// the live count to zero without dropping the `Vec` (or any slot's label
/// `String`), and [`RunStats::begin_layer`] reuses a retired slot when one
/// exists — so a steady-state [`crate::Session`] run records its
/// statistics without a single allocation. Only the live slots
/// participate in `Clone`, `PartialEq`, and `Debug`.
#[derive(Default)]
pub struct RunStats {
    layers: Vec<LayerStats>,
    live: usize,
}

impl Clone for RunStats {
    fn clone(&self) -> RunStats {
        RunStats {
            layers: self.layers().to_vec(),
            live: self.live,
        }
    }

    fn clone_from(&mut self, source: &RunStats) {
        self.layers.truncate(source.live);
        for (dst, src) in self.layers.iter_mut().zip(source.layers()) {
            dst.clone_from(src);
        }
        while self.layers.len() < source.live {
            self.layers.push(source.layers[self.layers.len()].clone());
        }
        self.live = source.live;
    }
}

impl PartialEq for RunStats {
    fn eq(&self, other: &RunStats) -> bool {
        self.layers() == other.layers()
    }
}

impl fmt::Debug for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStats")
            .field("layers", &self.layers())
            .finish()
    }
}

impl RunStats {
    /// Creates an empty record.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Appends one layer's counters.
    pub fn push_layer(&mut self, stats: LayerStats) {
        self.layers.truncate(self.live);
        self.layers.push(stats);
        self.live += 1;
    }

    /// Rewinds to zero live layers for a fresh run, keeping every retired
    /// slot's storage for [`RunStats::begin_layer`] to reuse.
    pub fn restart(&mut self) {
        self.live = 0;
    }

    /// Starts recording a new layer, reusing a retired slot (and its label
    /// capacity) when available; returns the slot to count into.
    pub fn begin_layer(&mut self, label: &str) -> &mut LayerStats {
        if self.live < self.layers.len() {
            self.layers[self.live].reset_with_label(label);
        } else {
            self.layers.push(LayerStats::new(label));
        }
        self.live += 1;
        &mut self.layers[self.live - 1]
    }

    /// The slot the most recent [`RunStats::begin_layer`] handed out.
    ///
    /// # Panics
    ///
    /// Panics if no layer has begun since the last restart.
    pub(crate) fn current_layer_mut(&mut self) -> &mut LayerStats {
        self.layers[..self.live]
            .last_mut()
            .expect("a layer has begun")
    }

    /// Per-layer counters, in execution order.
    pub fn layers(&self) -> &[LayerStats] {
        &self.layers[..self.live]
    }

    /// Aggregated counters across all layers.
    pub fn total(&self) -> LayerStats {
        let mut t = LayerStats::new("");
        for l in self.layers() {
            t.absorb(l);
        }
        t
    }

    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.layers().iter().map(|l| l.cycles).sum()
    }

    /// Wall-clock seconds at the given frequency.
    pub fn seconds_at(&self, frequency_ghz: f64) -> f64 {
        self.cycles() as f64 / (frequency_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accumulates() {
        let mut t = BufferTraffic::default();
        t.read(16);
        t.read(2);
        t.write(128);
        assert_eq!(t.read_accesses, 2);
        assert_eq!(t.read_bytes, 18);
        assert_eq!(t.write_bytes, 128);
        assert_eq!(t.total_bytes(), 146);
    }

    #[test]
    fn read_modes_tallied_separately() {
        let mut s = LayerStats::new("C1");
        s.nbin_read(ReadMode::A, 128);
        s.nbin_read(ReadMode::F, 16);
        s.nbin_read(ReadMode::F, 16);
        assert_eq!(s.reads_by_mode[ReadMode::A as usize], 1);
        assert_eq!(s.reads_by_mode[ReadMode::F as usize], 2);
        assert_eq!(s.nbin.read_bytes, 160);
    }

    #[test]
    fn utilization_and_bandwidth() {
        let mut s = LayerStats::new("C1");
        s.cycles = 10;
        s.pe_busy_slots = 320;
        s.pe_total_slots = 640;
        s.nbin.read_bytes = 500;
        s.sb.read_bytes = 20;
        assert_eq!(s.pe_utilization(), 0.5);
        assert_eq!(s.internal_bytes_per_cycle(), 52.0);
    }

    #[test]
    fn zero_cycles_is_not_a_division_by_zero() {
        let s = LayerStats::new("x");
        assert_eq!(s.pe_utilization(), 0.0);
        assert_eq!(s.internal_bytes_per_cycle(), 0.0);
    }

    #[test]
    fn run_totals_absorb_layers() {
        let mut run = RunStats::new();
        let mut a = LayerStats::new("C1");
        a.cycles = 100;
        a.fifo_h_peak = 3;
        let mut b = LayerStats::new("S2");
        b.cycles = 50;
        b.fifo_h_peak = 1;
        run.push_layer(a);
        run.push_layer(b);
        assert_eq!(run.cycles(), 150);
        assert_eq!(run.total().fifo_h_peak, 3);
        assert_eq!(run.layers().len(), 2);
        assert_eq!(run.seconds_at(1.0), 150e-9);
    }

    #[test]
    fn restart_recycles_layer_slots() {
        let mut run = RunStats::new();
        let mut a = LayerStats::new("C1");
        a.cycles = 100;
        run.push_layer(a);
        run.restart();
        assert_eq!(run.layers().len(), 0);
        assert_eq!(run.cycles(), 0);
        let slot = run.begin_layer("S2");
        assert_eq!(slot.label, "S2");
        assert_eq!(slot.cycles, 0);
        slot.cycles = 7;
        assert_eq!(run.layers().len(), 1);
        assert_eq!(run.cycles(), 7);
        // Equality and clones see only the live slice.
        let clone = run.clone();
        assert_eq!(clone, run);
        let mut other = RunStats::new();
        other.begin_layer("S2").cycles = 7;
        assert_eq!(other, run);
    }

    #[test]
    fn clone_from_sees_live_slice_only() {
        let mut src = RunStats::new();
        src.begin_layer("C1").cycles = 3;
        src.begin_layer("S2").cycles = 4;
        src.restart();
        src.begin_layer("F1").cycles = 9;
        let mut dst = RunStats::new();
        dst.begin_layer("X").cycles = 1;
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.layers().len(), 1);
        assert_eq!(dst.layers()[0].label, "F1");
    }

    #[test]
    fn mode_display() {
        assert_eq!(ReadMode::A.to_string(), "(a)");
        assert_eq!(ReadMode::F.to_string(), "(f)");
        assert_eq!(ReadMode::ALL.len(), 6);
    }
}
