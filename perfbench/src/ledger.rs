//! The traced run's stage ledger: busy time per layer, timed around the
//! calls the benchmark's own replica loops make into each crate, plus the
//! work counts the per-layer ratios need.
//!
//! Timers wrap whole calls (a 64 k-sample noise block, one frame's
//! modulation, one `process_block_into`), so the ~25 ns cost of
//! `Instant::now` stays far below the work it brackets.

use std::time::Instant;

/// A layer the ledger attributes time to, named `crate.part`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `rjam_phy80211::tx::modulate_frame` (with its random PSDU).
    PhyTx,
    /// `rjam_phy80216::DownlinkGenerator::{new, next_frame}`.
    WimaxGen,
    /// `rjam_sdr::resample::to_usrp_rate`.
    Resample,
    /// `rjam_sdr::resample::fractional_delay`.
    FracDelay,
    /// `rjam_sdr::power::{scale_to_power, mean_power}` and scaling.
    Scale,
    /// `rjam_channel::noise::NoiseSource::next_sample`, summed into the
    /// stream buffer.
    Noise,
    /// `rjam_channel::monitor::ScopeTrace` capture and markers.
    Scope,
    /// `rjam_core::ReactiveJammer::process_block_into`, `reset` and the
    /// event-log scan: the FPGA core model.
    Core,
    /// `rjam_mac::ScenarioRun::run`.
    Mac,
    /// `rjam_core::campaign::scenario_for`: spec to scenario.
    Spec,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 10] = [
    Layer::PhyTx,
    Layer::WimaxGen,
    Layer::Resample,
    Layer::FracDelay,
    Layer::Scale,
    Layer::Noise,
    Layer::Scope,
    Layer::Core,
    Layer::Mac,
    Layer::Spec,
];

/// Busy time and work counts from one traced unit, or summed over many.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    ns: [u64; LAYERS.len()],
    /// Samples pushed through the DSP core.
    pub core_samples: u64,
    /// Samples drawn from noise sources.
    pub noise_samples: u64,
    /// WiFi frames synthesised.
    pub frames: u64,
    /// WiFi frames detected.
    pub detected: u64,
    /// Correlator triggers counted.
    pub triggers: u64,
    /// Simulated MAC seconds.
    pub sim_s: f64,
    /// iperf datagrams sent.
    pub datagrams: u64,
    /// Jam bursts transmitted in the MAC simulation.
    pub jam_bursts: u64,
    /// Wall time of each unit, ns.
    pub unit_ns: Vec<u64>,
    /// Time spent building per-worker pools, ns.
    pub pool_ns: u64,
    /// `core.engine_busy_ns` registry delta.
    pub engine_busy_ns: u64,
    /// `core.engine_idle_ns` registry delta.
    pub engine_idle_ns: u64,
    /// `core.engine_merge_wait_ns` registry delta.
    pub engine_merge_ns: u64,
}

impl Ledger {
    /// Runs `f`, charging its wall time to `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        r
    }

    /// Busy seconds charged to `layer`.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 * 1e-9
    }

    /// Busy nanoseconds charged to any named layer.
    pub fn attributed_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: Ledger) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.core_samples += other.core_samples;
        self.noise_samples += other.noise_samples;
        self.frames += other.frames;
        self.detected += other.detected;
        self.triggers += other.triggers;
        self.sim_s += other.sim_s;
        self.datagrams += other.datagrams;
        self.jam_bursts += other.jam_bursts;
        self.unit_ns.extend(other.unit_ns);
        self.pool_ns += other.pool_ns;
        self.engine_busy_ns += other.engine_busy_ns;
        self.engine_idle_ns += other.engine_idle_ns;
        self.engine_merge_ns += other.engine_merge_ns;
    }
}

/// The engine's own busy/idle/merge-wait counters, read through the
/// `rjam_obs::registry` accessors around a traced campaign.
#[derive(Clone, Copy, Debug)]
pub struct EngineCounters {
    busy: u64,
    idle: u64,
    merge: u64,
}

impl EngineCounters {
    /// Current counter values.
    pub fn read() -> Self {
        use rjam_obs::registry::counter_value;
        EngineCounters {
            busy: counter_value("core.engine_busy_ns"),
            idle: counter_value("core.engine_idle_ns"),
            merge: counter_value("core.engine_merge_wait_ns"),
        }
    }

    /// Charges the counter growth since `self` to `ledger`.
    pub fn charge_since(self, ledger: &mut Ledger) {
        let now = EngineCounters::read();
        ledger.engine_busy_ns += now.busy - self.busy;
        ledger.engine_idle_ns += now.idle - self.idle;
        ledger.engine_merge_ns += now.merge - self.merge;
    }
}
