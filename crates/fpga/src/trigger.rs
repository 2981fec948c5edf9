//! The trigger event builder (paper §2.4).
//!
//! "A three-stage hardware state machine allows the user to select up to
//! three trigger event combinations, all of which must occur within a
//! user-assigned time interval." The builder consumes the per-sample trigger
//! pulses of the detectors and emits a single *jam trigger* when the
//! configured combination completes. Two combination modes cover the
//! paper's experiments:
//!
//! * [`TriggerMode::Any`] — fire when any enabled source pulses (used for
//!   the WiFi experiments, and for the WiMAX fusion where cross-correlation
//!   OR energy-rise reaches 100 % frame detection);
//! * [`TriggerMode::Sequence`] — the three-stage FSM proper: the enabled
//!   sources must fire in order within the programmed window.

/// A detector output that can arm the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TriggerSource {
    /// Cross-correlation detection pulse.
    Xcorr,
    /// Energy-rise detection pulse.
    EnergyHigh,
    /// Energy-fall detection pulse.
    EnergyLow,
}

/// How enabled sources combine into a jam trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerMode {
    /// Fire on any pulse from the enabled set.
    Any(Vec<TriggerSource>),
    /// Fire when the listed sources (1..=3) pulse in order, all within
    /// `window` samples of the first.
    Sequence {
        /// Ordered stages of the state machine.
        stages: Vec<TriggerSource>,
        /// Completion deadline in samples, measured from the first stage.
        window: u64,
    },
}

/// Per-sample snapshot of detector pulses feeding the builder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pulses {
    /// Cross-correlator trigger pulse this sample.
    pub xcorr: bool,
    /// Energy-rise pulse this sample.
    pub energy_high: bool,
    /// Energy-fall pulse this sample.
    pub energy_low: bool,
}

impl Pulses {
    fn has(&self, src: TriggerSource) -> bool {
        match src {
            TriggerSource::Xcorr => self.xcorr,
            TriggerSource::EnergyHigh => self.energy_high,
            TriggerSource::EnergyLow => self.energy_low,
        }
    }
}

/// The trigger combination state machine.
#[derive(Clone, Debug)]
pub struct TriggerBuilder {
    mode: TriggerMode,
    /// Next sequence stage awaiting its pulse.
    stage: usize,
    /// Sample index when stage 0 fired (sequence mode).
    armed_at: Option<u64>,
    /// Samples processed.
    now: u64,
}

impl TriggerBuilder {
    /// Creates a builder in the given mode.
    ///
    /// # Panics
    /// Panics on an empty source list or a sequence longer than three stages
    /// (the hardware has three).
    pub fn new(mode: TriggerMode) -> Self {
        match &mode {
            TriggerMode::Any(srcs) => {
                assert!(!srcs.is_empty(), "at least one trigger source required");
            }
            TriggerMode::Sequence { stages, .. } => {
                assert!(
                    (1..=3).contains(&stages.len()),
                    "hardware supports 1..=3 sequence stages"
                );
            }
        }
        TriggerBuilder {
            mode,
            stage: 0,
            armed_at: None,
            now: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> &TriggerMode {
        &self.mode
    }

    /// Advances one sample; returns `true` when the jam trigger fires.
    pub fn push(&mut self, pulses: Pulses) -> bool {
        let now = self.now;
        self.now += 1;
        match &self.mode {
            TriggerMode::Any(srcs) => srcs.iter().any(|&s| pulses.has(s)),
            TriggerMode::Sequence { stages, window } => {
                // Window expiry aborts a partial sequence.
                if let Some(t0) = self.armed_at {
                    if now.saturating_sub(t0) > *window {
                        self.stage = 0;
                        self.armed_at = None;
                    }
                }
                if self.stage < stages.len() && pulses.has(stages[self.stage]) {
                    if self.stage == 0 {
                        self.armed_at = Some(now);
                    }
                    self.stage += 1;
                    if self.stage == stages.len() {
                        self.stage = 0;
                        self.armed_at = None;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Advances one sample with no pulses; equivalent to
    /// `push(Pulses::default())`, which never fires. A sequence whose
    /// window lapses meanwhile is discarded at the next [`push`] instead:
    /// expiry is monotone in time and the partial-sequence state is
    /// private, so no caller can tell the difference.
    ///
    /// [`push`]: TriggerBuilder::push
    #[inline]
    pub fn idle(&mut self) {
        self.now += 1;
    }

    /// Resets the state machine.
    pub fn reset(&mut self) {
        self.stage = 0;
        self.armed_at = None;
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_NONE: Pulses = Pulses {
        xcorr: false,
        energy_high: false,
        energy_low: false,
    };
    const P_X: Pulses = Pulses {
        xcorr: true,
        energy_high: false,
        energy_low: false,
    };
    const P_EH: Pulses = Pulses {
        xcorr: false,
        energy_high: true,
        energy_low: false,
    };
    const P_EL: Pulses = Pulses {
        xcorr: false,
        energy_high: false,
        energy_low: true,
    };

    #[test]
    fn any_mode_fires_on_either_source() {
        let mut tb = TriggerBuilder::new(TriggerMode::Any(vec![
            TriggerSource::Xcorr,
            TriggerSource::EnergyHigh,
        ]));
        assert!(!tb.push(P_NONE));
        assert!(tb.push(P_X));
        assert!(tb.push(P_EH));
        assert!(!tb.push(P_EL), "disabled source must not fire");
    }

    #[test]
    fn sequence_completes_in_order_within_window() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        assert!(!tb.push(P_EH)); // stage 1 armed
        for _ in 0..50 {
            assert!(!tb.push(P_NONE));
        }
        assert!(tb.push(P_X), "sequence complete");
    }

    #[test]
    fn sequence_out_of_order_does_not_fire() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        assert!(!tb.push(P_X)); // wrong first stage
        assert!(!tb.push(P_X));
        assert!(!tb.push(P_EH)); // arms stage 1
        assert!(tb.push(P_X));
    }

    #[test]
    fn sequence_window_expires() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 10,
        });
        assert!(!tb.push(P_EH));
        for _ in 0..11 {
            assert!(!tb.push(P_NONE));
        }
        assert!(
            !tb.push(P_X),
            "window expired; xcorr alone must not complete"
        );
        // Re-arm works after expiry.
        assert!(!tb.push(P_EH));
        assert!(tb.push(P_X));
    }

    #[test]
    fn three_stage_sequence() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![
                TriggerSource::EnergyHigh,
                TriggerSource::Xcorr,
                TriggerSource::EnergyLow,
            ],
            window: 1000,
        });
        assert!(!tb.push(P_EH));
        assert!(!tb.push(P_X));
        assert!(!tb.push(P_NONE));
        assert!(tb.push(P_EL));
        // Machine rearms cleanly.
        assert!(!tb.push(P_EL));
        assert!(!tb.push(P_EH));
        assert!(!tb.push(P_X));
        assert!(tb.push(P_EL));
    }

    #[test]
    fn simultaneous_pulses_advance_one_stage_per_sample() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        let both = Pulses {
            xcorr: true,
            energy_high: true,
            energy_low: false,
        };
        assert!(!tb.push(both), "one stage per clock, as in hardware");
        assert!(tb.push(both));
    }

    #[test]
    #[should_panic(expected = "1..=3")]
    fn rejects_four_stages() {
        let _ = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::Xcorr; 4],
            window: 10,
        });
    }

    #[test]
    fn idle_matches_push_without_pulses() {
        let mut rng = rjam_sdr::rng::Rng::seed_from(31);
        for window in [2, 6, 40] {
            let mode = TriggerMode::Sequence {
                stages: vec![
                    TriggerSource::Xcorr,
                    TriggerSource::EnergyLow,
                    TriggerSource::EnergyHigh,
                ],
                window,
            };
            let mut pushed = TriggerBuilder::new(mode.clone());
            let mut idled = TriggerBuilder::new(mode);
            let mut fired = 0;
            for _ in 0..20_000 {
                let p = match rng.below(12) {
                    0 => P_X,
                    1 => P_EL,
                    2 => P_EH,
                    _ => P_NONE,
                };
                let want = pushed.push(p);
                let got = if p == P_NONE {
                    idled.idle();
                    false
                } else {
                    idled.push(p)
                };
                assert_eq!(got, want, "window {window}");
                fired += usize::from(want);
            }
            assert!(fired > 0, "window {window} never completed a sequence");
        }
    }

    #[test]
    fn reset_clears_partial_sequence() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        tb.push(P_EH);
        tb.reset();
        assert!(!tb.push(P_X), "stage progress must be cleared");
    }
}
