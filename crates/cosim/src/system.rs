//! The lockstep co-simulation loop.
//!
//! One iteration = one hardware clock cycle: the bridge delivers due
//! messages, the hardware model runs its cycle, the software model runs
//! with the CPU budget earned at the configured clock ratio. The loop ends
//! at joint quiescence (both models idle, bridge empty) or a cycle cap.

use crate::bridge::Bridge;
use crate::clock::CoClock;
use std::fmt;

/// Co-simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimError {
    /// Human-readable description.
    pub msg: String,
}

impl CosimError {
    /// Creates an error.
    pub fn new(msg: impl Into<String>) -> CosimError {
        CosimError { msg: msg.into() }
    }
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cosim error: {}", self.msg)
    }
}

impl std::error::Error for CosimError {}

/// The hardware partition as seen by the co-simulation loop.
pub trait HwModel {
    /// Runs one hardware clock cycle at time `now`.
    ///
    /// # Errors
    ///
    /// Implementation-defined (action failures, RTL oscillation, ...).
    fn cycle(&mut self, bridge: &mut Bridge, now: u64) -> Result<(), CosimError>;
    /// True when no internal work is pending.
    fn idle(&self) -> bool;
}

/// The software partition as seen by the co-simulation loop.
pub trait SwModel {
    /// Runs for at most `budget` CPU cycles at hardware time `now`;
    /// returns the CPU cycles actually consumed.
    ///
    /// # Errors
    ///
    /// Implementation-defined.
    fn run_slice(&mut self, bridge: &mut Bridge, now: u64, budget: u64) -> Result<u64, CosimError>;
    /// True when no internal work is pending.
    fn idle(&self) -> bool;
}

/// Aggregate statistics of a co-simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CosimStats {
    /// Hardware cycles simulated.
    pub hw_cycles: u64,
    /// CPU cycles consumed by the software partition.
    pub cpu_cycles: u64,
    /// Messages delivered sw→hw.
    pub msgs_sw_to_hw: u64,
    /// Messages delivered hw→sw.
    pub msgs_hw_to_sw: u64,
    /// Total bus beats moved.
    pub bus_beats: u64,
}

/// The co-simulation executive.
pub struct CoSystem<H, S> {
    hw: H,
    sw: S,
    bridge: Bridge,
    clock: CoClock,
    cpu_cycles: u64,
    max_cycles: u64,
}

impl<H: HwModel, S: SwModel> CoSystem<H, S> {
    /// Assembles a co-simulation from the two partition models, the
    /// generated bridge and the clock ratio.
    pub fn new(hw: H, sw: S, bridge: Bridge, clock: CoClock) -> CoSystem<H, S> {
        CoSystem {
            hw,
            sw,
            bridge,
            clock,
            cpu_cycles: 0,
            max_cycles: 50_000_000,
        }
    }

    /// Caps the number of hardware cycles per run.
    pub fn set_max_cycles(&mut self, max: u64) {
        self.max_cycles = max;
    }

    /// The hardware partition model.
    pub fn hw(&self) -> &H {
        &self.hw
    }

    /// The software partition model.
    pub fn sw(&self) -> &S {
        &self.sw
    }

    /// Mutable access to the software partition (stimulus injection).
    pub fn sw_mut(&mut self) -> &mut S {
        &mut self.sw
    }

    /// Mutable access to the hardware partition (stimulus injection).
    pub fn hw_mut(&mut self) -> &mut H {
        &mut self.hw
    }

    /// Elapsed hardware cycles.
    pub fn now(&self) -> u64 {
        self.clock.hw_cycles()
    }

    /// Runs one hardware cycle.
    ///
    /// # Errors
    ///
    /// Propagates partition errors.
    pub fn cycle(&mut self) -> Result<(), CosimError> {
        let now = self.clock.hw_cycles();
        self.bridge.advance(now);
        self.hw.cycle(&mut self.bridge, now)?;
        let budget = self.clock.advance_hw_cycle();
        let used = self.sw.run_slice(&mut self.bridge, now, budget)?;
        self.cpu_cycles += used;
        Ok(())
    }

    /// Runs until joint quiescence; returns the statistics.
    ///
    /// # Errors
    ///
    /// Propagates partition errors; errors out at the cycle cap
    /// (livelock guard).
    pub fn run_to_quiescence(&mut self) -> Result<CosimStats, CosimError> {
        let mut idle_streak = 0u32;
        while idle_streak < 4 {
            if self.clock.hw_cycles() > self.max_cycles {
                return Err(CosimError::new(format!(
                    "exceeded {} hw cycles — livelock?",
                    self.max_cycles
                )));
            }
            self.cycle()?;
            // Quiescence must hold for a few consecutive cycles so that
            // in-flight bus messages and budget droughts don't end the
            // run early.
            if self.hw.idle() && self.sw.idle() && self.bridge.idle() {
                idle_streak += 1;
            } else {
                idle_streak = 0;
            }
        }
        Ok(self.stats())
    }

    /// Statistics so far.
    pub fn stats(&self) -> CosimStats {
        let b = self.bridge.stats();
        CosimStats {
            hw_cycles: self.clock.hw_cycles(),
            cpu_cycles: self.cpu_cycles,
            msgs_sw_to_hw: b.sw_to_hw,
            msgs_hw_to_sw: b.hw_to_sw,
            bus_beats: b.beats,
        }
    }

    /// Decomposes the system back into its parts (trace extraction).
    pub fn into_parts(self) -> (H, S, Bridge) {
        (self.hw, self.sw, self.bridge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::{BridgeConfig, ChannelSpec};
    use crate::msg::{BusMessage, Direction};

    /// Hardware that echoes every message back, incremented.
    struct EchoHw {
        pending: usize,
    }
    impl HwModel for EchoHw {
        fn cycle(&mut self, bridge: &mut Bridge, now: u64) -> Result<(), CosimError> {
            if let Some(m) = bridge.hw_recv() {
                bridge
                    .hw_send(
                        BusMessage {
                            channel: 1,
                            words: vec![m.words[0] + 1],
                        },
                        now,
                    )
                    .map_err(|e| CosimError::new(e.to_string()))?;
                self.pending = self.pending.saturating_sub(1);
            }
            Ok(())
        }
        fn idle(&self) -> bool {
            true // stateless between messages
        }
    }

    /// Software that sends `count` pings, collects replies. Accumulates
    /// its per-slice budget as credit, the way a real dispatch loop spans
    /// several hardware cycles per action.
    struct PingSw {
        to_send: u64,
        replies: Vec<u32>,
        next: u32,
        credit: u64,
    }
    impl SwModel for PingSw {
        fn run_slice(
            &mut self,
            bridge: &mut Bridge,
            now: u64,
            budget: u64,
        ) -> Result<u64, CosimError> {
            self.credit += budget;
            let mut used = 0;
            if self.credit >= 10 && self.to_send > 0 {
                bridge
                    .sw_send(
                        BusMessage {
                            channel: 0,
                            words: vec![self.next],
                        },
                        now,
                    )
                    .map_err(|e| CosimError::new(e.to_string()))?;
                self.next += 1;
                self.to_send -= 1;
                self.credit -= 10;
                used += 10;
            }
            while let Some(m) = bridge.sw_recv() {
                self.replies.push(m.words[0]);
                used += 5;
            }
            Ok(used)
        }
        fn idle(&self) -> bool {
            self.to_send == 0
        }
    }

    fn bridge() -> Bridge {
        Bridge::new(&BridgeConfig {
            channels: vec![
                ChannelSpec {
                    id: 0,
                    payload_words: 1,
                    dir: Direction::SwToHw,
                },
                ChannelSpec {
                    id: 1,
                    payload_words: 1,
                    dir: Direction::HwToSw,
                },
            ],
            fifo_depth: 16,
            bus_latency: 2,
        })
    }

    #[test]
    fn ping_pong_round_trips() {
        let hw = EchoHw { pending: 0 };
        let sw = PingSw {
            to_send: 5,
            replies: Vec::new(),
            next: 100,
            credit: 0,
        };
        let mut sys = CoSystem::new(hw, sw, bridge(), CoClock::new(50_000, 200_000));
        let stats = sys.run_to_quiescence().unwrap();
        assert_eq!(sys.sw().replies, vec![101, 102, 103, 104, 105]);
        assert_eq!(stats.msgs_sw_to_hw, 5);
        assert_eq!(stats.msgs_hw_to_sw, 5);
        assert!(stats.hw_cycles > 0);
        assert!(stats.cpu_cycles > 0);
    }

    #[test]
    fn budget_drought_just_delays_completion() {
        // CPU much slower than hw clock: budgets are often zero, but the
        // run still completes.
        let hw = EchoHw { pending: 0 };
        let sw = PingSw {
            to_send: 3,
            replies: Vec::new(),
            next: 0,
            credit: 0,
        };
        let mut sys = CoSystem::new(hw, sw, bridge(), CoClock::new(100_000, 10_000));
        sys.run_to_quiescence().unwrap();
        assert_eq!(sys.sw().replies.len(), 3);
    }

    #[test]
    fn livelock_guard_fires() {
        struct ChattyHw;
        impl HwModel for ChattyHw {
            fn cycle(&mut self, bridge: &mut Bridge, now: u64) -> Result<(), CosimError> {
                // Sends forever.
                let _ = bridge.hw_send(
                    BusMessage {
                        channel: 1,
                        words: vec![0],
                    },
                    now,
                );
                Ok(())
            }
            fn idle(&self) -> bool {
                false
            }
        }
        struct SinkSw;
        impl SwModel for SinkSw {
            fn run_slice(
                &mut self,
                bridge: &mut Bridge,
                _now: u64,
                _budget: u64,
            ) -> Result<u64, CosimError> {
                while bridge.sw_recv().is_some() {}
                Ok(0)
            }
            fn idle(&self) -> bool {
                true
            }
        }
        let mut sys = CoSystem::new(ChattyHw, SinkSw, bridge(), CoClock::new(1000, 1000));
        sys.set_max_cycles(1000);
        assert!(sys.run_to_quiescence().is_err());
    }
}
