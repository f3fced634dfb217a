//! The benchmark's one wall-clock reader.
//!
//! The library crates model time (`Seconds`) and never sample a clock; the
//! workspace analyzer enforces that with its `no-wall-clock` rule. This
//! benchmark measures real elapsed time from outside the library, so every
//! wall-clock read goes through [`WallClock`] and the escape comments below
//! stay confined to this file.

// analyzer:allow(no-wall-clock, the benchmark measures wall time by design)
use std::time::Instant;

/// Monotonic nanoseconds since a fixed origin, shared by every timer of a
/// run so spans from different threads share one time axis.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant, // analyzer:allow(no-wall-clock, origin of the span time axis)
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(), // analyzer:allow(no-wall-clock, origin of the span time axis)
        }
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
