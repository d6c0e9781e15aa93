//! # olab-power — power telemetry
//!
//! Converts the simulator's exact piecewise-constant power traces into the
//! *sampled* telemetry a real system exposes, mirroring the paper's
//! methodology: NVML reports ~100 ms averages on NVIDIA boards, AMD-SMI
//! samples down to 1 ms on Instinct parts — which is exactly why the paper's
//! fine-grained power trace figure (Fig. 7) uses the MI250.
//!
//! ```rust
//! use olab_power::{PowerTrace, Sampler};
//! use olab_sim::{PowerSegment, SimTime, Window};
//!
//! let segments = vec![
//!     PowerSegment {
//!         window: Window { start: SimTime::ZERO, end: SimTime::from_millis(10.0) },
//!         watts: 100.0,
//!     },
//!     PowerSegment {
//!         window: Window { start: SimTime::from_millis(10.0), end: SimTime::from_millis(20.0) },
//!         watts: 500.0,
//!     },
//! ];
//! let trace = PowerTrace::from_segments(&segments);
//! assert_eq!(trace.peak_instantaneous(), 500.0);
//! // A coarse sampler smears the spike.
//! let coarse = trace.sample(Sampler::nvml());
//! assert!(coarse.peak().unwrap_or(0.0) <= 500.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sampler;
mod trace;

pub use sampler::Sampler;
pub use trace::{PowerFold, PowerSample, PowerStats, PowerTrace, SampledTrace};
