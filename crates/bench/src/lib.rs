//! # plexus-bench — experiment harnesses
//!
//! One module per paper result. [`figures::FIGURES`] names every figure
//! and table `plexus-bench` regenerates, and each figure's cells name the
//! worlds it replays under the flight recorder. Host-time cost of the
//! mechanisms themselves is measured by `perf/` (`plexus-perf --trace 1`,
//! the layer kernels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `println!` into the `String` a figure returns as its human tables.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod am_latency;
mod client_video;
pub mod figures;
pub mod fwd_latency;
mod guard_eval;
mod guard_state;
mod http_latency;
pub mod overload;
pub mod report;
mod sweeps;
mod table;
mod tcp_tput;
mod txn_latency;
pub mod udp_rtt;
mod video_cpu;
