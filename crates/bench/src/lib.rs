//! # plexus-bench — experiment harnesses
//!
//! One module per paper result. [`FIGURES`] names every figure and table
//! `plexus-bench` regenerates, and each figure's cells name the worlds it
//! replays under the flight recorder ([`figure`], [`cell`]). Host-time
//! cost of the mechanisms themselves is measured by `perf/`
//! (`plexus-perf --trace 1`, the layer kernels).
//!
//! Every module is private but [`udp_rtt`], which stays public because
//! `perf/` imports `udp_rtt::Link` by that path. The root re-exports the
//! registry and the overload harness the root tests drive.

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
mod figures;
mod fwd_latency;
mod guard_eval;
mod guard_state;
mod http_latency;
mod overload;
mod report;
mod sweeps;
mod table;
mod tcp_tput;
mod txn_latency;
pub mod udp_rtt;
mod video_cpu;

pub use figures::{artifact_file, cell, figure, Cell, Figure, FIGURES, KINDS};
pub use overload::{build_frame, LoadPoint, Overload, RxMode, TxMode, Workload, PAYLOAD};
