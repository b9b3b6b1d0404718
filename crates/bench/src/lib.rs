//! # plexus-bench — experiment harnesses
//!
//! One module per paper result; the `src/bin/*` binaries print the tables
//! and figures. Host-time cost of the mechanisms themselves is measured
//! by `perf/` (`plexus-perf --trace 1`, the layer kernels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client_video;
pub mod diff;
pub mod fwd_latency;
pub mod http_latency;
pub mod overload;
pub mod report;
pub mod scenarios;
pub mod table;
pub mod tcp_tput;
pub mod txn_latency;
pub mod udp_rtt;
pub mod video_cpu;
