//! Figure 7's experiment: TCP redirection latency.
//!
//! A client talks TCP to a service address; a forwarder redirects the
//! traffic to a backend. Two forwarders are compared:
//!
//! * **Plexus**: an in-kernel graph node below the transport layer
//!   (direct-server-return); control packets forward too, so one TCP
//!   connection spans client↔backend.
//! * **DIGITAL UNIX**: the user-level socket splice — every byte makes two
//!   trips through the forwarder's protocol stack and is copied twice
//!   across its user/kernel boundary, and end-to-end semantics are broken.
//!
//! The measurement is the mean request/response round trip through the
//! forwarder for a small request, plus a no-forwarder direct baseline.

use std::cell::Cell;
use std::rc::Rc;

use plexus_apps::forward::{forwarder_extension_spec, InKernelForwarder};
use plexus_baseline::{MonolithicStack, UserSplice};
use plexus_core::{PlexusStack, StackConfig, TcpCallbacks, TcpConn};
use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::vm::AddressSpace;
use plexus_net::testbed::Testbed;
use plexus_sim::nic::Link;
use plexus_sim::time::SimDuration;
use plexus_trace::Recorder;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt::{mean_us, PingState};

/// The forwarding system measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwdSystem {
    /// Plexus in-kernel redirection.
    Plexus,
    /// The DIGITAL UNIX user-level splice.
    DunixSplice,
    /// No forwarder: client talks straight to the backend (Plexus stacks),
    /// the floor any forwarder adds latency over.
    Direct,
}

const PORT: u16 = 8080;

/// One Figure 7 cell: `rounds` serial `payload`-byte request/response
/// exchanges from a client, through a forwarder, to a backend, all three
/// on `link`.
pub struct FwdLatency<'a> {
    /// The forwarding configuration.
    pub system: FwdSystem,
    /// The segment all three hosts sit on.
    pub link: &'a Link,
    /// Request (and response) bytes.
    pub payload: usize,
    /// Serial exchanges to measure.
    pub rounds: u32,
    /// Flight recorder installed across the whole world, so the
    /// `fig7_forwarding` cell can attribute the forwarder's cycles.
    pub recorder: Option<&'a Rc<Recorder>>,
}

impl<'a> FwdLatency<'a> {
    /// The experiment, untraced.
    pub fn new(system: FwdSystem, link: &'a Link, payload: usize, rounds: u32) -> Self {
        FwdLatency {
            system,
            link,
            payload,
            rounds,
            recorder: None,
        }
    }

    /// Runs the exchanges; returns the mean request/response latency in
    /// microseconds.
    pub fn run(&self) -> f64 {
        let tb = Testbed::new(self.link, 2, &["client", "fwd", "backend"]).traced(self.recorder);
        let state = PingState::new(self.rounds);
        match self.system {
            FwdSystem::Plexus => self.plexus(tb, &state, true),
            FwdSystem::Direct => self.plexus(tb, &state, false),
            FwdSystem::DunixSplice => self.splice(tb, &state),
        }
        mean_us(&state.samples())
    }

    /// Plexus stacks on all three hosts; with `forward` the client talks
    /// to the forwarder's address and an in-kernel node redirects to the
    /// backend, without it the client talks straight to the backend.
    fn plexus(&self, mut tb: Testbed, state: &Rc<PingState>, forward: bool) {
        let [client, fwd, backend] =
            [0, 1, 2].map(|k| PlexusStack::attach_host(&tb.hosts[k], StackConfig::interrupt));
        let target = if forward {
            let fext = fwd
                .link_extension(&forwarder_extension_spec("fwd"))
                .unwrap();
            InKernelForwarder::tcp(&fwd, &fext, PORT, backend.ip()).unwrap();
            backend.add_ip_alias(fwd.ip());
            fwd.ip()
        } else {
            backend.ip()
        };

        let spec = forwarder_extension_spec("echo");
        let cext = client.link_extension(&spec).unwrap();
        let bext = backend.link_extension(&spec).unwrap();
        backend.tcp().listen(&bext, PORT, echo).unwrap();
        let to = (target, PORT);
        let conn = client.tcp().connect(&cext, tb.world.engine_mut(), to);
        self.ping(&conn.unwrap(), state);
        tb.world.run_for(SimDuration::from_secs(120));
    }

    /// Monolithic stacks on all three hosts and the user-level splice on
    /// the forwarder.
    fn splice(&self, mut tb: Testbed, state: &Rc<PingState>) {
        let [client, fwd, backend] = [0, 1, 2].map(|k| MonolithicStack::attach_host(&tb.hosts[k]));
        backend
            .tcp()
            .listen(&AddressSpace::new("backend"), PORT, echo);
        let _splice = UserSplice::start(&fwd, tb.world.engine_mut(), PORT, (backend.ip(), PORT));
        let cproc = AddressSpace::new("client");
        let to = (fwd.ip(), PORT);
        let conn = client.tcp().connect(tb.world.engine_mut(), &cproc, to);
        self.ping(&conn.unwrap(), state);
        tb.world.run_for(SimDuration::from_secs(120));
    }

    /// The client, the same on every stack: one request on connect, and
    /// the next once the whole response is in, until `state` has its
    /// rounds. A recorder, when installed, gets each round trip as a
    /// sample and a journey break, so the next request's ledger starts
    /// fresh at its send.
    fn ping(&self, conn: &Rc<TcpConn>, state: &Rc<PingState>) {
        let payload = self.payload;
        let req = Rc::new(vec![0x42u8; payload]);
        let pending = Cell::new(0usize);
        let (st, first) = (state.clone(), req.clone());
        let st2 = state.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| {
                st.sent_at.set(ctx.lease.now().as_nanos());
                conn.send_in(ctx, &first);
            })),
            on_data: Some(Rc::new(move |ctx, conn, data| {
                // Wait for the whole response before scoring the round.
                pending.set(pending.get() + data.len());
                if pending.get() < payload {
                    return;
                }
                pending.set(0);
                let now = ctx.lease.now().as_nanos();
                let (rtt, more) = st2.complete(now);
                if let Some(rec) = ctx.lease.recorder() {
                    rec.sample(now, rec.intern("fwd.rtt_ns"), rtt);
                    rec.journey_break();
                }
                if more {
                    st2.sent_at.set(now);
                    conn.send_in(ctx, &req);
                }
            })),
            ..Default::default()
        });
    }
}

/// The backend's service on every stack: echo what arrives, and close
/// when the peer has.
fn echo(_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>) {
    conn.set_callbacks(TcpCallbacks {
        on_data: Some(Rc::new(|ctx, conn, data| conn.send_in(ctx, data))),
        on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
        ..Default::default()
    });
}

/// Figure 7: request/response round trips through a port forwarder — the
/// Plexus in-kernel redirector vs. the DIGITAL UNIX user-level socket
/// splice, with the direct no-forwarder path as the floor.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    const ROUNDS: u32 = 50;

    outln!(
        out,
        "Figure 7: TCP redirection latency (Ethernet, {ROUNDS} request/response rounds)"
    );
    outln!(out);

    let systems = [
        (FwdSystem::Direct, "direct"),
        (FwdSystem::Plexus, "plexus_redirect"),
        (FwdSystem::DunixSplice, "dunix_splice"),
    ];
    let link = Link::ethernet();
    let mut rows = Vec::new();
    for payload in [8usize, 64, 256, 1024] {
        let us = systems.map(|(sys, key)| {
            let us = FwdLatency::new(sys, &link, payload, ROUNDS).run();
            report.latency_us(&format!("payload_{payload:04}/{key}"), us);
            us
        });
        let [direct, plexus, splice] = us;
        let mut row = vec![payload.to_string()];
        row.extend(
            [direct, plexus, splice, plexus - direct, splice - direct].map(|v| format!("{v:.0}")),
        );
        rows.push(row);
    }
    table::render(
        out,
        &[
            "request (B)",
            "direct (us)",
            "Plexus (us)",
            "splice (us)",
            "Plexus added",
            "splice added",
        ],
        &rows,
    );
    out.push_str(
        "Paper: the in-kernel redirector adds far less latency than the user-level\n\
         splice, and it alone preserves end-to-end TCP semantics (the splice\n\
         terminates the client's connection at the forwarder).\n",
    );

    report.count("rounds_per_cell", u64::from(ROUNDS));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_kernel_forwarding_beats_the_user_splice() {
        let link = Link::ethernet();
        let [direct, plexus, splice] =
            [FwdSystem::Direct, FwdSystem::Plexus, FwdSystem::DunixSplice]
                .map(|system| FwdLatency::new(system, &link, 64, 5).run());
        assert!(
            direct < plexus && plexus < splice,
            "Figure 7 ordering: direct={direct:.0} plexus={plexus:.0} splice={splice:.0}"
        );
        // The splice pays two full stack traversals + four boundary
        // crossings per direction; expect a substantial multiple.
        assert!(
            splice > plexus * 1.5,
            "splice ({splice:.0} us) should cost well over in-kernel ({plexus:.0} us)"
        );
    }
}
