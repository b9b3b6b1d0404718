//! An HTTP server as a Plexus extension (§7's demonstration: "the protocol
//! stack as it services HTTP requests").
//!
//! The server is an in-kernel TCP extension: requests are parsed as bytes
//! arrive (no user/kernel crossing), responses are served from an
//! in-memory document store, and each HTTP/1.0 connection closes after its
//! response — driving the full TCP teardown path.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{PlexusError, PlexusStack, TcpCallbacks, TcpConn};
use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_net::{build_response, parse_request, parse_response, ParseOutcome};
use plexus_sim::Engine;

/// The linker spec an HTTP server extension uses.
pub fn httpd_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["TCP.Listen", "TCP.Send", "TCP.Close", "Mbuf.Alloc"])
}

/// Server statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HttpdStats {
    /// Requests served with 200.
    pub ok: u64,
    /// Requests answered 404.
    pub not_found: u64,
    /// Malformed requests answered 400.
    pub bad_request: u64,
}

/// What both servers run on each accepted connection: buffer the request,
/// answer it from `docs` and close (HTTP/1.0), counting into `stats` and,
/// for a well-formed request when a recorder is installed, the
/// `httpd.requests` counter.
fn on_accept(
    docs: HashMap<String, Vec<u8>>,
    stats: &Rc<Cell<HttpdStats>>,
) -> impl Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>) + 'static {
    let (docs, st) = (Rc::new(docs), stats.clone());
    move |_, conn| {
        let buffer: RefCell<Vec<u8>> = RefCell::new(Vec::new());
        let (docs, st) = (docs.clone(), st.clone());
        conn.set_callbacks(TcpCallbacks {
            on_data: Some(Rc::new(move |ctx, conn, data| {
                buffer.borrow_mut().extend_from_slice(data);
                let mut s = st.get();
                let resp = match parse_request(&buffer.borrow()) {
                    ParseOutcome::Incomplete => return,
                    ParseOutcome::Malformed => {
                        s.bad_request += 1;
                        build_response(400, "Bad Request", "text/plain", b"bad")
                    }
                    ParseOutcome::Complete { request, .. } => {
                        if let Some(rec) = ctx.lease.recorder() {
                            let lbl = rec.intern("httpd");
                            rec.count(plexus_trace::Scope::App, lbl, "requests", 1);
                        }
                        match docs.get(&request.path) {
                            Some(body) => {
                                s.ok += 1;
                                build_response(200, "OK", "text/html", body)
                            }
                            None => {
                                s.not_found += 1;
                                build_response(404, "Not Found", "text/plain", b"no such document")
                            }
                        }
                    }
                };
                st.set(s);
                conn.send_in(ctx, &resp);
                // HTTP/1.0: close after the response.
                conn.close_in(ctx);
            })),
            on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
            ..Default::default()
        });
    }
}

/// An in-kernel HTTP/1.0 server extension.
pub struct Httpd {
    stats: Rc<Cell<HttpdStats>>,
}

impl Httpd {
    /// Serves `documents` (path → body) on `port`.
    pub fn serve(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        port: u16,
        documents: HashMap<String, Vec<u8>>,
    ) -> Result<Httpd, PlexusError> {
        let stats = Rc::new(Cell::new(HttpdStats::default()));
        stack
            .tcp()
            .listen(ext, port, on_accept(documents, &stats))?;
        Ok(Httpd { stats })
    }

    /// Server statistics.
    pub fn stats(&self) -> HttpdStats {
        self.stats.get()
    }
}

/// A simple HTTP client over a Plexus TCP connection (for examples/tests):
/// issues one GET and resolves with `(status, body)`.
/// Shared slot the response lands in.
type ResponseSlot = Rc<RefCell<Option<(u16, Vec<u8>)>>>;

/// A simple HTTP client over a Plexus TCP connection (for examples and
/// tests): issues one GET and resolves with `(status, body)`.
pub struct HttpGet {
    result: ResponseSlot,
    completed_at: Rc<Cell<Option<u64>>>,
}

impl HttpGet {
    /// Starts the request; inspect [`HttpGet::result`] after running the
    /// engine.
    pub fn start(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        engine: &mut Engine,
        server: (Ipv4Addr, u16),
        path: &str,
    ) -> Result<HttpGet, PlexusError> {
        let conn = stack.tcp().connect(ext, engine, server)?;
        let result: ResponseSlot = Rc::new(RefCell::new(None));
        let completed_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let buffer: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let request = format!("GET {path} HTTP/1.0\r\nHost: plexus\r\n\r\n").into_bytes();
        let res = result.clone();
        let done_at = completed_at.clone();
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| {
                conn.send_in(ctx, &request);
            })),
            on_data: Some(Rc::new({
                let buffer = buffer.clone();
                move |_, _, data| {
                    buffer.borrow_mut().extend_from_slice(data);
                }
            })),
            on_peer_close: Some(Rc::new(move |ctx, conn| {
                // Response complete (HTTP/1.0 framing by close).
                *res.borrow_mut() = parse_response(&buffer.borrow());
                done_at.set(Some(ctx.lease.now().as_nanos()));
                conn.close_in(ctx);
            })),
            ..Default::default()
        });
        Ok(HttpGet {
            result,
            completed_at,
        })
    }

    /// Simulated instant (ns) the full response was in hand, for latency
    /// measurements.
    pub fn completed_at_ns(&self) -> Option<u64> {
        self.completed_at.get()
    }

    /// The `(status, body)` once the response has arrived.
    pub fn result(&self) -> Option<(u16, Vec<u8>)> {
        self.result.borrow().clone()
    }
}

/// The same HTTP service as a DIGITAL UNIX user process (for the §7
/// comparison): every request crosses the user/kernel boundary at least
/// four times (accept wakeup, read copyout, write copyin, close).
pub struct DunixHttpd;

impl DunixHttpd {
    /// Serves `documents` on `stack`:`port` from a user process.
    pub fn serve(
        stack: &Rc<plexus_baseline::MonolithicStack>,
        port: u16,
        documents: HashMap<String, Vec<u8>>,
    ) -> DunixHttpd {
        let process = plexus_kernel::AddressSpace::new();
        let stats = Rc::new(Cell::new(HttpdStats::default()));
        stack
            .tcp()
            .listen(&process, port, on_accept(documents, &stats));
        DunixHttpd
    }
}
