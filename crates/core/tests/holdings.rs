//! What extensions hold, against a model: random sequences of the seven
//! installs, the three explicit releases, `link_extension` and
//! `unload_extension`, over three installing extensions sharing one stack
//! and links under the names of interfaces, of the stack's own layers, and
//! free ones. After every step the stack must grant and refuse ports
//! exactly as a `BTreeMap<port, owner>` says, show one handler per holding,
//! and still link an extension importing every kernel symbol; once every
//! extension is unloaded it must look like a stack nothing was ever
//! installed on.

use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use plexus_core::{AppHandler, PlexusError, PlexusStack, StackConfig, UdpEndpoint};
use plexus_kernel::dispatcher::{EventSummary, HandlerId};
use plexus_kernel::domain::{ExtensionSpec, LinkError, LinkedExtension};
use plexus_net::ether::EtherType;
use plexus_net::testbed::Testbed;
use plexus_net::udp::UdpConfig;
use plexus_sim::nic::Link;

/// The names links go by: the first three install, and the first four are
/// free; an interface or one of the stack's layers has each of the rest.
const NAMES: [&str; 10] = [
    "A", "B", "C", "D", "UDP", "TCP", "Mbuf", "Ethernet", "ICMP", "udp",
];
const INSTALLERS: usize = 3;
const FREE: usize = 4;
/// Every symbol the stack's extension domain exports.
const KERNEL_SYMBOLS: [&str; 17] = [
    "Mbuf.Alloc",
    "Mbuf.Free",
    "Mbuf.Prepend",
    "Mbuf.Adj",
    "Ethernet.Attach",
    "Ethernet.Detach",
    "Ethernet.Send",
    "UDP.Bind",
    "UDP.Unbind",
    "UDP.Send",
    "UDP.Redirect",
    "TCP.Listen",
    "TCP.Connect",
    "TCP.Send",
    "TCP.Close",
    "TCP.Redirect",
    "ICMP.Ping",
];
/// Few enough ports that the extensions collide all the time.
const PORTS: std::ops::Range<u16> = 0..6;

#[derive(Debug, Clone)]
enum Step {
    Bind {
        ext: usize,
        port: u16,
        special: bool,
    },
    UdpRedirect {
        ext: usize,
        port: u16,
    },
    Listen {
        ext: usize,
        port: u16,
    },
    ClaimSpecial {
        ext: usize,
        ports: Vec<u16>,
    },
    TcpRedirect {
        ext: usize,
        port: u16,
    },
    AttachEther {
        ext: usize,
    },
    /// Closes the `n`-th endpoint ever bound (mod how many), live or not.
    Close(usize),
    Unlisten(u16),
    /// Detaches the `n`-th handler id any install returned (mod how many),
    /// whether or not it is a raw Ethernet handler.
    Detach(usize),
    /// Links `NAMES[name]`, exporting one bare symbol or none.
    Link {
        name: usize,
        export: bool,
    },
    Unload(usize),
}

fn step() -> impl Strategy<Value = Step> {
    let ext = || 0usize..INSTALLERS;
    let name = || 0usize..NAMES.len();
    prop_oneof![
        (ext(), PORTS, any::<bool>()).prop_map(|(ext, port, special)| Step::Bind {
            ext,
            port,
            special
        }),
        (ext(), PORTS).prop_map(|(ext, port)| Step::UdpRedirect { ext, port }),
        (ext(), PORTS).prop_map(|(ext, port)| Step::Listen { ext, port }),
        (ext(), proptest::collection::vec(PORTS, 1..4))
            .prop_map(|(ext, ports)| Step::ClaimSpecial { ext, ports }),
        (ext(), PORTS).prop_map(|(ext, port)| Step::TcpRedirect { ext, port }),
        ext().prop_map(|ext| Step::AttachEther { ext }),
        (0usize..64).prop_map(Step::Close),
        PORTS.prop_map(Step::Unlisten),
        (0usize..64).prop_map(Step::Detach),
        (name(), any::<bool>()).prop_map(|(name, export)| Step::Link { name, export }),
        name().prop_map(Step::Unload),
    ]
}

/// The event a holding's handler sits on, as an index into
/// `event_summary()` (the order `PlexusStack::attach` defines them in).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Site {
    Eth = 0,
    Ip = 2,
    Udp = 4,
    Tcp = 5,
}

/// One install the model believes an extension holds.
#[derive(Debug)]
struct Holding {
    owner: usize,
    site: Site,
    /// `None` for a raw Ethernet handler; else which table and which ports.
    ports: Option<(Transport, Vec<u16>)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Transport {
    Udp,
    Tcp,
}

#[derive(Default)]
struct Model {
    udp: BTreeMap<u16, usize>,
    tcp: BTreeMap<u16, usize>,
    /// Every install ever granted, in order; `None` once released.
    holdings: Vec<Option<Holding>>,
}

impl Model {
    fn table(&mut self, t: Transport) -> &mut BTreeMap<u16, usize> {
        match t {
            Transport::Udp => &mut self.udp,
            Transport::Tcp => &mut self.tcp,
        }
    }

    /// Grants `ports` of `t` to `owner`, or names the first taken one.
    fn install(
        &mut self,
        owner: usize,
        site: Site,
        ports: Option<(Transport, Vec<u16>)>,
    ) -> Result<usize, PlexusError> {
        if let Some((t, ports)) = &ports {
            let table = self.table(*t);
            if let Some(taken) = ports.iter().find(|p| table.contains_key(p)) {
                return Err(PlexusError::PortInUse(*taken));
            }
            for p in ports {
                table.insert(*p, owner);
            }
        }
        self.holdings.push(Some(Holding { owner, site, ports }));
        Ok(self.holdings.len() - 1)
    }

    /// Releases holding `n` if it is live and `admit` passes it.
    fn release(&mut self, n: usize, admit: impl Fn(&Holding) -> bool) -> bool {
        if !self.holdings[n].as_ref().is_some_and(admit) {
            return false;
        }
        let holding = self.holdings[n].take().expect("checked live");
        if let Some((t, ports)) = holding.ports {
            for p in ports {
                self.table(t).remove(&p);
            }
        }
        true
    }

    fn handlers_on(&self, site: Site) -> usize {
        self.holdings
            .iter()
            .flatten()
            .filter(|h| h.site == site)
            .count()
    }
}

/// What an installing extension imports.
const IMPORTS: [&str; 5] = [
    "UDP.Bind",
    "UDP.Redirect",
    "TCP.Listen",
    "TCP.Redirect",
    "Ethernet.Attach",
];

/// Installing extension `ext`'s link token; an unloaded extension comes
/// back under its old name.
fn token(
    stack: &PlexusStack,
    exts: &mut [Option<LinkedExtension>; NAMES.len()],
    ext: usize,
) -> LinkedExtension {
    let link = || {
        stack
            .link_extension(&ExtensionSpec::typesafe(NAMES[ext], &IMPORTS))
            .expect("a name no linked extension has links")
    };
    exts[ext].get_or_insert_with(link).clone()
}

/// An install must answer as the model does; what it grants is kept
/// beside the model holding it is.
fn agree<T>(
    got: Result<T, PlexusError>,
    want: Result<usize, PlexusError>,
    granted: &mut Vec<(T, usize)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.as_ref().err(), want.as_ref().err());
    if let (Ok(handle), Ok(holding)) = (got, want) {
        granted.push((handle, holding));
    }
    Ok(())
}

fn attach(thread_mode: bool) -> (Testbed, Rc<PlexusStack>) {
    let tb = Testbed::new(&Link::ethernet(), 0, &["dut", "peer"]);
    let config = if thread_mode {
        StackConfig::thread
    } else {
        StackConfig::interrupt
    };
    let stack = PlexusStack::attach_host(&tb.hosts[0], config);
    (tb, stack)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn installs_releases_and_unloads_match_the_port_model(
        steps in proptest::collection::vec(step(), 1..60),
        thread_mode in any::<bool>(),
    ) {
        let (mut tb, stack) = attach(thread_mode);
        let fresh: Vec<EventSummary> = attach(thread_mode).1.dispatcher().event_summary();
        let peer = tb.hosts[1].ip;
        let mut model = Model::default();
        // The token of each name linked, by `NAMES` index.
        let mut exts: [Option<LinkedExtension>; NAMES.len()] = Default::default();
        // What the installs handed back, beside the model holding each is.
        let mut endpoints: Vec<(Rc<UdpEndpoint>, usize)> = Vec::new();
        let mut ids: Vec<(HandlerId, usize)> = Vec::new();

        for step in steps {
            let may_revoke = matches!(step, Step::Close(_) | Step::Unload(_));
            match step {
                Step::Bind { ext, port, special } => {
                    let config = UdpConfig { checksum: !special };
                    let site = if special { Site::Ip } else { Site::Udp };
                    let handler = AppHandler::interrupt(|_, _| {});
                    let got = stack.udp().bind(&token(&stack, &mut exts, ext), port, config, handler);
                    let want = model.install(ext, site, Some((Transport::Udp, vec![port])));
                    agree(got, want, &mut endpoints)?;
                }
                Step::UdpRedirect { ext, port } => {
                    let got = stack.udp().redirect(&token(&stack, &mut exts, ext), port, peer);
                    let want = model.install(ext, Site::Ip, Some((Transport::Udp, vec![port])));
                    agree(got, want, &mut ids)?;
                }
                Step::Listen { ext, port } => {
                    let got = stack.tcp().listen(&token(&stack, &mut exts, ext), port, |_, _| {});
                    let want = model.install(ext, Site::Tcp, Some((Transport::Tcp, vec![port])));
                    prop_assert_eq!(got.err(), want.err());
                }
                Step::ClaimSpecial { ext, ports } => {
                    let got = stack.tcp().claim_special(&token(&stack, &mut exts, ext), &ports, |_, _| {});
                    let want = model.install(ext, Site::Ip, Some((Transport::Tcp, ports)));
                    agree(got, want, &mut ids)?;
                }
                Step::TcpRedirect { ext, port } => {
                    let got = stack.tcp().redirect(&token(&stack, &mut exts, ext), port, peer);
                    let want = model.install(ext, Site::Ip, Some((Transport::Tcp, vec![port])));
                    agree(got, want, &mut ids)?;
                }
                Step::AttachEther { ext } => {
                    let handler = AppHandler::interrupt(|_, _| {});
                    let id = stack
                        .attach_ether(&token(&stack, &mut exts, ext), EtherType::ACTIVE_MESSAGE, handler)
                        .expect("a raw handler claims no port");
                    let n = model.install(ext, Site::Eth, None).expect("nor does the model's");
                    ids.push((id, n));
                }
                Step::Close(n) => {
                    if let Some((ep, holding)) = endpoints.get(n % endpoints.len().max(1)) {
                        ep.close();
                        model.release(*holding, |_| true);
                    }
                }
                Step::Unlisten(port) => {
                    let listener = model.holdings.iter().position(|h| {
                        h.as_ref().is_some_and(|h| {
                            h.site == Site::Tcp && h.ports == Some((Transport::Tcp, vec![port]))
                        })
                    });
                    let want = listener.is_some_and(|n| model.release(n, |_| true));
                    prop_assert_eq!(stack.tcp().unlisten(port), want);
                }
                Step::Detach(n) => {
                    if let Some((id, holding)) = ids.get(n % ids.len().max(1)) {
                        let want = model.release(*holding, |h| h.site == Site::Eth);
                        prop_assert_eq!(stack.detach_ether(*id), want);
                    }
                }
                Step::Link { name, export } => {
                    let before = stack.dispatcher().event_summary();
                    let exports: &[&str] = if export { &["Hook"] } else { &[] };
                    let spec = ExtensionSpec::typesafe(NAMES[name], &IMPORTS).with_exports(exports);
                    let got = stack.link_extension(&spec);
                    if exts[name].is_some() || name >= FREE {
                        let taken = LinkError::NameTaken(NAMES[name].to_string());
                        prop_assert_eq!(got, Err(PlexusError::Link(taken)));
                        prop_assert_eq!(stack.dispatcher().event_summary(), before, "a refusal installs nothing");
                    } else {
                        exts[name] = Some(got.expect("a free name links"));
                    }
                }
                Step::Unload(name) => {
                    let was_linked = exts[name].take().is_some();
                    prop_assert_eq!(stack.unload_extension(NAMES[name]), was_linked);
                    for n in 0..model.holdings.len() {
                        model.release(n, |h| h.owner == name);
                    }
                }
            }

            // One handler per holding, on the event the holding names.
            let now = stack.dispatcher().event_summary();
            for site in [Site::Eth, Site::Ip, Site::Udp, Site::Tcp] {
                let i = site as usize;
                prop_assert_eq!(
                    now[i].handlers,
                    fresh[i].handlers + model.handlers_on(site),
                    "{} after the step", &now[i].name
                );
            }
            // An endpoint can send exactly while its binding is held.
            for (ep, holding) in endpoints.iter().filter(|_| may_revoke) {
                let sent = ep.send(tb.world.engine_mut(), peer, 9, b"");
                let held = model.holdings[*holding].is_some();
                prop_assert_eq!(sent, if held { Ok(()) } else { Err(PlexusError::Revoked) });
            }
            // No link or unload took or deleted a kernel interface.
            let probe = ExtensionSpec::typesafe("Probe", &KERNEL_SYMBOLS);
            prop_assert!(stack.link_extension(&probe).is_ok(), "every kernel symbol resolves");
            prop_assert!(stack.unload_extension("Probe"));
        }

        for (name, linked) in exts.iter_mut().enumerate() {
            prop_assert_eq!(stack.unload_extension(NAMES[name]), linked.take().is_some());
        }
        prop_assert_eq!(stack.dispatcher().event_summary(), fresh, "as if nothing was ever installed");
        // Every port is free for the next extension, in both transports.
        let next = token(&stack, &mut exts, 0);
        for port in PORTS {
            let bound = stack.udp().bind(&next, port, UdpConfig::default(), AppHandler::interrupt(|_, _| {}));
            prop_assert!(bound.is_ok(), "UDP port {} is free again", port);
            prop_assert_eq!(stack.tcp().listen(&next, port, |_, _| {}), Ok(()));
        }
    }
}
