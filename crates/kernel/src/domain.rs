//! Logical protection domains and safe dynamic linking (§2).
//!
//! SPIN's dynamic linker accepts extensions as partially resolved object
//! files *signed by the Modula-3 compiler* and resolves their imports
//! against a **logical protection domain** — a set of visible interfaces.
//! If an extension references a symbol outside the domain it is linked
//! against, the link fails and the extension is rejected. Domains are
//! first-class: they can be created, copied, combined, and passed around
//! (as capabilities), so different extensions can be given access to
//! different services.
//!
//! Here an [`ExtensionSpec`] declares its imports and exports, carries a
//! [`Signature`], and [`Domain::link`] either produces a [`LinkedExtension`]
//! proof token or a [`LinkError`] naming every unresolved symbol. The
//! Plexus protocol managers in `plexus-core` demand a `LinkedExtension`
//! before they will install anything on an application's behalf, closing
//! the loop between "install" safety and "attach" safety.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use plexus_trace::Name;

/// Who vouches for an extension's safety.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signature {
    /// Signed by the typesafe-language compiler: memory safety is
    /// machine-checked. The normal case.
    TypesafeCompiler,
    /// Not typesafe, but admitted on trust — the paper's one exception, the
    /// commercial TCP/IP code (§4.2), "conformant to interfaces and
    /// contains no illegal loads or stores". Linking these requires the
    /// privileged [`Domain::link_trusted`] entry point.
    TrustedVendor,
    /// Unsigned. Always rejected.
    Unsigned,
}

/// A named kernel interface: a set of symbols an extension may import.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interface {
    name: String,
    symbols: BTreeSet<String>,
}

impl Interface {
    /// Creates an interface exporting `symbols`, each exposed as
    /// `"<name>.<symbol>"`.
    pub fn new(name: &str, symbols: &[&str]) -> Rc<Interface> {
        Rc::new(Interface {
            name: name.to_string(),
            symbols: symbols.iter().map(|s| format!("{name}.{s}")).collect(),
        })
    }

    /// The interface name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True if the fully qualified `symbol` is exported here.
    pub fn exports(&self, symbol: &str) -> bool {
        self.symbols.contains(symbol)
    }

    /// All exported symbols, sorted.
    pub fn symbols(&self) -> impl Iterator<Item = &str> {
        self.symbols.iter().map(String::as_str)
    }
}

/// Identifies a domain instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u64);

/// A partially resolved extension "object file": what the application hands
/// the kernel to install.
#[derive(Clone, Debug)]
pub struct ExtensionSpec {
    /// The extension's module name.
    pub name: String,
    /// Fully qualified symbols the extension imports.
    pub imports: Vec<String>,
    /// Fully qualified symbols the extension body actually references —
    /// the compiler-reported usage set the lint pass checks the import
    /// list against.
    pub refs: Vec<String>,
    /// Symbols the extension itself defines (for later linking by others).
    pub exports: Vec<String>,
    /// Who signed the object file.
    pub signature: Signature,
}

impl ExtensionSpec {
    /// A compiler-signed (typesafe) extension. The reference set defaults
    /// to the import list (every import used); override with
    /// [`ExtensionSpec::with_refs`] when they differ.
    pub fn typesafe(name: &str, imports: &[&str]) -> ExtensionSpec {
        let imports: Vec<String> = imports.iter().map(|s| s.to_string()).collect();
        ExtensionSpec {
            name: name.to_string(),
            refs: imports.clone(),
            imports,
            exports: Vec::new(),
            signature: Signature::TypesafeCompiler,
        }
    }

    /// Adds exported symbols.
    pub fn with_exports(mut self, exports: &[&str]) -> ExtensionSpec {
        self.exports = exports.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Marks the spec with a different signature.
    pub fn with_signature(mut self, signature: Signature) -> ExtensionSpec {
        self.signature = signature;
        self
    }

    /// Sets the body's reference set (what the extension actually calls),
    /// when it differs from the import list.
    pub fn with_refs(mut self, refs: &[&str]) -> ExtensionSpec {
        self.refs = refs.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// Why a link failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The object file was not signed by the typesafe compiler.
    BadSignature(Signature),
    /// Imports not visible in the target domain. The extension is rejected;
    /// the unresolved symbols are listed for diagnostics.
    Unresolved(Vec<String>),
    /// An extension of this name is already linked into the domain (or
    /// the name is one the domain's owner keeps for itself). Unload and
    /// per-domain accounting go by name, so two holders of one name would
    /// be torn down, and billed, as one.
    NameTaken(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::BadSignature(sig) => write!(f, "rejected signature {sig:?}"),
            LinkError::Unresolved(syms) => write!(f, "unresolved symbols: {}", syms.join(", ")),
            LinkError::NameTaken(name) => write!(f, "extension name {name:?} is taken"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Proof that an extension linked successfully against a domain.
///
/// Unforgeable outside this module; protocol managers require one before
/// installing handlers on an application's behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkedExtension {
    /// Shared, so a manager can note who holds an install without copying
    /// the name.
    name: Rc<str>,
    domain: DomainId,
}

impl LinkedExtension {
    /// The linked extension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain it was linked against.
    pub fn domain(&self) -> DomainId {
        self.domain
    }
}

/// The extension's name as the owner of what it installs, shared rather
/// than copied.
impl From<&LinkedExtension> for Name {
    fn from(ext: &LinkedExtension) -> Name {
        Name::from(ext.name.clone())
    }
}

/// A logical protection domain: the set of interfaces an extension linked
/// against it may see.
pub struct Domain {
    id: DomainId,
    name: String,
    interfaces: RefCell<BTreeMap<String, Rc<Interface>>>,
    linked: RefCell<BTreeSet<String>>,
}

thread_local! {
    static NEXT_DOMAIN: Cell<u64> = const { Cell::new(1) };
}

impl Domain {
    /// Creates an empty domain.
    pub fn new(name: &str) -> Rc<Domain> {
        let id = NEXT_DOMAIN.with(|n| {
            let v = n.get();
            n.set(v + 1);
            DomainId(v)
        });
        Rc::new(Domain {
            id,
            name: name.to_string(),
            interfaces: RefCell::new(BTreeMap::new()),
            linked: RefCell::new(BTreeSet::new()),
        })
    }

    /// The domain's identity.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Makes `interface` visible in this domain.
    pub fn add_interface(&self, interface: Rc<Interface>) {
        self.interfaces
            .borrow_mut()
            .insert(interface.name().to_string(), interface);
    }

    /// Removes an interface by name; returns whether it was present.
    pub fn remove_interface(&self, name: &str) -> bool {
        self.interfaces.borrow_mut().remove(name).is_some()
    }

    /// Creates a new domain containing the union of this one and `other`
    /// (SPIN's domain combine).
    pub fn combine(&self, other: &Domain, name: &str) -> Rc<Domain> {
        let d = Domain::new(name);
        for iface in self.interfaces.borrow().values() {
            d.add_interface(iface.clone());
        }
        for iface in other.interfaces.borrow().values() {
            d.add_interface(iface.clone());
        }
        d
    }

    /// Creates an independent copy (a snapshot; later changes to either do
    /// not affect the other).
    pub fn copy(&self, name: &str) -> Rc<Domain> {
        let d = Domain::new(name);
        for iface in self.interfaces.borrow().values() {
            d.add_interface(iface.clone());
        }
        d
    }

    /// True if the fully qualified `symbol` resolves in this domain.
    pub fn resolves(&self, symbol: &str) -> bool {
        self.interfaces.borrow().values().any(|i| i.exports(symbol))
    }

    /// Links a compiler-signed extension against this domain.
    ///
    /// Fails with [`LinkError::BadSignature`] unless the spec is signed by
    /// the typesafe compiler, [`LinkError::Unresolved`] if any import is
    /// not visible here, or [`LinkError::NameTaken`] if an extension of
    /// that name is linked already.
    pub fn link(&self, spec: &ExtensionSpec) -> Result<LinkedExtension, LinkError> {
        if spec.signature != Signature::TypesafeCompiler {
            return Err(LinkError::BadSignature(spec.signature));
        }
        self.link_resolving(spec)
    }

    /// Privileged variant admitting [`Signature::TrustedVendor`] code — the
    /// paper's commercial TCP/IP exception. Still rejects unsigned specs
    /// and still requires every import to resolve.
    pub fn link_trusted(&self, spec: &ExtensionSpec) -> Result<LinkedExtension, LinkError> {
        if spec.signature == Signature::Unsigned {
            return Err(LinkError::BadSignature(spec.signature));
        }
        self.link_resolving(spec)
    }

    /// Lints `spec` against this domain's interfaces, reporting **every**
    /// issue at once: unresolved imports, duplicate imports, imports the
    /// body never references (dead capabilities), body references outside
    /// the import closure, self-imports, export collisions, and missing
    /// signatures. Unlike [`Domain::link`] this changes nothing — it is
    /// the diagnostic pass (the same one behind the `plexus-verify` tool),
    /// meant to run before a link or in tooling.
    pub fn check_spec(&self, spec: &ExtensionSpec) -> plexus_filter::spec::SpecReport {
        let mut table = plexus_filter::spec::InterfaceTable::new();
        for iface in self.interfaces.borrow().values() {
            table.insert(
                iface.name().to_string(),
                iface.symbols().map(str::to_string),
            );
        }
        let info = plexus_filter::spec::SpecInfo {
            name: spec.name.clone(),
            signature: match spec.signature {
                Signature::TypesafeCompiler => plexus_filter::spec::SpecSignature::TypesafeCompiler,
                Signature::TrustedVendor => plexus_filter::spec::SpecSignature::TrustedVendor,
                Signature::Unsigned => plexus_filter::spec::SpecSignature::Unsigned,
            },
            imports: spec.imports.clone(),
            refs: spec.refs.clone(),
            exports: spec.exports.clone(),
        };
        plexus_filter::spec::analyze(&table, &info)
    }

    fn link_resolving(&self, spec: &ExtensionSpec) -> Result<LinkedExtension, LinkError> {
        let unresolved: Vec<String> = spec
            .imports
            .iter()
            .filter(|sym| !self.resolves(sym))
            .cloned()
            .collect();
        if !unresolved.is_empty() {
            return Err(LinkError::Unresolved(unresolved));
        }
        if !self.linked.borrow_mut().insert(spec.name.clone()) {
            return Err(LinkError::NameTaken(spec.name.clone()));
        }
        if !spec.exports.is_empty() {
            // The extension's own exports become a new interface visible in
            // this domain, so later extensions can link against it.
            let iface = Rc::new(Interface {
                name: spec.name.clone(),
                symbols: spec.exports.iter().cloned().collect(),
            });
            self.add_interface(iface);
        }
        Ok(LinkedExtension {
            name: spec.name.as_str().into(),
            domain: self.id,
        })
    }

    /// Unlinks an extension (runtime adaptation: extensions "come and go
    /// with their corresponding applications"). Removes its exported
    /// interface. Returns whether it was linked.
    pub fn unlink(&self, name: &str) -> bool {
        let was = self.linked.borrow_mut().remove(name);
        if was {
            self.remove_interface(name);
        }
        was
    }
}

/// The kernel nameserver: a registry applications consult to obtain domain
/// capabilities by path.
#[derive(Default)]
pub struct Nameserver {
    entries: RefCell<BTreeMap<String, Rc<Domain>>>,
}

impl Nameserver {
    /// Creates an empty nameserver.
    pub fn new() -> Nameserver {
        Nameserver::default()
    }

    /// Registers `domain` at `path`, replacing any previous registration.
    pub fn register(&self, path: &str, domain: Rc<Domain>) {
        self.entries.borrow_mut().insert(path.to_string(), domain);
    }

    /// Looks up the domain registered at `path`.
    pub fn lookup(&self, path: &str) -> Option<Rc<Domain>> {
        self.entries.borrow().get(path).cloned()
    }

    /// All registered paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.entries.borrow().keys().cloned().collect()
    }
}

#[cfg(test)]
impl Domain {
    /// Names of extensions currently linked into this domain.
    fn linked_extensions(&self) -> Vec<String> {
        self.linked.borrow().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbuf_iface() -> Rc<Interface> {
        Interface::new("Mbuf", &["Alloc", "Free"])
    }

    fn ether_iface() -> Rc<Interface> {
        Interface::new("Ethernet", &["PacketRecv", "PacketSend", "InstallHandler"])
    }

    #[test]
    fn link_succeeds_when_all_imports_resolve() {
        let d = Domain::new("net-extensions");
        d.add_interface(mbuf_iface());
        d.add_interface(ether_iface());
        let spec =
            ExtensionSpec::typesafe("ActiveMessages", &["Mbuf.Alloc", "Ethernet.InstallHandler"]);
        let linked = d.link(&spec).expect("link should succeed");
        assert_eq!(linked.name(), "ActiveMessages");
        assert_eq!(linked.domain(), d.id());
        assert_eq!(d.linked_extensions(), vec!["ActiveMessages"]);
    }

    #[test]
    fn link_fails_listing_every_unresolved_symbol() {
        let d = Domain::new("restricted");
        d.add_interface(mbuf_iface());
        let spec = ExtensionSpec::typesafe(
            "Snooper",
            &["Mbuf.Alloc", "Ethernet.PacketRecv", "VM.MapKernel"],
        );
        match d.link(&spec) {
            Err(LinkError::Unresolved(syms)) => {
                assert_eq!(syms, vec!["Ethernet.PacketRecv", "VM.MapKernel"]);
            }
            other => panic!("expected unresolved-symbol failure, got {other:?}"),
        }
        assert!(d.linked_extensions().is_empty());
    }

    #[test]
    fn unsigned_extensions_are_rejected() {
        let d = Domain::new("any");
        let spec = ExtensionSpec::typesafe("Rogue", &[]).with_signature(Signature::Unsigned);
        assert_eq!(
            d.link(&spec),
            Err(LinkError::BadSignature(Signature::Unsigned))
        );
    }

    #[test]
    fn vendor_code_needs_the_trusted_entry_point() {
        let d = Domain::new("kernel-full");
        let spec =
            ExtensionSpec::typesafe("VendorTcp", &[]).with_signature(Signature::TrustedVendor);
        assert!(
            d.link(&spec).is_err(),
            "normal link must reject vendor code"
        );
        assert!(d.link_trusted(&spec).is_ok());
        let unsigned = spec.clone().with_signature(Signature::Unsigned);
        assert!(d.link_trusted(&unsigned).is_err());
    }

    #[test]
    fn combine_unions_interfaces() {
        let a = Domain::new("a");
        a.add_interface(mbuf_iface());
        let b = Domain::new("b");
        b.add_interface(ether_iface());
        let both = a.combine(&b, "a+b");
        assert!(both.resolves("Mbuf.Alloc"));
        assert!(both.resolves("Ethernet.PacketRecv"));
        assert!(!a.resolves("Ethernet.PacketRecv"));
    }

    #[test]
    fn copy_is_a_snapshot() {
        let a = Domain::new("a");
        a.add_interface(mbuf_iface());
        let snap = a.copy("snap");
        a.add_interface(ether_iface());
        assert!(!snap.resolves("Ethernet.PacketRecv"));
        assert!(snap.resolves("Mbuf.Alloc"));
    }

    #[test]
    fn exports_become_linkable_and_unlink_removes_them() {
        let d = Domain::new("apps");
        d.add_interface(mbuf_iface());
        let provider = ExtensionSpec::typesafe("VideoProto", &["Mbuf.Alloc"])
            .with_exports(&["VideoProto.Send"]);
        d.link(&provider).expect("provider links");
        let consumer = ExtensionSpec::typesafe("VideoViewer", &["VideoProto.Send"]);
        assert!(d.link(&consumer).is_ok());
        assert!(d.unlink("VideoProto"));
        assert!(!d.unlink("VideoProto"), "double unlink must fail");
        let late = ExtensionSpec::typesafe("LateViewer", &["VideoProto.Send"]);
        assert!(d.link(&late).is_err(), "exports must vanish on unlink");
    }

    #[test]
    fn a_linked_name_is_refused_until_it_unlinks() {
        let d = Domain::new("apps");
        let spec = ExtensionSpec::typesafe("A", &[]);
        let first = d.link(&spec).expect("a free name links");
        assert_eq!(d.link(&spec), Err(LinkError::NameTaken("A".to_string())));
        assert_eq!(
            d.link_trusted(&spec),
            Err(LinkError::NameTaken("A".to_string()))
        );
        assert_eq!(
            d.linked_extensions(),
            vec!["A"],
            "the refusal changed nothing"
        );
        assert!(d.unlink("A"));
        assert_eq!(d.link(&spec), Ok(first), "free again once unlinked");
    }

    #[test]
    fn check_spec_reports_every_issue_without_linking() {
        use plexus_filter::spec::SpecIssue;

        let d = Domain::new("lintable");
        d.add_interface(mbuf_iface());
        d.add_interface(ether_iface());
        let spec = ExtensionSpec::typesafe(
            "Leaky",
            &[
                "Mbuf.Alloc",
                "Mbuf.Alloc",
                "Ethernet.PacketRecv",
                "VM.MapKernel",
            ],
        )
        .with_refs(&["Ethernet.PacketRecv", "Ethernet.PacketSend"]);

        let report = d.check_spec(&spec);
        let has = |pred: fn(&SpecIssue) -> bool| report.issues.iter().any(pred);
        assert!(has(|i| matches!(
            i,
            SpecIssue::DuplicateImport { symbol } if symbol == "Mbuf.Alloc"
        )));
        assert!(has(|i| matches!(
            i,
            SpecIssue::UnresolvedImport { symbol } if symbol == "VM.MapKernel"
        )));
        assert!(has(|i| matches!(
            i,
            SpecIssue::UnusedImport { symbol } if symbol == "Mbuf.Alloc"
        )));
        assert!(has(|i| matches!(
            i,
            SpecIssue::UndeclaredReference { symbol } if symbol == "Ethernet.PacketSend"
        )));
        assert!(report.issues.len() >= 5, "all issues reported: {report}");
        assert!(d.linked_extensions().is_empty(), "check_spec must not link");

        // A well-formed spec is clean.
        let good = ExtensionSpec::typesafe("Tidy", &["Mbuf.Alloc"]);
        assert!(d.check_spec(&good).is_clean());
    }

    #[test]
    fn nameserver_round_trips_domains() {
        let ns = Nameserver::new();
        let d = Domain::new("public-net");
        ns.register("/svc/net", d.clone());
        let found = ns.lookup("/svc/net").expect("registered path resolves");
        assert_eq!(found.id(), d.id());
        assert!(ns.lookup("/svc/vm").is_none());
        assert_eq!(ns.paths(), vec!["/svc/net"]);
    }
}
