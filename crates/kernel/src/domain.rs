//! Logical protection domains and safe dynamic linking (§2).
//!
//! SPIN's dynamic linker accepts extensions as partially resolved object
//! files *signed by the Modula-3 compiler* and resolves their imports
//! against a **logical protection domain** — a set of visible interfaces.
//! If an extension references a symbol outside the domain it is linked
//! against, the link fails and the extension is rejected.
//!
//! Here a [`Domain`] is one [`InterfaceTable`] plus the names linked
//! against it. [`Domain::link`] runs the same [`spec::analyze`] pass the
//! `plexus-verify` linter prints over an [`ExtensionSpec`], and admits the
//! spec only if the report is clean, the typesafe compiler signed it, and
//! its name is free. What it admits gets a [`LinkedExtension`] proof token;
//! its exports become the interface `<name>`, so others import them as
//! `<name>.<symbol>`. The Plexus protocol managers in `plexus-core` demand
//! a token that [`Domain::holds`] before they install anything on an
//! application's behalf, closing the loop between "install" safety and
//! "attach" safety.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use plexus_filter::spec::{self, InterfaceTable, SpecIssue, SpecReport};
pub use plexus_filter::spec::{ExtensionSpec, Signature};
use plexus_trace::Name;

/// Identifies a domain instance, so a token works only where it was minted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DomainId(u64);

/// Why a link failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The object file was not signed by the typesafe compiler.
    BadSignature(Signature),
    /// Imports not visible in the target domain, in import order. The
    /// extension is rejected; the unresolved symbols are listed for
    /// diagnostics.
    Unresolved(Vec<String>),
    /// The name is held already: by a linked extension, by an interface
    /// of the domain, or by the domain's owner. Unload and per-domain
    /// accounting go by name, so two holders of one name would be torn
    /// down, and billed, as one.
    NameTaken(String),
    /// Every import resolves, but the spec's analysis found other issues
    /// (a duplicate import or export, an import the body never references,
    /// a reference it never imports); the report lists each one.
    Rejected(SpecReport),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::BadSignature(sig) => write!(f, "rejected signature {sig:?}"),
            LinkError::Unresolved(syms) => write!(f, "unresolved symbols: {}", syms.join(", ")),
            LinkError::NameTaken(name) => write!(f, "extension name {name:?} is taken"),
            LinkError::Rejected(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Proof that an extension linked successfully against a domain.
///
/// Unforgeable outside this module; protocol managers require one, and
/// check with [`Domain::holds`] that its link still stands, before
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
}

/// The extension's name as the owner of what it installs, shared rather
/// than copied.
impl From<&LinkedExtension> for Name {
    fn from(ext: &LinkedExtension) -> Name {
        Name::from(ext.name.clone())
    }
}

/// Who holds a name in a domain, besides an interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Holder {
    /// The domain's owner, for good: never linked, never unlinked.
    Owner,
    /// A linked extension; `exports` if its exports are the interface of
    /// that name.
    Extension { exports: bool },
}

/// A logical protection domain: the interfaces an extension linked
/// against it may see, and the names linked against it.
pub struct Domain {
    id: DomainId,
    interfaces: RefCell<InterfaceTable>,
    names: RefCell<BTreeMap<String, Holder>>,
}

thread_local! {
    static NEXT_DOMAIN: Cell<u64> = const { Cell::new(1) };
}

impl Domain {
    /// Creates a domain with no interfaces whose owner keeps `reserved`:
    /// no extension may link under one of those names.
    pub fn new(reserved: &[&str]) -> Domain {
        let id = NEXT_DOMAIN.with(|n| {
            let v = n.get();
            n.set(v + 1);
            DomainId(v)
        });
        let names = reserved.iter().map(|n| (n.to_string(), Holder::Owner));
        Domain {
            id,
            interfaces: RefCell::default(),
            names: RefCell::new(names.collect()),
        }
    }

    /// Makes interface `name` visible in this domain, each of `symbols`
    /// exposed as `"<name>.<symbol>"`.
    pub fn add_interface(&self, name: &str, symbols: &[&str]) {
        let symbols = symbols.iter().map(|s| format!("{name}.{s}"));
        self.interfaces.borrow_mut().insert(name, symbols);
    }

    /// Links `spec` against this domain. Refuses, in this order, with
    /// [`LinkError::BadSignature`] unless the typesafe compiler signed it,
    /// [`LinkError::NameTaken`] if a linked extension, an interface or the
    /// owner holds its name, [`LinkError::Unresolved`] if an import is not
    /// visible here, and [`LinkError::Rejected`] if [`spec::analyze`]
    /// reports anything else. A refusal changes nothing.
    pub fn link(&self, spec: &ExtensionSpec) -> Result<LinkedExtension, LinkError> {
        if spec.signature != Signature::TypesafeCompiler {
            return Err(LinkError::BadSignature(spec.signature));
        }
        let mut interfaces = self.interfaces.borrow_mut();
        let mut names = self.names.borrow_mut();
        let name = &spec.name;
        if names.contains_key(name) || interfaces.has_interface(name) {
            return Err(LinkError::NameTaken(name.clone()));
        }
        let report = spec::analyze(&interfaces, spec);
        // The name is no interface, so an import from it resolves no more
        // than one from any other unknown interface.
        let unresolved: Vec<String> = (report.issues.iter())
            .filter_map(|issue| match issue {
                SpecIssue::UnresolvedImport { symbol } | SpecIssue::SelfImport { symbol } => {
                    Some(symbol.clone())
                }
                _ => None,
            })
            .collect();
        if !unresolved.is_empty() {
            return Err(LinkError::Unresolved(unresolved));
        }
        if !report.is_clean() {
            return Err(LinkError::Rejected(report));
        }
        let exports = !spec.exports.is_empty();
        if exports {
            interfaces.insert(name, spec.exports.iter().map(|s| format!("{name}.{s}")));
        }
        names.insert(name.clone(), Holder::Extension { exports });
        Ok(LinkedExtension {
            name: name.as_str().into(),
            domain: self.id,
        })
    }

    /// Whether `ext` was minted here and its name is still linked: a token
    /// from another domain, or kept past its unlink, holds nothing.
    pub fn holds(&self, ext: &LinkedExtension) -> bool {
        ext.domain == self.id
            && matches!(
                self.names.borrow().get(&*ext.name),
                Some(Holder::Extension { .. })
            )
    }

    /// Unlinks an extension (runtime adaptation: extensions "come and go
    /// with their corresponding applications"), removing the interface its
    /// exports made. Returns whether it was linked; a name the owner keeps
    /// stays kept.
    pub fn unlink(&self, name: &str) -> bool {
        let mut names = self.names.borrow_mut();
        let Some(&Holder::Extension { exports }) = names.get(name) else {
            return false;
        };
        names.remove(name);
        if exports {
            self.interfaces.borrow_mut().remove(name);
        }
        true
    }
}

#[cfg(test)]
impl Domain {
    /// Names of extensions currently linked into this domain.
    fn linked_extensions(&self) -> Vec<String> {
        let names = self.names.borrow();
        let linked = names.iter().filter(|(_, h)| **h != Holder::Owner);
        linked.map(|(name, _)| name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbuf_and_ether() -> Domain {
        let d = Domain::new(&[]);
        d.add_interface("Mbuf", &["Alloc", "Free"]);
        d.add_interface("Ethernet", &["PacketRecv", "PacketSend", "InstallHandler"]);
        d
    }

    #[test]
    fn link_succeeds_when_all_imports_resolve() {
        let d = mbuf_and_ether();
        let spec =
            ExtensionSpec::typesafe("ActiveMessages", &["Mbuf.Alloc", "Ethernet.InstallHandler"]);
        let linked = d.link(&spec).expect("link should succeed");
        assert_eq!(linked.name(), "ActiveMessages");
        assert!(d.holds(&linked));
        assert_eq!(d.linked_extensions(), vec!["ActiveMessages"]);
    }

    #[test]
    fn link_fails_listing_every_unresolved_symbol() {
        let d = Domain::new(&[]);
        d.add_interface("Mbuf", &["Alloc", "Free"]);
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
        let d = Domain::new(&[]);
        for signature in [Signature::Unsigned, Signature::TrustedVendor] {
            let spec = ExtensionSpec {
                signature,
                ..ExtensionSpec::typesafe("Rogue", &[])
            };
            assert_eq!(d.link(&spec), Err(LinkError::BadSignature(signature)));
        }
    }

    #[test]
    fn exports_become_linkable_and_unlink_removes_them() {
        let d = mbuf_and_ether();
        let provider =
            ExtensionSpec::typesafe("VideoProto", &["Mbuf.Alloc"]).with_exports(&["Send"]);
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
        let d = Domain::new(&[]);
        let spec = ExtensionSpec::typesafe("A", &[]);
        let first = d.link(&spec).expect("a free name links");
        assert_eq!(d.link(&spec), Err(LinkError::NameTaken("A".to_string())));
        assert_eq!(
            d.linked_extensions(),
            vec!["A"],
            "the refusal changed nothing"
        );
        assert!(d.unlink("A"));
        assert!(!d.holds(&first), "the token went with its link");
        assert_eq!(d.link(&spec), Ok(first), "free again once unlinked");
    }

    #[test]
    fn names_of_interfaces_and_of_the_owner_stay_taken() {
        let d = Domain::new(&["kernel"]);
        d.add_interface("Mbuf", &["Alloc"]);
        for name in ["Mbuf", "kernel"] {
            let taken = Err(LinkError::NameTaken(name.to_string()));
            let bare = ExtensionSpec::typesafe(name, &[]);
            assert_eq!(d.link(&bare), taken);
            assert_eq!(d.link(&bare.with_exports(&["Alloc"])), taken);
            assert!(!d.unlink(name), "nothing was linked");
        }
        let user = d.link(&ExtensionSpec::typesafe("User", &["Mbuf.Alloc"]));
        assert!(user.is_ok(), "Mbuf survived: {user:?}");
        assert_eq!(
            d.link(&ExtensionSpec::typesafe("kernel", &[])),
            Err(LinkError::NameTaken("kernel".to_string()))
        );
    }

    #[test]
    fn any_other_issue_is_refused_with_the_report() {
        let d = mbuf_and_ether();
        let twice = ExtensionSpec::typesafe("Twice", &["Mbuf.Alloc", "Mbuf.Alloc"]);
        match d.link(&twice) {
            Err(LinkError::Rejected(report)) => assert_eq!(
                report.issues,
                vec![SpecIssue::DuplicateImport {
                    symbol: "Mbuf.Alloc".to_string()
                }]
            ),
            other => panic!("expected the report, got {other:?}"),
        }
        assert!(d.linked_extensions().is_empty());
    }
}
