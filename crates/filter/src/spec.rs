//! Extension specs and the one analysis every link runs over them.
//!
//! An [`ExtensionSpec`] is the partially resolved "object file" an
//! application hands the kernel: its name, who signed it, the symbols it
//! imports and references, and the symbols it exports. [`analyze`] checks
//! it against an [`InterfaceTable`] and reports **every** violation —
//! unresolved imports, imports the body never references (unused), body
//! references that were never imported (undeclared), duplicates,
//! self-imports, export collisions, and missing signatures. The kernel's
//! dynamic linker (`Domain::link` in `plexus-kernel`) admits a spec only
//! when this report is clean, and the `plexus-verify` command-line linter
//! prints the same report.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Who vouches for an extension's safety.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Signature {
    /// Signed by the typesafe-language compiler: memory safety is
    /// machine-checked. The only signature the kernel links.
    TypesafeCompiler,
    /// Not typesafe, but vouched for by a vendor — the paper's one
    /// exception, the commercial TCP/IP code (§4.2). The linter accepts
    /// it; the kernel's linker does not.
    TrustedVendor,
    /// No signature at all.
    #[default]
    Unsigned,
}

/// A partially resolved extension "object file": what the application
/// hands the kernel to link.
#[derive(Clone, Debug, Default)]
pub struct ExtensionSpec {
    /// Extension name (also the interface name its exports create).
    pub name: String,
    /// Who signed the object file.
    pub signature: Signature,
    /// Fully-qualified imported symbols (`"Interface.Symbol"`).
    pub imports: Vec<String>,
    /// Fully-qualified symbols the extension body references — the
    /// compiler-reported usage set the import list is checked against.
    pub refs: Vec<String>,
    /// Symbols the extension exports, bare: others import them as
    /// `"<name>.<symbol>"`.
    pub exports: Vec<String>,
}

impl ExtensionSpec {
    /// A compiler-signed (typesafe) extension whose body references
    /// exactly what it imports.
    pub fn typesafe(name: &str, imports: &[&str]) -> ExtensionSpec {
        let imports: Vec<String> = imports.iter().map(|s| s.to_string()).collect();
        ExtensionSpec {
            name: name.to_string(),
            signature: Signature::TypesafeCompiler,
            refs: imports.clone(),
            imports,
            exports: Vec::new(),
        }
    }

    /// Sets the exported symbols.
    pub fn with_exports(mut self, exports: &[&str]) -> ExtensionSpec {
        self.exports = exports.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// The set of interfaces a spec may import from: interface name to its
/// fully-qualified symbols.
#[derive(Clone, Debug, Default)]
pub struct InterfaceTable {
    interfaces: BTreeMap<String, BTreeSet<String>>,
}

impl InterfaceTable {
    /// Registers an interface and its fully-qualified symbols.
    pub fn insert(&mut self, name: impl Into<String>, symbols: impl IntoIterator<Item = String>) {
        self.interfaces
            .entry(name.into())
            .or_default()
            .extend(symbols);
    }

    /// Whether an interface with this name exists.
    pub fn has_interface(&self, name: &str) -> bool {
        self.interfaces.contains_key(name)
    }

    /// Removes an interface; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        self.interfaces.remove(name).is_some()
    }

    /// Whether the fully-qualified symbol resolves.
    fn resolves(&self, qualified: &str) -> bool {
        let Some((iface, _)) = qualified.split_once('.') else {
            return false;
        };
        self.interfaces
            .get(iface)
            .is_some_and(|syms| syms.contains(qualified))
    }
}

/// One spec lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecIssue {
    /// The spec is not signed by the type-safe compiler or a trusted
    /// vendor.
    BadSignature,
    /// An import that no known interface provides.
    UnresolvedImport {
        /// The unresolvable symbol.
        symbol: String,
    },
    /// The same symbol imported more than once.
    DuplicateImport {
        /// The repeated symbol.
        symbol: String,
    },
    /// An import the extension body never references (dead capability: it
    /// widens the extension's authority for no reason).
    UnusedImport {
        /// The unused symbol.
        symbol: String,
    },
    /// A body reference outside the import closure.
    UndeclaredReference {
        /// The referenced-but-not-imported symbol.
        symbol: String,
    },
    /// An import from the extension's own (future) interface.
    SelfImport {
        /// The self-referential symbol.
        symbol: String,
    },
    /// Linking would export an interface name that already exists.
    ExportCollision {
        /// The colliding interface name.
        interface: String,
    },
    /// The same symbol exported more than once.
    DuplicateExport {
        /// The repeated symbol.
        symbol: String,
    },
}

impl fmt::Display for SpecIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecIssue::BadSignature => {
                write!(
                    f,
                    "spec is unsigned (needs typesafe-compiler or trusted-vendor)"
                )
            }
            SpecIssue::UnresolvedImport { symbol } => {
                write!(f, "unresolved import: {symbol}")
            }
            SpecIssue::DuplicateImport { symbol } => {
                write!(f, "duplicate import: {symbol}")
            }
            SpecIssue::UnusedImport { symbol } => {
                write!(f, "unused import (dead capability): {symbol}")
            }
            SpecIssue::UndeclaredReference { symbol } => {
                write!(f, "body references {symbol} without importing it")
            }
            SpecIssue::SelfImport { symbol } => {
                write!(f, "self-import: {symbol}")
            }
            SpecIssue::ExportCollision { interface } => {
                write!(
                    f,
                    "exporting would collide with existing interface {interface}"
                )
            }
            SpecIssue::DuplicateExport { symbol } => {
                write!(f, "duplicate export: {symbol}")
            }
        }
    }
}

/// Every issue found in one spec, in discovery order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecReport {
    /// All findings.
    pub issues: Vec<SpecIssue>,
}

impl SpecReport {
    /// Whether the spec is clean.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "spec is clean");
        }
        writeln!(f, "spec check failed ({} issue(s)):", self.issues.len())?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

/// Lints `spec` against `table`, reporting every violation (never just the
/// first).
pub fn analyze(table: &InterfaceTable, spec: &ExtensionSpec) -> SpecReport {
    let mut report = SpecReport::default();

    if spec.signature == Signature::Unsigned {
        report.issues.push(SpecIssue::BadSignature);
    }

    let mut seen_imports: BTreeSet<&str> = BTreeSet::new();
    for import in &spec.imports {
        if !seen_imports.insert(import) {
            report.issues.push(SpecIssue::DuplicateImport {
                symbol: import.clone(),
            });
            continue;
        }
        if import
            .split_once('.')
            .is_some_and(|(iface, _)| iface == spec.name)
        {
            report.issues.push(SpecIssue::SelfImport {
                symbol: import.clone(),
            });
            continue;
        }
        if !table.resolves(import) {
            report.issues.push(SpecIssue::UnresolvedImport {
                symbol: import.clone(),
            });
        }
    }

    let refs: BTreeSet<&str> = spec.refs.iter().map(String::as_str).collect();
    for import in &seen_imports {
        if !refs.contains(import) {
            report.issues.push(SpecIssue::UnusedImport {
                symbol: (*import).to_string(),
            });
        }
    }
    for reference in &refs {
        if !seen_imports.contains(reference) {
            report.issues.push(SpecIssue::UndeclaredReference {
                symbol: (*reference).to_string(),
            });
        }
    }

    if !spec.exports.is_empty() && table.has_interface(&spec.name) {
        report.issues.push(SpecIssue::ExportCollision {
            interface: spec.name.clone(),
        });
    }
    let mut seen_exports: BTreeSet<&str> = BTreeSet::new();
    for export in &spec.exports {
        if !seen_exports.insert(export) {
            report.issues.push(SpecIssue::DuplicateExport {
                symbol: export.clone(),
            });
        }
    }

    report
}
