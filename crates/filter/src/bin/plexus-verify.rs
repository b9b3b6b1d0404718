//! `plexus-verify` — command-line linter for extension specs and guards.
//!
//! Reads one or more `.spec` files, checks the declared imports/refs/
//! exports against the interfaces the file declares, and — when the file
//! describes a guard — compiles it and runs the static verifier with the
//! declared policy. With `--explain`, prints what the verifier *derived*:
//! the static worst-case cycle bound, the declared map state against its
//! budget, and any lints with their instruction offsets. With
//! `--lint-all <dir>`, checks every `*.spec` directly in `dir` (no
//! recursion, so a `bad/` subdirectory of deliberately-rejected examples
//! is skipped) and fails if any file rejects **or lints**.
//!
//! Exit codes: `0` all clean, `1` at least one file rejected, `2` usage
//! error, `3` everything verified but at least one lint fired.
//!
//! File format (line-based, `#` comments):
//!
//! ```text
//! name         Video
//! signature    typesafe | trusted | unsigned
//! interface    UDP: PacketRecv Send        # a known interface + symbols
//! import       UDP.PacketRecv
//! ref          UDP.PacketRecv              # a symbol the body references
//! export       Frame
//! map          flows bucket 4096 8 2       # token buckets: cap tokens +per-ms
//! map          hits counter 64             # saturating counters: cap
//! state-budget 65536                       # bytes all maps may occupy
//! guard-kind   UdpRecv
//! guard-test   field UdpDstPort == 7000
//! guard-test   field UdpDstAddr in 167772162 4294967295
//! guard-test   pay 2 w16 == 7000
//! guard-test   field UdpSrcPort take-token 4095 flows   # rate limit per flow
//! guard-test   field UdpSrcPort count 63 hits           # count per flow
//! policy       field UdpDstPort in 7000    # must be provable at accept
//! ```

use std::process::ExitCode;

use plexus_filter::{
    analyze, conjunction_stateful, verify_with_policy, EventKind, ExtensionSpec, Field, FieldKey,
    InterfaceTable, MapKind, Operand, Policy, Signature, StateMap, Test, Width,
};

#[derive(Default)]
struct ParsedSpec {
    info: ExtensionSpec,
    table: InterfaceTable,
    guard_kind: Option<EventKind>,
    guard_tests: Vec<Test>,
    maps: Vec<StateMap>,
    state_budget: u32,
    policy: Policy,
    has_policy: bool,
}

fn parse_field(name: &str) -> Result<Field, String> {
    use Field::*;
    Ok(match name {
        "EthDst" => EthDst,
        "EthSrc" => EthSrc,
        "EthType" => EthType,
        "FrameLen" => FrameLen,
        "IpSrc" => IpSrc,
        "IpDst" => IpDst,
        "IpProto" => IpProto,
        "IpPayloadLen" => IpPayloadLen,
        "UdpSrcAddr" => UdpSrcAddr,
        "UdpDstAddr" => UdpDstAddr,
        "UdpSrcPort" => UdpSrcPort,
        "UdpDstPort" => UdpDstPort,
        "UdpPayloadLen" => UdpPayloadLen,
        "TcpSrcAddr" => TcpSrcAddr,
        "TcpDstAddr" => TcpDstAddr,
        "TcpSrcPort" => TcpSrcPort,
        "TcpDstPort" => TcpDstPort,
        "TcpFlagSyn" => TcpFlagSyn,
        "TcpFlagAck" => TcpFlagAck,
        "TcpPayloadLen" => TcpPayloadLen,
        other => return Err(format!("unknown field {other}")),
    })
}

fn parse_kind(name: &str) -> Result<EventKind, String> {
    Ok(match name {
        "EthRecv" => EventKind::EthRecv,
        "IpRecv" => EventKind::IpRecv,
        "UdpRecv" => EventKind::UdpRecv,
        "TcpRecv" => EventKind::TcpRecv,
        other => return Err(format!("unknown event kind {other}")),
    })
}

fn parse_width(name: &str) -> Result<Width, String> {
    Ok(match name {
        "w8" => Width::W8,
        "w16" => Width::W16,
        "w32" => Width::W32,
        other => return Err(format!("unknown width {other}")),
    })
}

fn parse_num<T: std::str::FromStr>(word: &str, what: &str) -> Result<T, String> {
    word.parse().map_err(|_| format!("bad {what} {word}"))
}

/// Parses `field <Name>` or `pay <off> <width>` from the front of `words`,
/// returning the operand and the remaining words.
fn parse_operand<'a>(words: &'a [&'a str]) -> Result<(Operand, &'a [&'a str]), String> {
    match words {
        ["field", name, rest @ ..] => Ok((Operand::Field(parse_field(name)?), rest)),
        ["pay", off, width, rest @ ..] => Ok((
            Operand::Pay {
                off: parse_num(off, "offset")?,
                width: parse_width(width)?,
            },
            rest,
        )),
        _ => Err("expected `field <Name>` or `pay <off> <width>`".to_string()),
    }
}

fn parse_values(words: &[&str]) -> Result<Vec<u64>, String> {
    if words.is_empty() {
        return Err("expected at least one value".to_string());
    }
    words.iter().map(|w| parse_num(w, "value")).collect()
}

fn operand_key(op: Operand) -> FieldKey {
    match op {
        Operand::Field(f) => FieldKey::Field(f),
        Operand::Pay { off, width } => FieldKey::Pay(off, width),
    }
}

/// Resolves a map name declared by a `map` line to its index.
fn map_id(maps: &[StateMap], name: &str) -> Result<u16, String> {
    maps.iter()
        .position(|m| m.name() == name)
        .map(|i| i as u16)
        .ok_or_else(|| format!("unknown map {name} (declare it with a `map` line first)"))
}

fn parse_spec(text: &str) -> Result<ParsedSpec, String> {
    let mut spec = ParsedSpec::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        let words: Vec<&str> = rest.split_whitespace().collect();
        match keyword {
            "name" => spec.info.name = rest.to_string(),
            "signature" => {
                spec.info.signature = match rest {
                    "typesafe" => Signature::TypesafeCompiler,
                    "trusted" => Signature::TrustedVendor,
                    "unsigned" => Signature::Unsigned,
                    other => return Err(err(format!("unknown signature {other}"))),
                }
            }
            "interface" => {
                let (iface, syms) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `interface Name: Sym ...`".into()))?;
                let iface = iface.trim().to_string();
                let symbols: Vec<String> = syms
                    .split_whitespace()
                    .map(|s| format!("{iface}.{s}"))
                    .collect();
                spec.table.insert(iface, symbols);
            }
            "import" => spec.info.imports.push(rest.to_string()),
            "ref" => spec.info.refs.push(rest.to_string()),
            "export" => spec.info.exports.push(rest.to_string()),
            "map" => {
                let (name, kind) = match words.as_slice() {
                    [name, "counter", cap] => (
                        *name,
                        (
                            MapKind::Counter,
                            parse_num::<u32>(cap, "capacity").map_err(err)?,
                        ),
                    ),
                    [name, "bucket", cap, tokens, refill] => (
                        *name,
                        (
                            MapKind::TokenBucket {
                                tokens: parse_num(tokens, "token count").map_err(err)?,
                                refill_per_ms: parse_num(refill, "refill rate").map_err(err)?,
                            },
                            parse_num::<u32>(cap, "capacity").map_err(err)?,
                        ),
                    ),
                    _ => {
                        return Err(err("expected `map <name> counter <cap>` or \
                             `map <name> bucket <cap> <tokens> <refill/ms>`"
                            .into()))
                    }
                };
                spec.maps.push(StateMap::new(name, kind.0, kind.1));
            }
            "state-budget" => spec.state_budget = parse_num(rest, "byte budget").map_err(err)?,
            "guard-kind" => spec.guard_kind = Some(parse_kind(rest).map_err(err)?),
            "guard-test" => {
                let (op, tail) = parse_operand(&words).map_err(err)?;
                let test = match tail {
                    ["==", value] => Test::eq(op, parse_num(value, "value").map_err(err)?),
                    ["in", values @ ..] => Test::one_of(op, parse_values(values).map_err(err)?),
                    ["take-token", mask, map] => Test::TakeToken {
                        op,
                        mask: parse_num(mask, "mask").map_err(err)?,
                        map: map_id(&spec.maps, map).map_err(err)?,
                    },
                    ["count", mask, map] => Test::Count {
                        op,
                        mask: parse_num(mask, "mask").map_err(err)?,
                        map: map_id(&spec.maps, map).map_err(err)?,
                    },
                    _ => {
                        return Err(err(
                            "expected `== <v>`, `in <v>...`, `take-token <mask> <map>`, \
                             or `count <mask> <map>`"
                                .into(),
                        ))
                    }
                };
                spec.guard_tests.push(test);
            }
            "policy" => {
                let (op, tail) = parse_operand(&words).map_err(err)?;
                let values = match tail {
                    ["==", value] => vec![parse_num(value, "value").map_err(err)?],
                    ["in", values @ ..] => parse_values(values).map_err(err)?,
                    _ => return Err(err("expected `== <v>` or `in <v>...`".into())),
                };
                spec.policy = std::mem::take(&mut spec.policy).require_in(operand_key(op), values);
                spec.has_policy = true;
            }
            other => return Err(err(format!("unknown keyword {other}"))),
        }
    }
    if spec.info.name.is_empty() {
        return Err("spec is missing a `name` line".to_string());
    }
    Ok(spec)
}

/// What one file's check amounted to, for the process exit code.
#[derive(Clone, Copy, Default)]
struct Outcome {
    rejected: bool,
    lints: usize,
}

fn check_file(path: &str, explain: bool) -> Result<Outcome, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;

    let mut out = Outcome::default();
    println!("== {path} ({}) ==", spec.info.name);

    let report = analyze(&spec.table, &spec.info);
    if report.is_clean() {
        println!("spec: clean ({} import(s))", spec.info.imports.len());
    } else {
        out.rejected = true;
        print!("spec: {report}");
    }

    if !spec.guard_tests.is_empty() || spec.guard_kind.is_some() {
        let kind = spec
            .guard_kind
            .ok_or_else(|| format!("{path}: guard-test without guard-kind"))?;
        let program = conjunction_stateful(
            kind,
            &spec.guard_tests,
            Vec::new(),
            spec.maps,
            spec.state_budget,
        );
        match verify_with_policy(&program, &spec.policy) {
            Ok(vp) => {
                out.lints = vp.lints().len();
                println!(
                    "guard: verified ({} insn(s), worst-case bound {} cycle(s), {} lint(s){})",
                    vp.program().insns.len(),
                    vp.static_bound(),
                    out.lints,
                    if spec.has_policy {
                        ", policy proven"
                    } else {
                        ""
                    }
                );
                if explain {
                    println!(
                        "explain: static worst-case bound: {} cycle(s)",
                        vp.static_bound()
                    );
                    let cs = vp.compiled().stats();
                    println!(
                        "explain: compiled: {} thunk(s), {} folded const(s), \
                         {} fused state op(s), {} fused load(s)",
                        cs.thunks, cs.folded_consts, cs.fused_state_ops, cs.fused_loads
                    );
                    let prog = vp.program();
                    if prog.maps.is_empty() {
                        println!("explain: state: none declared");
                    } else {
                        println!(
                            "explain: state: {} B of {} B budget",
                            vp.state_bytes(),
                            prog.state_budget
                        );
                        for m in &prog.maps {
                            println!(
                                "explain:   map {}: {}[{}] = {} B",
                                m.name(),
                                m.kind(),
                                m.capacity(),
                                m.state_bytes()
                            );
                        }
                    }
                    if vp.lints().is_empty() {
                        println!("explain: lints: none");
                    } else {
                        for lint in vp.lints() {
                            println!("explain: lint: {lint}");
                        }
                    }
                } else {
                    for lint in vp.lints() {
                        println!("guard: lint: {lint}");
                    }
                }
            }
            Err(report) => {
                out.rejected = true;
                print!("guard: {report}");
            }
        }
    }
    Ok(out)
}

/// `*.spec` files directly inside `dir`, sorted. Deliberately
/// non-recursive: `bad/` holds examples that are *supposed* to reject.
fn specs_in_dir(dir: &str) -> Result<Vec<String>, String> {
    let mut paths: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {dir}: {e}"))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.is_file() && path.extension().is_some_and(|e| e == "spec"))
                .then(|| path.to_string_lossy().into_owned())
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .spec files in {dir}"));
    }
    Ok(paths)
}

fn main() -> ExitCode {
    let mut explain = false;
    let mut lint_all: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => explain = true,
            "--lint-all" => match args.next() {
                Some(dir) => lint_all = Some(dir),
                None => {
                    eprintln!("--lint-all requires a directory");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}");
                return ExitCode::from(2);
            }
            _ => paths.push(arg),
        }
    }
    if let Some(dir) = lint_all {
        match specs_in_dir(&dir) {
            Ok(found) => paths.extend(found),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if paths.is_empty() {
        eprintln!("usage: plexus-verify [--explain] <spec-file>... | --lint-all <dir>");
        return ExitCode::from(2);
    }

    let mut rejected = false;
    let mut lints = 0usize;
    for path in &paths {
        match check_file(path, explain) {
            Ok(out) => {
                rejected |= out.rejected;
                lints += out.lints;
            }
            Err(e) => {
                eprintln!("error: {e}");
                rejected = true;
            }
        }
    }
    if rejected {
        ExitCode::FAILURE
    } else if lints > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateful_spec_parses_and_verifies_with_a_bound() {
        let spec = parse_spec(
            "name         RL\n\
             map          flows bucket 64 8 2\n\
             state-budget 1024\n\
             guard-kind   UdpRecv\n\
             guard-test   field UdpDstPort == 9000\n\
             guard-test   field UdpSrcPort take-token 63 flows\n",
        )
        .unwrap();
        assert_eq!(spec.maps.len(), 1);
        assert_eq!(spec.state_budget, 1024);
        let program = conjunction_stateful(
            spec.guard_kind.unwrap(),
            &spec.guard_tests,
            Vec::new(),
            spec.maps,
            spec.state_budget,
        );
        let vp = verify_with_policy(&program, &Policy::new()).unwrap();
        // Ld+Jne (3) + Ld+And+MTake+Jne (11) + Accept (1).
        assert_eq!(vp.static_bound(), 14);
        assert_eq!(vp.state_bytes(), 1024);
        assert!(vp.lints().is_empty());
        // The compiled tier --explain reports: the pinned-port test fuses
        // into a load-and-branch thunk and the token take fuses its And
        // mask into a direct slot op.
        let cs = vp.compiled().stats();
        assert!(cs.fused_loads >= 1, "{cs:?}");
        assert_eq!(cs.fused_state_ops, 1, "{cs:?}");
        assert!(cs.thunks < vp.program().insns.len() as u32);
    }

    #[test]
    fn count_tests_resolve_maps_by_name() {
        let spec = parse_spec(
            "name         C\n\
             map          a counter 4\n\
             map          b counter 4\n\
             state-budget 64\n\
             guard-kind   UdpRecv\n\
             guard-test   field UdpSrcPort count 3 b\n",
        )
        .unwrap();
        assert!(matches!(spec.guard_tests[0], Test::Count { map: 1, .. }));
    }

    #[test]
    fn take_token_requires_a_declared_map() {
        let err = parse_spec(
            "name        RL\n\
             guard-kind  UdpRecv\n\
             guard-test  field UdpSrcPort take-token 63 flows\n",
        )
        .err()
        .expect("undeclared map must be a parse error");
        assert!(err.contains("unknown map flows"), "got: {err}");
    }

    #[test]
    fn map_lines_reject_malformed_declarations() {
        let err = parse_spec("name X\nmap flows bucket 64\n")
            .err()
            .expect("short map line must be a parse error");
        assert!(err.contains("map <name> bucket"), "got: {err}");
    }
}
