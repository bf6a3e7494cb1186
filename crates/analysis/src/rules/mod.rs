//! The rule set: each rule encodes one clause of the engine contract.
//!
//! | Rule id | Enforces |
//! |---|---|
//! | `LCL-A01` | no allocation in hot-path functions |
//! | `LCL-A02` | no locks or channels in hot-path functions |
//! | `LCL-A03` | no `unsafe` in hot-path functions |
//! | `LCL-A04` | no file I/O in hot-path functions |
//! | `LCL-D01` | no order-dependent `HashMap`/`HashSet` iteration in library code |
//! | `LCL-D02` | no wall-clock (`Instant`/`SystemTime`) values in library code |
//! | `LCL-D03` | no thread-identity-dependent logic in library code |
//! | `LCL-H01` | no `unwrap`/`expect`/`panic!` in library code of the API crates |
//! | `LCL-H02` | `#[must_use]` on builder-style returns |
//! | `LCL-X01` | every `Protocol` impl is exercised by the differential suite |
//! | `LCL-X02` | every `ProblemSpec` preset appears in the plan-schema golden |
//! | `LCL-X03` | every adversarial generator is named by the churn/classify suites |
//! | `LCL-X04` | every `lcld` wire-protocol variant is round-tripped by the protocol suite |
//! | `LCL-X05` | every `ShardConfig` knob is swept by the shard differential suite |
//!
//! The *dynamic* half of the hot-path contract — that every arena slot
//! is written at most once per round, only by its owning chunk — cannot
//! be a lexical rule; it is enforced by the engine's arena
//! write-discipline checker (`EngineConfig::check_arena` /
//! the `arena-check` feature of `lcl_local`).

pub mod crosscheck;
pub mod determinism;
pub mod hotpath;
pub mod hygiene;

use crate::lexer::{TokKind, Token};
use crate::model::FnInfo;
use crate::report::Finding;
use crate::workspace::SourceFile;
use std::path::Path;

/// Rule ids with one-line descriptions, for `lcl analyze --rules`.
pub const RULES: &[(&str, &str)] = &[
    (
        "LCL-A01",
        "hot-path purity: no allocating calls in per-round/per-chunk code",
    ),
    (
        "LCL-A02",
        "hot-path purity: no locks, channels, or blocking primitives",
    ),
    ("LCL-A03", "hot-path purity: no unsafe blocks"),
    (
        "LCL-A04",
        "hot-path purity: no file I/O (spill traffic happens between passes)",
    ),
    (
        "LCL-D01",
        "determinism: no order-dependent HashMap/HashSet iteration",
    ),
    (
        "LCL-D02",
        "determinism: no Instant/SystemTime-derived values in library code",
    ),
    ("LCL-D03", "determinism: no thread-identity-dependent logic"),
    (
        "LCL-H01",
        "API hygiene: no unwrap/expect/panic! in library code (typed errors only)",
    ),
    (
        "LCL-H02",
        "API hygiene: #[must_use] on builder-style returns",
    ),
    (
        "LCL-X01",
        "cross-check: every Protocol impl runs in the differential suite",
    ),
    (
        "LCL-X02",
        "cross-check: every problem preset appears in the plan-schema golden",
    ),
    (
        "LCL-X03",
        "cross-check: every adversarial generator is named by the churn/classify suites",
    ),
    (
        "LCL-X04",
        "cross-check: every lcld wire-protocol variant is round-tripped by the protocol suite",
    ),
    (
        "LCL-X05",
        "cross-check: every ShardConfig knob is swept by the shard differential suite",
    ),
];

/// Runs every rule over the scanned workspace. `root` is used by the
/// cross-checks that consult non-Rust artifacts (the plan golden).
#[must_use]
pub fn run_all(files: &[SourceFile], root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        hotpath::check(file, &mut findings);
        determinism::check(file, &mut findings);
        hygiene::check(file, &mut findings);
    }
    crosscheck::check(files, root, &mut findings);
    findings
}

/// The body token slice of a function, or an empty slice when bodyless.
#[must_use]
pub fn body<'a>(file: &'a SourceFile, f: &FnInfo) -> &'a [Token] {
    match f.body {
        Some((start, end)) => file.toks.get(start..end).unwrap_or(&[]),
        None => &[],
    }
}

/// Matches a method call `.name(` at `i` (the `.` token) and returns
/// the method-name token.
#[must_use]
pub fn method_call_at(toks: &[Token], i: usize) -> Option<&Token> {
    if !toks.get(i)?.is_punct('.') {
        return None;
    }
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident || !toks.get(i + 2)?.is_punct('(') {
        return None;
    }
    Some(name)
}

/// Matches a path call `First::second(` at `i` and returns the two
/// path-segment tokens.
#[must_use]
pub fn path_call_at(toks: &[Token], i: usize) -> Option<(&Token, &Token)> {
    let first = toks.get(i)?;
    if first.kind != TokKind::Ident
        || !toks.get(i + 1)?.is_punct(':')
        || !toks.get(i + 2)?.is_punct(':')
    {
        return None;
    }
    let second = toks.get(i + 3)?;
    if second.kind != TokKind::Ident || !toks.get(i + 4)?.is_punct('(') {
        return None;
    }
    Some((first, second))
}

/// Matches a macro invocation `name!` at `i` and returns the name token.
#[must_use]
pub fn macro_at(toks: &[Token], i: usize) -> Option<&Token> {
    let name = toks.get(i)?;
    if name.kind == TokKind::Ident && toks.get(i + 1)?.is_punct('!') {
        Some(name)
    } else {
        None
    }
}

/// The index just past a balanced group opened at `open_idx` (which
/// must hold the opening delimiter), or `toks.len()` at EOF.
#[must_use]
pub fn skip_balanced(toks: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while let Some(t) = toks.get(i) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}
