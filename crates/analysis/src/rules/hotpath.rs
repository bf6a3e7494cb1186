//! `LCL-A01`…`A04`: purity of the engine's per-round hot path.
//!
//! The engine's performance contract (ARCHITECTURE.md, invariant 1)
//! says steady-state rounds allocate nothing: arenas are preallocated,
//! messages move by index, and a protocol `step` runs millions of times
//! per instance. The out-of-core contract adds that residency changes
//! (spill/reload) happen only between passes, never inside one. These
//! rules make both lexical: inside the designated hot functions, any
//! allocating call, lock, `unsafe` block or file I/O is a finding.
//!
//! Hot functions are the entries of `HOT_FNS` — the round loop's
//! per-round and per-node steps (pass load, region split, chunk and node
//! visits, the per-visit node context, mail logs), each message store's per-node read and write, the
//! halo capture, and the `Inbox`/`InboxIter`/`Outbox` message views —
//! plus every method of a `Protocol` impl under
//! `crates/algorithms/src/protocols/`.

use crate::lexer::{TokKind, Token};
use crate::model::FnInfo;
use crate::report::Finding;
use crate::rules::{body, macro_at, method_call_at, path_call_at};
use crate::workspace::SourceFile;

const ENGINE_FILE: &str = "crates/local/src/engine.rs";
const SHARD_STORE_FILE: &str = "crates/shard/src/store.rs";
const PROTOCOLS_DIR: &str = "crates/algorithms/src/protocols/";

/// The per-round functions, as `(file, item)`: `item` is a function's
/// qualified name (`Type::method` inside an impl), or `Type::*` for
/// every method of a type.
const HOT_FNS: &[(&str, &str)] = &[
    // The round loop's per-round and per-node steps: the pass load that
    // picks inline or fan-out, the region split, the chunk visit, the
    // node visit shared by full scans and frontier visits, the context
    // each visit builds, and the mail logs the frontier is merged from.
    (ENGINE_FILE, "pass_load"),
    (ENGINE_FILE, "split_regions"),
    (ENGINE_FILE, "step_region"),
    (ENGINE_FILE, "visit_node"),
    (ENGINE_FILE, "node_context"),
    (ENGINE_FILE, "MailLog::*"),
    // The message views every step reads and writes through.
    (ENGINE_FILE, "Inbox::*"),
    (ENGINE_FILE, "InboxIter::*"),
    (ENGINE_FILE, "Outbox::*"),
    // The slot arenas' per-node read and write.
    (ENGINE_FILE, "SlotRegion::*"),
    // The packed store's per-node read and write, and its halo capture.
    (SHARD_STORE_FILE, "PackedRegion::*"),
    (SHARD_STORE_FILE, "capture_halos"),
];

/// Methods that allocate (or can reallocate) on their receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "insert",
    "reserve",
    "extend_from_slice",
    "append",
];

/// `Type::constructor` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashMap", "with_capacity"),
    ("HashSet", "new"),
    ("HashSet", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Macros that allocate or format on every expansion.
const ALLOC_MACROS: &[&str] = &["vec", "format", "println", "eprintln", "print", "eprint"];

/// Identifiers of blocking synchronization primitives.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// File/stream methods: reading or writing spill storage mid-round would
/// serialize the round on disk latency.
const IO_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "write",
    "write_all",
    "seek",
    "flush",
    "sync_all",
    "set_len",
];

/// `Type::constructor` pairs that open file handles.
const IO_PATHS: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("File", "create_new"),
    ("OpenOptions", "new"),
];

/// The token shapes a hot-path check matches.
enum Shape {
    /// A method call `.name(`.
    Method(&'static [&'static str]),
    /// A path call `Type::name(`.
    Path(&'static [(&'static str, &'static str)]),
    /// A macro invocation `name!`.
    Macro(&'static [&'static str]),
    /// Any identifier token.
    Ident(&'static [&'static str]),
}

/// Every hot-path check: rule id, the shape it flags, what the flagged
/// token is, and why it does not belong in a round.
const CHECKS: &[(&str, Shape, &str, &str)] = &[
    (
        "LCL-A01",
        Shape::Method(ALLOC_METHODS),
        "allocating call",
        " — hot rounds must reuse preallocated buffers",
    ),
    (
        "LCL-A01",
        Shape::Path(ALLOC_PATHS),
        "allocating constructor",
        "",
    ),
    (
        "LCL-A01",
        Shape::Macro(ALLOC_MACROS),
        "allocating macro",
        "",
    ),
    (
        "LCL-A02",
        Shape::Method(&["lock"]),
        "lock acquisition",
        " — chunk ownership must make locks unnecessary",
    ),
    (
        "LCL-A02",
        Shape::Ident(LOCK_TYPES),
        "synchronization primitive",
        "",
    ),
    ("LCL-A03", Shape::Ident(&["unsafe"]), "block", ""),
    (
        "LCL-A04",
        Shape::Method(IO_METHODS),
        "I/O call",
        " — spill traffic belongs between passes, never inside one",
    ),
    (
        "LCL-A04",
        Shape::Path(IO_PATHS),
        "file handle",
        " — the spill pool is created at run start",
    ),
];

/// Whether `f` in `file` is part of the designated hot path.
#[must_use]
pub fn is_hot(file: &SourceFile, f: &FnInfo) -> bool {
    if f.in_test {
        return false;
    }
    let listed = HOT_FNS.iter().any(|&(path, item)| {
        path == file.rel
            && match item.strip_suffix("::*") {
                Some(ty) => f.impl_ctx.as_ref().is_some_and(|ctx| ctx.type_name == ty),
                None => f.qual_name == item,
            }
    });
    listed
        || file.rel.starts_with(PROTOCOLS_DIR)
            && f.impl_ctx
                .as_ref()
                .is_some_and(|ctx| ctx.trait_name.as_deref() == Some("Protocol"))
}

/// The token at `i` flagged by `shape`, with its rendering, if any.
fn flagged<'a>(toks: &'a [Token], i: usize, shape: &Shape) -> Option<(&'a Token, String)> {
    let named = |t: &Token, names: &[&str]| names.contains(&t.text.as_str());
    match shape {
        Shape::Method(names) => method_call_at(toks, i)
            .filter(|m| named(m, names))
            .map(|m| (m, format!(".{}(…)", m.text))),
        Shape::Path(pairs) => path_call_at(toks, i)
            .filter(|(a, b)| pairs.iter().any(|(x, y)| a.is_ident(x) && b.is_ident(y)))
            .map(|(a, b)| (a, format!("{}::{}(…)", a.text, b.text))),
        Shape::Macro(names) => macro_at(toks, i)
            .filter(|m| named(m, names))
            .map(|m| (m, format!("{}!", m.text))),
        Shape::Ident(names) => toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident && named(t, names))
            .map(|t| (t, t.text.clone())),
    }
}

/// Runs the four hot-path rules over one file.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    for f in file.model.fns.iter().filter(|f| is_hot(file, f)) {
        let toks = body(file, f);
        for i in 0..toks.len() {
            for (rule, shape, what, why) in CHECKS {
                if let Some((at, text)) = flagged(toks, i, shape) {
                    findings.push(Finding {
                        rule,
                        file: file.rel.clone(),
                        line: at.line,
                        col: at.col,
                        item: f.qual_name.clone(),
                        message: format!("{what} `{text}` in hot-path fn `{}`{why}", f.name),
                    });
                }
            }
        }
    }
}
