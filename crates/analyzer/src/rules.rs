//! The protocol-soundness rule set.
//!
//! Every rule is grounded in a defect class that breaks the paper's
//! guarantees (validity, agreement, `O(ℓn + κ·n²·log²n)` bits for
//! `t < n/3`) if it reaches a message-handling path:
//!
//! | rule             | defect class                                         |
//! |------------------|------------------------------------------------------|
//! | `panic-path`     | honest party aborts on byzantine input               |
//! | `unbounded-alloc`| attacker-claimed length drives allocation            |
//! | `nondeterminism` | runs are not reproducible under the simulator        |
//! | `wire-cast`      | silent truncation of decoded values                  |
//! | `unsafe-audit`   | memory-safety escape hatch in consensus code         |
//! | `trace-discipline` | ad-hoc stdout/stderr output instead of `ca-trace`  |
//! | `bounded-channels` | unbounded queue lets a flooding peer exhaust memory |

use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};

/// Context the engine hands to each rule for one file.
#[derive(Debug, Clone)]
pub struct FileContext<'a> {
    /// Package name owning the file (e.g. `ca-codec`).
    pub crate_name: &'a str,
    /// Workspace-relative path, used in diagnostics.
    pub path: &'a str,
    /// Whether the file is test/bench/example code (integration tests,
    /// benches, examples). `#[cfg(test)]` modules inside source files are
    /// masked separately by the engine.
    pub is_test_code: bool,
}

/// A named, documented analysis rule.
pub struct Rule {
    /// Stable rule name (used in pragmas and `--rule` filters).
    pub name: &'static str,
    /// Default severity of findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub description: &'static str,
    /// Crates the rule applies to; empty slice means every crate.
    pub scope: &'static [&'static str],
    /// Whether the rule also applies to test/bench/example code.
    pub check_test_code: bool,
    /// The checker: pushes diagnostics for `tokens` (comment tokens
    /// included; `masked[i] == true` marks tokens inside `#[cfg(test)]`
    /// modules).
    pub check: fn(&FileContext<'_>, &[Token<'_>], &[bool], &mut Vec<Diagnostic>),
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule").field("name", &self.name).finish()
    }
}

/// Message-handling crates: code here processes bytes an adversary chose.
const MESSAGE_CRATES: &[&str] = &["ca-codec", "ca-core", "ca-ba", "ca-net"];

/// Crates that must behave identically across runs under the synchronous
/// simulator (protocol logic, substrates, and both transports).
const DETERMINISTIC_CRATES: &[&str] = &[
    "ca-codec",
    "ca-bits",
    "ca-crypto",
    "ca-erasure",
    "ca-core",
    "ca-ba",
    "ca-net",
    "ca-async",
    "ca-runtime",
    "ca-engine",
];

/// Crates whose allocations may be driven by decoded wire lengths.
const WIRE_ALLOC_CRATES: &[&str] = &["ca-codec", "ca-runtime"];

/// Crates where all observability goes through `ca-trace`: protocol and
/// substrate code must never write to stdout/stderr directly (the bench
/// harness, the analyzer, and the trace CLI itself are the reporting
/// surfaces and stay out of scope).
const TRACED_CRATES: &[&str] = &[
    "ca-bits",
    "ca-codec",
    "ca-crypto",
    "ca-erasure",
    "ca-net",
    "ca-adversary",
    "ca-ba",
    "ca-core",
    "ca-async",
    "ca-runtime",
    "ca-engine",
];

/// Crates whose internal queues must be bounded: the engine's
/// backpressure guarantees and the TCP runtime's crash tolerance hold
/// only if no channel can grow without limit under a flooding peer or a
/// stalled consumer. The protocol crates (`ca-core`, `ca-ba`) are held
/// to the same bar since the fault-adaptive fast path made them
/// consumers of transport fault estimates: buffering between the
/// optimistic attempt and the fallback must never be open-ended.
/// `ca-async` joins the list because its executor queue and per-instance
/// buffers (RBC echo/ready tallies, pending witness sets) grow with
/// network input; every such structure must carry an explicit bound or a
/// `ca-budget` annotation. `ca-net` hosts the lock-step executor core
/// whose submit and deliver queues the simulator and the engine share.
const BOUNDED_QUEUE_CRATES: &[&str] = &[
    "ca-engine",
    "ca-runtime",
    "ca-core",
    "ca-ba",
    "ca-async",
    "ca-net",
];

/// The full rule registry, in reporting order.
#[must_use]
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            name: "panic-path",
            severity: Severity::Error,
            description: "no unwrap/expect/panic!-family macros (and, in ca-codec, no slice \
                          indexing) in message-handling crates: honest parties must not abort \
                          on byzantine input",
            scope: MESSAGE_CRATES,
            check_test_code: false,
            check: check_panic_path,
        },
        Rule {
            name: "unbounded-alloc",
            severity: Severity::Error,
            description: "Vec::with_capacity/reserve in wire-decoding crates must clamp the \
                          requested size (literal, .min(..), .clamp(..), or MAX_DECODE_CAPACITY)",
            scope: WIRE_ALLOC_CRATES,
            check_test_code: false,
            check: check_unbounded_alloc,
        },
        Rule {
            name: "nondeterminism",
            severity: Severity::Error,
            description: "no HashMap/HashSet, Instant::now, SystemTime::now, or thread_rng in \
                          deterministic protocol/simulator paths",
            scope: DETERMINISTIC_CRATES,
            check_test_code: false,
            check: check_nondeterminism,
        },
        Rule {
            name: "wire-cast",
            severity: Severity::Warn,
            description: "no bare `as` narrowing casts in ca-codec: decoded values must be \
                          converted with try_from or an explicit mask",
            scope: &["ca-codec"],
            check_test_code: false,
            check: check_wire_cast,
        },
        Rule {
            name: "trace-discipline",
            severity: Severity::Error,
            description: "no println!/eprintln!/print!/eprint! in protocol or substrate crates: \
                          runs must stay quiet and observable only through ca-trace sinks",
            scope: TRACED_CRATES,
            check_test_code: false,
            check: check_trace_discipline,
        },
        Rule {
            name: "bounded-channels",
            severity: Severity::Error,
            description: "no unbounded channel constructors (mpsc::channel, unbounded, \
                          unbounded_channel) in the engine, TCP runtime, or protocol \
                          crates: every queue must have a fixed depth so backpressure, \
                          not memory, absorbs overload",
            scope: BOUNDED_QUEUE_CRATES,
            check_test_code: false,
            check: check_bounded_channels,
        },
        Rule {
            name: "unsafe-audit",
            severity: Severity::Error,
            description: "workspace-wide `unsafe` inventory; deny by default",
            scope: &[],
            check_test_code: true,
            check: check_unsafe_audit,
        },
    ]
}

/// Looks a rule up by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.name == name)
}

fn diag(
    rule: &'static str,
    severity: Severity,
    ctx: &FileContext<'_>,
    line: u32,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        rule,
        severity,
        file: ctx.path.to_owned(),
        line,
        message,
    });
}

/// Significant (non-comment) token before index `i`, if any.
fn prev_code<'a, 'src>(tokens: &'a [Token<'src>], i: usize) -> Option<&'a Token<'src>> {
    tokens[..i].iter().rev().find(|t| !t.is_comment())
}

/// Significant (non-comment) token after index `i`, if any.
fn next_code<'a, 'src>(tokens: &'a [Token<'src>], i: usize) -> Option<&'a Token<'src>> {
    tokens[i + 1..].iter().find(|t| !t.is_comment())
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Keywords that may directly precede `[` without forming an index
/// expression (e.g. `impl Decode for [u8; N]`, `return [a, b]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "for", "in", "as", "if", "else", "match", "return", "impl", "where", "dyn", "mut", "ref",
    "move", "box", "break", "type", "const", "static", "let", "fn", "loop", "while", "use", "pub",
    "struct", "enum", "trait", "unsafe", "yield",
];

fn check_panic_path(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] || tok.kind != TokenKind::Ident {
            // Slice indexing is a punct check, handled below.
            if ctx.crate_name == "ca-codec"
                && !masked[i]
                && tok.kind == TokenKind::Punct
                && tok.text == "["
            {
                let Some(prev) = prev_code(tokens, i) else {
                    continue;
                };
                let is_index_base = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if is_index_base {
                    diag(
                        "panic-path",
                        Severity::Error,
                        ctx,
                        tok.line,
                        format!(
                            "slice indexing `{}[..]` can panic on adversarial input; use \
                             .get()/.get_mut() and propagate a CodecError",
                            prev.text
                        ),
                        out,
                    );
                }
            }
            continue;
        }
        if PANIC_METHODS.contains(&tok.text) {
            let is_method_call = prev_code(tokens, i).is_some_and(|p| p.text == ".")
                && next_code(tokens, i).is_some_and(|n| n.text == "(");
            if is_method_call {
                diag(
                    "panic-path",
                    Severity::Error,
                    ctx,
                    tok.line,
                    format!(
                        ".{}() aborts the party on byzantine input; return an error or \
                         document the invariant with a ca-lint pragma",
                        tok.text
                    ),
                    out,
                );
            }
        } else if PANIC_MACROS.contains(&tok.text) {
            let is_macro = next_code(tokens, i).is_some_and(|n| n.text == "!")
                && prev_code(tokens, i).is_none_or(|p| p.text != ".");
            if is_macro {
                diag(
                    "panic-path",
                    Severity::Error,
                    ctx,
                    tok.line,
                    format!(
                        "{}! aborts the party; handlers must fail closed, not crash",
                        tok.text
                    ),
                    out,
                );
            }
        }
    }
}

/// Idents inside a `with_capacity`/`reserve` argument list that mark the
/// size as clamped.
const CLAMP_MARKERS: &[&str] = &["min", "clamp", "MAX_DECODE_CAPACITY"];

fn check_unbounded_alloc(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i]
            || tok.kind != TokenKind::Ident
            || (tok.text != "with_capacity" && tok.text != "reserve")
        {
            continue;
        }
        if next_code(tokens, i).is_none_or(|n| n.text != "(") {
            continue;
        }
        // A *definition* named `with_capacity`/`reserve` is not a call.
        if prev_code(tokens, i).is_some_and(|p| p.text == "fn") {
            continue;
        }
        // Collect the argument tokens up to the matching close paren.
        let mut depth = 0i32;
        let mut arg_tokens: Vec<&Token<'_>> = Vec::new();
        for t in &tokens[i + 1..] {
            if t.is_comment() {
                continue;
            }
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if depth >= 1 && t.text != "(" {
                arg_tokens.push(t);
            }
        }
        let all_const = !arg_tokens.is_empty()
            && arg_tokens.iter().all(|t| {
                t.kind == TokenKind::Number
                    || matches!(
                        t.text,
                        "<" | ">" | "+" | "*" | "-" | "usize" | "u64" | "u32" | "as"
                    )
            });
        let clamped = arg_tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && CLAMP_MARKERS.contains(&t.text));
        if !all_const && !clamped {
            diag(
                "unbounded-alloc",
                Severity::Error,
                ctx,
                tok.line,
                format!(
                    "{}(..) sized by a value that is not visibly clamped; cap it with \
                     .min(MAX_DECODE_CAPACITY) (or justify with a ca-lint pragma)",
                    tok.text
                ),
                out,
            );
        }
    }
}

fn check_nondeterminism(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text {
            "HashMap" | "HashSet" => diag(
                "nondeterminism",
                Severity::Error,
                ctx,
                tok.line,
                format!(
                    "{} iteration order is randomized per process; use BTreeMap/BTreeSet (or \
                     index by PartyId into a Vec) so honest parties behave identically",
                    tok.text
                ),
                out,
            ),
            "Instant" | "SystemTime" => {
                let calls_now = next_code(tokens, i).is_some_and(|n| n.text == ":")
                    && tokens[i + 1..]
                        .iter()
                        .filter(|t| !t.is_comment())
                        .take(3)
                        .any(|t| t.text == "now");
                if calls_now {
                    diag(
                        "nondeterminism",
                        Severity::Error,
                        ctx,
                        tok.line,
                        format!(
                            "{}::now() reads the wall clock; inject a Clock so simulated runs \
                             are reproducible",
                            tok.text
                        ),
                        out,
                    );
                }
            }
            "thread_rng" | "from_entropy" => diag(
                "nondeterminism",
                Severity::Error,
                ctx,
                tok.line,
                format!(
                    "{} produces unseeded randomness; derive an explicit seed instead",
                    tok.text
                ),
                out,
            ),
            _ => {}
        }
    }
}

/// Integer types a bare `as` must not narrow into inside ca-codec.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

fn check_wire_cast(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] || tok.kind != TokenKind::Ident || tok.text != "as" {
            continue;
        }
        let Some(target) = next_code(tokens, i) else {
            continue;
        };
        if target.kind == TokenKind::Ident && NARROW_TARGETS.contains(&target.text) {
            diag(
                "wire-cast",
                Severity::Warn,
                ctx,
                tok.line,
                format!(
                    "bare `as {}` silently truncates; use try_from (decoded values) or mask \
                     explicitly and justify with a ca-lint pragma",
                    target.text
                ),
                out,
            );
        }
    }
}

/// Macros that write to stdout/stderr.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

fn check_trace_discipline(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] || tok.kind != TokenKind::Ident || !PRINT_MACROS.contains(&tok.text) {
            continue;
        }
        // Macro invocation only: `println!(..)` — a local named `print`
        // or a path segment is not an output statement.
        let is_macro = next_code(tokens, i).is_some_and(|n| n.text == "!")
            && prev_code(tokens, i).is_none_or(|p| p.text != ".");
        if is_macro {
            diag(
                "trace-discipline",
                Severity::Error,
                ctx,
                tok.line,
                format!(
                    "{}! writes to the process streams from protocol code; emit a ca-trace \
                     event (Note/Input/Decide) through the Comm trace hooks instead",
                    tok.text
                ),
                out,
            );
        }
    }
}

/// Constructor idents that always build an unbounded queue.
const UNBOUNDED_CTORS: &[&str] = &["unbounded", "unbounded_channel"];

fn check_bounded_channels(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        // A constructor is used when followed by `(` (call) or `::`
        // (turbofish); a bare mention or a field/binding named like one
        // (single `:`) is not.
        let used = {
            let mut next = tokens[i + 1..].iter().filter(|t| !t.is_comment());
            match next.next() {
                Some(n) if n.text == "(" => true,
                Some(n) if n.text == ":" => next.next().is_some_and(|n2| n2.text == ":"),
                _ => false,
            }
        };
        if !used {
            continue;
        }
        if UNBOUNDED_CTORS.contains(&tok.text) {
            diag(
                "bounded-channels",
                Severity::Error,
                ctx,
                tok.line,
                format!(
                    "{}() creates a queue with no depth limit; use a bounded channel \
                     (sync_channel) sized from EngineConfig so overload sheds instead of \
                     accumulating",
                    tok.text
                ),
                out,
            );
        } else if tok.text == "channel" {
            // `mpsc::channel` (std or tokio) is the unbounded constructor;
            // `sync_channel` is the bounded one and stays allowed.
            let after_mpsc = {
                let mut prev = tokens[..i].iter().rev().filter(|t| !t.is_comment());
                prev.next().is_some_and(|p| p.text == ":")
                    && prev.next().is_some_and(|p| p.text == ":")
                    && prev.next().is_some_and(|p| p.text == "mpsc")
            };
            if after_mpsc {
                diag(
                    "bounded-channels",
                    Severity::Error,
                    ctx,
                    tok.line,
                    "mpsc::channel() is unbounded; use mpsc::sync_channel(depth) with a depth \
                     derived from EngineConfig"
                        .to_owned(),
                    out,
                );
            }
        }
    }
}

fn check_unsafe_audit(
    ctx: &FileContext<'_>,
    tokens: &[Token<'_>],
    _masked: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for tok in tokens {
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            diag(
                "unsafe-audit",
                Severity::Error,
                ctx,
                tok.line,
                "`unsafe` in consensus code must be individually audited and justified with a \
                 ca-lint pragma"
                    .to_owned(),
                out,
            );
        }
    }
}
