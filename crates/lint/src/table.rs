//! The preload's symbol table, read from its source.
//!
//! `crates/preload` declares its C surface once, as the one invocation of
//! its `interpose!` macro: one row per alias family,
//!
//! ```text
//! fn NAME | NAME…(PARAMS) -> RET = ERR [, chk_fail if CHECK];
//!     [via CLASS] => |BIND| BODY;
//! ```
//!
//! then `!NAME | … = "why";` lines naming the spellings it leaves alone on
//! purpose. Each NAME expands to an interposed `extern "C"` symbol that
//! runs CHECK, then CLASS, then — when CLASS finds nothing of the shim's —
//! the next definition of NAME; BODY runs only past that passthrough. A
//! row without a CLASS runs BODY at once, and BODY makes the next-symbol
//! call itself. The call graph ([`crate::callgraph::Graph`]) turns each
//! name into a function node in that order, so the passes check what the
//! generated symbol does; the preload's tests read the names.

use crate::lexer::{scrub, Line};
use std::ops::Range;

/// The line that opens the table: the macro's invocation.
const OPENING: &str = "interpose! {";

/// The symbol table of one source file.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// The rows, in source order.
    pub rows: Vec<Row>,
    /// Spellings libc exports that the shim leaves alone on purpose.
    pub not_interposed: Vec<NotInterposed>,
}

/// One row: an alias family sharing a C signature and a body.
#[derive(Debug, Clone)]
pub struct Row {
    /// The family's names, each one interposed symbol.
    pub names: Vec<String>,
    /// 0-based line of the row's `fn`.
    pub line: usize,
    /// 0-based line of the row's last code.
    pub end: usize,
    /// What runs before the passthrough — the fortify check, the class —
    /// as `(line, code)` pieces.
    pub(crate) before: Vec<(usize, String)>,
    /// Line of the passthrough (the class's `=>`); `None` without a class.
    pub(crate) passthrough: Option<usize>,
    /// The body, as `(line, code)` pieces.
    pub(crate) body: Vec<(usize, String)>,
}

/// A `!NAME | … = "why";` line.
#[derive(Debug, Clone)]
pub struct NotInterposed {
    /// The spellings.
    pub names: Vec<String>,
    /// Why the shim leaves them alone.
    pub reason: String,
}

/// The table of `src`, if it has one.
pub fn read_source(src: &str) -> Option<Table> {
    read(&scrub(src))
}

/// The table of a scrubbed file, if it has one.
pub fn read(lines: &[Line]) -> Option<Table> {
    let first = lines.iter().position(|l| l.code.trim() == OPENING)? + 1;
    let body = Body::new(&lines[first..], first);
    let mut table = Table::default();
    let mut stmts = body.statements().into_iter();
    while let Some(stmt) = stmts.next() {
        let text = &body.text[stmt.clone()];
        if let Some(names) = text.strip_prefix('!') {
            let eq = names.find('=').unwrap_or(names.len());
            table.not_interposed.push(NotInterposed {
                names: split_names(&names[..eq]),
                reason: body.literal(lines, stmt.start + 1 + eq),
            });
            continue;
        }
        let Some(head) = text.strip_prefix("fn ") else {
            continue;
        };
        let open = head.find('(').unwrap_or(head.len());
        let check = crate::find_word(text, "chk_fail").map(|at| {
            let cond = at + text[at..].find(" if ").map_or(0, |i| i + 4);
            stmt.start + cond..stmt.end
        });
        let Some(arm) = stmts.next() else {
            break;
        };
        let arrow = body.arrow(arm.clone());
        let class = body.text[arm.clone()]
            .strip_prefix("via ")
            .map(|_| arm.start + 4..arrow);
        let mut before = check.map(|c| body.pieces(c)).unwrap_or_default();
        before.extend(class.clone().map(|c| body.pieces(c)).unwrap_or_default());
        table.rows.push(Row {
            names: split_names(&head[..open]),
            line: body.line_of(stmt.start),
            end: body.line_of(arm.end),
            before,
            passthrough: class.map(|_| body.line_of(arrow)),
            body: body.pieces(arrow + 2..arm.end),
        });
    }
    Some(table)
}

fn split_names(s: &str) -> Vec<String> {
    s.split('|').map(|n| n.trim().to_string()).collect()
}

/// The invocation's code as one string, each line's code then `\n`.
struct Body {
    text: String,
    /// Byte offset in `text` at which each line starts.
    starts: Vec<usize>,
    /// 0-based file line of the first.
    first: usize,
}

impl Body {
    fn new(lines: &[Line], first: usize) -> Body {
        let mut text = String::new();
        let mut starts = Vec::with_capacity(lines.len());
        for l in lines {
            starts.push(text.len());
            text.push_str(&l.code);
            text.push('\n');
        }
        Body {
            text,
            starts,
            first,
        }
    }

    fn line_of(&self, byte: usize) -> usize {
        self.first + self.starts.partition_point(|&s| s <= byte) - 1
    }

    /// The `;`-separated statements at the invocation's top level, up to
    /// its closing brace, trimmed.
    fn statements(&self) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let (mut depth, mut from) = (0i32, 0usize);
        for (i, c) in self.text.char_indices() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' if depth == 0 => break,
                ')' | ']' | '}' => depth -= 1,
                ';' if depth == 0 => {
                    out.push(self.trim(from..i));
                    from = i + 1;
                }
                _ => {}
            }
        }
        out
    }

    fn trim(&self, r: Range<usize>) -> Range<usize> {
        let s = &self.text[r.clone()];
        let start = r.start + (s.len() - s.trim_start().len());
        start..start + s.trim().len()
    }

    /// The first `=>` at depth 0 in `r`: a row's arm, after its class.
    fn arrow(&self, r: Range<usize>) -> usize {
        let mut depth = 0i32;
        let s = &self.text[r.clone()];
        for (i, c) in s.char_indices() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth -= 1,
                '=' if depth == 0 && s[i..].starts_with("=>") => return r.start + i,
                _ => {}
            }
        }
        r.start
    }

    /// `r` as `(line, code)` pieces, one per line it spans, blank ones left
    /// out.
    fn pieces(&self, r: Range<usize>) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let mut at = r.start;
        for piece in self.text[r].split('\n') {
            if !piece.trim().is_empty() {
                out.push((self.line_of(at), piece.to_string()));
            }
            at += piece.len() + 1;
        }
        out
    }

    /// The contents of the first string literal from byte `from` on, read
    /// from the raw line (the scrubbed one has them blanked).
    fn literal(&self, lines: &[Line], from: usize) -> String {
        let Some(q) = self.text[from..].find('"').map(|q| from + q) else {
            return String::new();
        };
        let line = self.line_of(q);
        let col = self.text[self.starts[line - self.first]..q].chars().count();
        lines[line]
            .raw
            .chars()
            .skip(col + 1)
            .take_while(|&c| c != '"')
            .collect()
    }
}
