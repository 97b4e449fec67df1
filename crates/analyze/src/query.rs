//! The query language: typed predicate expressions over a CCT and its
//! presentation columns, in the spirit of hatchet's dataframe filters.
//!
//! ## Syntax
//!
//! ```text
//! query  := or
//! or     := and ( 'or' and )*
//! and    := unary ( 'and' unary )*
//! unary  := 'not' unary | 'subtree' '(' or ')' | '(' or ')' | atom
//! atom   := field '~' "regex"            field := proc|module|file|label
//!         | colref cmp number [ '%' ]    cmp   := > | >= | < | <=
//! colref := incl("metric") | excl("metric") | col("column name")
//! ```
//!
//! `incl("cycles")` names the presentation column `cycles (I)`,
//! `excl(…)` the `(E)` twin, `col(…)` any column by its exact name
//! (derived columns, ensemble stat columns like `cycles mean (I)`).
//! A trailing `%` compares against that percentage of the column's
//! whole-program aggregate instead of an absolute value, e.g.
//! `incl("cycles") >= 10%`. `subtree(q)` matches every node whose
//! subtree (itself included) contains a match of `q`.
//!
//! ## Laziness
//!
//! Evaluation reads *only* the presentation columns an atom names —
//! `ColumnSet::find` does not fault, `ColumnSet::get` faults exactly
//! the named column, and aggregates are stored totals. The raw-metric
//! side of a lazily opened database is never touched, which is what the
//! lazy-fault accounting tests pin.
//!
//! ## What a `~` atom costs
//!
//! A profile refers to the same few names from all of its nodes, so a
//! `proc` / `module` / `file` atom runs the matcher once per distinct
//! name id its nodes refer to and answers each node with a table load
//! (`analyze.rex_evals` counts the matcher calls). `label ~` matches
//! per node: a label carries a line number.
//!
//! ## Determinism
//!
//! A predicate is one loop over the nodes per atom — an atom's work is
//! a load or a compare per node, too little to divide — so there is no
//! thread count to vary. Hits are ordered by score descending with node
//! id as the tie-break.

use crate::rex::Rex;
use callpath_core::cct::Cct;
use callpath_core::experiment::Experiment;
use callpath_core::ids::{ColumnId, FileId, LoadModuleId, NodeId, ProcId};
use callpath_core::jsonval::{obj, Json};
use callpath_core::metrics::ColumnSet;
use callpath_core::scope::ScopeKind;
use callpath_core::viewtree::SortDir;

/// Longest accepted query text, in bytes.
pub const MAX_QUERY: usize = 8 * 1024;
/// Deepest accepted predicate nesting.
const MAX_DEPTH: u32 = 64;

/// Which textual attribute of a node a `~` predicate matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Procedure name of a frame (inlined frames included); non-frames
    /// never match.
    Proc,
    /// Load-module name of a dynamic frame.
    Module,
    /// Source file: a frame's definition file, a loop's header file, a
    /// statement's file.
    File,
    /// The rendered row label (what the viewer shows).
    Label,
}

/// How an atom names a column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColSel {
    /// `incl("m")` → column `m (I)`.
    Incl(String),
    /// `excl("m")` → column `m (E)`.
    Excl(String),
    /// `col("name")` → exact column name.
    Named(String),
}

impl ColSel {
    /// Resolve against a column set **without faulting** anything.
    pub fn resolve(&self, columns: &ColumnSet) -> Result<ColumnId, String> {
        let name = match self {
            ColSel::Incl(m) => format!("{m} (I)"),
            ColSel::Excl(m) => format!("{m} (E)"),
            ColSel::Named(n) => n.clone(),
        };
        columns
            .find(&name)
            .ok_or_else(|| format!("unknown column '{name}'"))
    }
}

/// Comparison operator of a metric atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

/// Right-hand side of a metric atom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rhs {
    /// An absolute value.
    Const(f64),
    /// `N%`: N percent of the column's whole-program aggregate.
    PercentOfAgg(f64),
}

/// A parsed predicate.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `field ~ "regex"`.
    Match {
        /// The attribute matched.
        field: Field,
        /// Compiled pattern.
        rex: Rex,
    },
    /// `colref cmp rhs`.
    Metric {
        /// Column selector.
        col: ColSel,
        /// Operator.
        cmp: Cmp,
        /// Threshold.
        rhs: Rhs,
    },
    /// Both sides hold.
    And(Box<Pred>, Box<Pred>),
    /// Either side holds.
    Or(Box<Pred>, Box<Pred>),
    /// The side does not hold.
    Not(Box<Pred>),
    /// The node's subtree (itself included) contains a match.
    Subtree(Box<Pred>),
}

/// A parsed query: the predicate plus its source text.
#[derive(Debug, Clone)]
pub struct Query {
    /// Root predicate.
    pub pred: Pred,
    /// Source text as given.
    pub text: String,
}

/// A parse failure: byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Approximate byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query error at byte {}: {}", self.pos, self.message)
    }
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    Pct,
    LParen,
    RParen,
    Tilde,
    Cmp(Cmp),
}

fn lex(text: &str) -> Result<Vec<(usize, Tok)>, QueryError> {
    let err = |pos: usize, m: &str| QueryError {
        pos,
        message: m.to_owned(),
    };
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            b')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            b'~' => {
                toks.push((i, Tok::Tilde));
                i += 1;
            }
            b'%' => {
                toks.push((i, Tok::Pct));
                i += 1;
            }
            b'>' | b'<' => {
                let cmp = if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    if b == b'>' {
                        Cmp::Ge
                    } else {
                        Cmp::Le
                    }
                } else {
                    i += 1;
                    if b == b'>' {
                        Cmp::Gt
                    } else {
                        Cmp::Lt
                    }
                };
                toks.push((i, Tok::Cmp(cmp)));
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    let Some(&c) = bytes.get(i) else {
                        return Err(err(start, "unterminated string"));
                    };
                    match c {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            // `\"` embeds a quote; every other backslash
                            // passes through to the regex engine so
                            // `label ~ "x\.c"` needs no double-escaping.
                            if bytes.get(i + 1) == Some(&b'"') {
                                s.push('"');
                                i += 2;
                            } else {
                                s.push('\\');
                                i += 1;
                            }
                        }
                        0x00..=0x1f => return Err(err(i, "control byte in string")),
                        _ => {
                            // Copy one UTF-8 scalar.
                            let rest = &text[i..];
                            let c = rest.chars().next().ok_or_else(|| err(i, "bad UTF-8"))?;
                            s.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                toks.push((start, Tok::Str(s)));
            }
            b'0'..=b'9' | b'-' | b'.' => {
                let start = i;
                if b == b'-' {
                    i += 1;
                }
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                let token = &text[start..i];
                match token.parse::<f64>() {
                    Ok(n) if n.is_finite() => toks.push((start, Tok::Num(n))),
                    _ => return Err(err(start, &format!("invalid number '{token}'"))),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                {
                    i += 1;
                }
                toks.push((start, Tok::Ident(text[start..i].to_owned())));
            }
            _ => return Err(err(i, &format!("unexpected byte 0x{b:02x}"))),
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser

struct Parser {
    toks: Vec<(usize, Tok)>,
    at: usize,
    end: usize,
}

impl Parser {
    fn pos(&self) -> usize {
        self.toks.get(self.at).map(|(p, _)| *p).unwrap_or(self.end)
    }

    fn err(&self, message: impl Into<String>) -> QueryError {
        QueryError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|(_, t)| t.clone());
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), QueryError> {
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn parse_or(&mut self, depth: u32) -> Result<Pred, QueryError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        let mut lhs = self.parse_and(depth)?;
        while matches!(self.peek(), Some(Tok::Ident(w)) if w == "or") {
            self.at += 1;
            let rhs = self.parse_and(depth)?;
            lhs = Pred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self, depth: u32) -> Result<Pred, QueryError> {
        let mut lhs = self.parse_unary(depth)?;
        while matches!(self.peek(), Some(Tok::Ident(w)) if w == "and") {
            self.at += 1;
            let rhs = self.parse_unary(depth)?;
            lhs = Pred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, depth: u32) -> Result<Pred, QueryError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(Tok::Ident(w)) if w == "not" => {
                self.at += 1;
                Ok(Pred::Not(Box::new(self.parse_unary(depth + 1)?)))
            }
            Some(Tok::Ident(w)) if w == "subtree" => {
                self.at += 1;
                self.expect(&Tok::LParen, "'(' after subtree")?;
                let inner = self.parse_or(depth + 1)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(Pred::Subtree(Box::new(inner)))
            }
            Some(Tok::LParen) => {
                self.at += 1;
                let inner = self.parse_or(depth + 1)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(inner)
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Pred, QueryError> {
        let at = self.pos();
        let Some(Tok::Ident(head)) = self.bump() else {
            return Err(QueryError {
                pos: at,
                message: "expected a predicate".into(),
            });
        };
        match head.as_str() {
            "proc" | "module" | "file" | "label" => {
                let field = match head.as_str() {
                    "proc" => Field::Proc,
                    "module" => Field::Module,
                    "file" => Field::File,
                    _ => Field::Label,
                };
                self.expect(&Tok::Tilde, "'~' after field")?;
                let pat_at = self.pos();
                let Some(Tok::Str(pat)) = self.bump() else {
                    return Err(QueryError {
                        pos: pat_at,
                        message: "expected a \"pattern\" string".into(),
                    });
                };
                let rex = Rex::compile(&pat).map_err(|m| QueryError {
                    pos: pat_at,
                    message: m,
                })?;
                Ok(Pred::Match { field, rex })
            }
            "incl" | "excl" | "col" => {
                self.expect(&Tok::LParen, "'('")?;
                let name_at = self.pos();
                let Some(Tok::Str(name)) = self.bump() else {
                    return Err(QueryError {
                        pos: name_at,
                        message: "expected a \"column\" string".into(),
                    });
                };
                self.expect(&Tok::RParen, "')'")?;
                let col = match head.as_str() {
                    "incl" => ColSel::Incl(name),
                    "excl" => ColSel::Excl(name),
                    _ => ColSel::Named(name),
                };
                let Some(Tok::Cmp(cmp)) = self.bump() else {
                    return Err(self.err("expected a comparison operator"));
                };
                let num_at = self.pos();
                let Some(Tok::Num(n)) = self.bump() else {
                    return Err(QueryError {
                        pos: num_at,
                        message: "expected a number".into(),
                    });
                };
                let rhs = if self.peek() == Some(&Tok::Pct) {
                    self.at += 1;
                    Rhs::PercentOfAgg(n)
                } else {
                    Rhs::Const(n)
                };
                Ok(Pred::Metric { col, cmp, rhs })
            }
            other => Err(QueryError {
                pos: at,
                message: format!("unknown predicate '{other}'"),
            }),
        }
    }
}

impl Query {
    /// Parse a query; every malformed or oversized input is a
    /// [`QueryError`], never a panic.
    pub fn parse(text: &str) -> Result<Query, QueryError> {
        if text.len() > MAX_QUERY {
            return Err(QueryError {
                pos: MAX_QUERY,
                message: format!("query longer than {MAX_QUERY} bytes ({})", text.len()),
            });
        }
        let toks = lex(text)?;
        if toks.is_empty() {
            return Err(QueryError {
                pos: 0,
                message: "empty query".into(),
            });
        }
        let mut p = Parser {
            toks,
            at: 0,
            end: text.len(),
        };
        let pred = p.parse_or(0)?;
        if p.at != p.toks.len() {
            return Err(p.err("trailing tokens after query"));
        }
        Ok(Query {
            pred,
            text: text.to_owned(),
        })
    }
}

// ------------------------------------------------------------ evaluation

/// A `proc` / `module` / `file` atom over a namespace of `names` ids,
/// and how often it ran the matcher. The verdict table has one entry
/// per name id: unknown until a node refers to the id, then the answer
/// `Rex::is_match` gave for that name, so every later node is a load
/// and a name no node refers to is never matched. The table lives for
/// one atom.
fn name_mask<'n>(
    kinds: impl Iterator<Item = ScopeKind>,
    rex: &Rex,
    names: usize,
    id_of: impl Fn(ScopeKind) -> Option<u32>,
    name_of: impl Fn(u32) -> &'n str,
) -> (Vec<bool>, u64) {
    let mut verdicts: Vec<Option<bool>> = vec![None; names];
    let mut evals = 0;
    let mask = kinds
        .map(|k| {
            id_of(k).is_some_and(|id| {
                *verdicts[id as usize].get_or_insert_with(|| {
                    evals += 1;
                    rex.is_match(name_of(id))
                })
            })
        })
        .collect();
    (mask, evals)
}

/// A `~` atom over every node: a name atom through [`name_mask`]; a
/// label carries a line number, so `label ~` matches per node.
fn match_mask(cct: &Cct, field: Field, rex: &Rex) -> Vec<bool> {
    let names = &cct.names;
    let topo = cct.topo();
    let kinds = cct.all_nodes().map(|n| topo.kind(n));
    let (mask, evals) = match field {
        Field::Proc => name_mask(
            kinds,
            rex,
            names.proc_count(),
            |k| k.frame_proc().map(|p| p.0),
            |id| names.proc_name(ProcId(id)),
        ),
        Field::Module => name_mask(
            kinds,
            rex,
            names.module_count(),
            |k| match k {
                ScopeKind::Frame { module, .. } => Some(module.0),
                _ => None,
            },
            |id| names.module_name(LoadModuleId(id)),
        ),
        // A frame's definition file, a loop's header file, a
        // statement's file.
        Field::File => name_mask(
            kinds,
            rex,
            names.file_count(),
            |k| match k {
                ScopeKind::Frame { def: loc, .. }
                | ScopeKind::InlinedFrame { def: loc, .. }
                | ScopeKind::Loop { header: loc }
                | ScopeKind::Stmt { loc } => Some(loc.file.0),
                ScopeKind::Root => None,
            },
            |id| names.file_name(FileId(id)),
        ),
        Field::Label => {
            let mut buf = String::new();
            let mask = kinds
                .map(|k| {
                    buf.clear();
                    k.write_label(names, &mut buf);
                    rex.is_match(&buf)
                })
                .collect();
            (mask, cct.len() as u64)
        }
    };
    callpath_obs::count("analyze.rex_evals", evals);
    mask
}

/// Evaluate `pred` over every CCT node of `exp`, returning one boolean
/// per node (arena order). Only the columns named by metric atoms are
/// read — a lazily opened database faults exactly those.
pub fn eval_mask(exp: &Experiment, pred: &Pred) -> Result<Vec<bool>, String> {
    match pred {
        Pred::Match { field, rex } => Ok(match_mask(&exp.cct, *field, rex)),
        Pred::Metric { col, cmp, rhs } => {
            let c = col.resolve(&exp.columns)?;
            let threshold = match rhs {
                Rhs::Const(v) => *v,
                Rhs::PercentOfAgg(p) => p / 100.0 * exp.aggregate(c),
            };
            Ok((0..exp.cct.len() as u32)
                .map(|n| cmp.eval(exp.columns.get(c, n), threshold))
                .collect())
        }
        Pred::And(a, b) => {
            let ma = eval_mask(exp, a)?;
            let mb = eval_mask(exp, b)?;
            Ok(ma.iter().zip(&mb).map(|(&x, &y)| x && y).collect())
        }
        Pred::Or(a, b) => {
            let ma = eval_mask(exp, a)?;
            let mb = eval_mask(exp, b)?;
            Ok(ma.iter().zip(&mb).map(|(&x, &y)| x || y).collect())
        }
        Pred::Not(a) => Ok(eval_mask(exp, a)?.into_iter().map(|x| !x).collect()),
        Pred::Subtree(a) => {
            let mut mask = eval_mask(exp, a)?;
            // Arena order guarantees parent < child, so one reverse pass
            // propagates "subtree contains a match" transitively.
            let topo = exp.cct.topo();
            for i in (1..mask.len()).rev() {
                if mask[i] {
                    if let Some(p) = topo.parent(NodeId(i as u32)) {
                        mask[p.0 as usize] = true;
                    }
                }
            }
            Ok(mask)
        }
    }
}

/// Root-to-node labels of `n`'s calling context, the synthetic root
/// excluded — the evidence-path rendering shared with the detectors.
pub fn path_labels(exp: &Experiment, n: NodeId) -> Vec<String> {
    let mut path: Vec<NodeId> = exp.cct.ancestors(n).collect();
    path.reverse();
    path.push(n);
    // Labels are written into one buffer and copied out at their exact
    // size: a hit deep in the tree has a hundred of them.
    let mut buf = String::new();
    path.iter()
        .filter(|&&p| p != exp.cct.root())
        .map(|&p| {
            buf.clear();
            exp.cct.kind(p).write_label(&exp.cct.names, &mut buf);
            buf.clone()
        })
        .collect()
}

/// One matched node.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    /// CCT node id.
    pub node: u32,
    /// Score (value of the score column at this node).
    pub score: f64,
    /// Root-to-node labels (root excluded).
    pub path: Vec<String>,
}

/// The result of [`run_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Query text.
    pub query: String,
    /// Name of the score column (empty if the experiment has none).
    pub score_col: String,
    /// Total number of matched nodes (before `top` truncation).
    pub matched: usize,
    /// Total number of CCT nodes evaluated.
    pub nodes: usize,
    /// Top hits, score descending, node id ascending on ties.
    pub hits: Vec<QueryHit>,
}

impl QueryReport {
    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("query", Json::Str(self.query.clone())),
            ("score_col", Json::Str(self.score_col.clone())),
            ("matched", Json::Num(self.matched as f64)),
            ("nodes", Json::Num(self.nodes as f64)),
            (
                "hits",
                Json::Arr(
                    self.hits
                        .iter()
                        .map(|h| {
                            obj(vec![
                                ("node", Json::Num(h.node as f64)),
                                ("score", Json::Num(crate::finite(h.score))),
                                (
                                    "path",
                                    Json::Arr(h.path.iter().cloned().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deterministic human-readable form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query matched {} of {} nodes (score: {})",
            self.matched,
            self.nodes,
            if self.score_col.is_empty() {
                "none"
            } else {
                &self.score_col
            }
        );
        for h in &self.hits {
            let _ = writeln!(
                out,
                "  {:>12}  {}",
                crate::fmt_num(h.score),
                if h.path.is_empty() {
                    "<program root>".to_owned()
                } else {
                    h.path.join(" > ")
                }
            );
        }
        out
    }
}

/// Parse and evaluate `text` over `exp`, scoring matches by
/// `score_col` (an exact column name; defaults to the first column) and
/// keeping the `top` best. The last argument, once a thread count,
/// selects nothing.
pub fn run_query(
    exp: &Experiment,
    text: &str,
    score_col: Option<&str>,
    top: usize,
    _threads: usize,
) -> Result<QueryReport, String> {
    let _span = callpath_obs::span("analyze.query");
    let q = Query::parse(text).map_err(|e| e.to_string())?;
    let mask = eval_mask(exp, &q.pred)?;
    let score_c = match score_col {
        Some(name) => Some(
            exp.columns
                .find(name)
                .ok_or_else(|| format!("unknown score column '{name}'"))?,
        ),
        None => {
            if exp.columns.column_count() > 0 {
                Some(ColumnId(0))
            } else {
                None
            }
        }
    };
    let mut scored: Vec<(u32, f64)> = mask
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .map(|(n, _)| {
            let n = n as u32;
            (n, score_c.map(|c| exp.columns.get(c, n)).unwrap_or(0.0))
        })
        .collect();
    let matched = scored.len();
    scored.sort_by(|a, b| SortDir::Descending.cmp_values(a.1, b.1).then(a.0.cmp(&b.0)));
    scored.truncate(top);
    let hits = scored
        .into_iter()
        .map(|(n, score)| QueryHit {
            node: n,
            score,
            path: path_labels(exp, NodeId(n)),
        })
        .collect();
    Ok(QueryReport {
        query: text.to_owned(),
        score_col: score_c
            .map(|c| exp.columns.desc(c).name.clone())
            .unwrap_or_default(),
        matched,
        nodes: exp.cct.len(),
        hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use callpath_core::metrics::{MetricDesc, RawMetrics, StorageKind};
    use callpath_core::names::{NameTable, SourceLoc};

    /// main -> { fast -> stmt, slow -> loop -> stmt } with cycles.
    fn sample() -> Experiment {
        let mut names = NameTable::new();
        let file = names.file("x.c");
        let module = names.module("x");
        let p_main = names.proc("main");
        let p_fast = names.proc("fast");
        let p_slow = names.proc("slow_solve");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let fr = |proc, line: u32, cs: Option<u32>| ScopeKind::Frame {
            proc,
            module,
            def: SourceLoc::new(file, line),
            call_site: cs.map(|l| SourceLoc::new(file, l)),
        };
        let main = cct.add_child(root, fr(p_main, 1, None));
        let fast = cct.add_child(main, fr(p_fast, 10, Some(2)));
        let slow = cct.add_child(main, fr(p_slow, 20, Some(3)));
        let sf = cct.add_child(
            fast,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 11),
            },
        );
        let lp = cct.add_child(
            slow,
            ScopeKind::Loop {
                header: SourceLoc::new(file, 21),
            },
        );
        let ss = cct.add_child(
            lp,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 22),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        raw.add_cost(cyc, sf, 100.0);
        raw.add_cost(cyc, ss, 900.0);
        Experiment::build(cct, raw, StorageKind::Csr)
    }

    fn mask(exp: &Experiment, text: &str) -> Vec<bool> {
        let q = Query::parse(text).unwrap();
        eval_mask(exp, &q.pred).unwrap()
    }

    #[test]
    fn proc_regex_hits_frames_only() {
        let exp = sample();
        let m = mask(&exp, "proc ~ \"^slow\"");
        let hits: Vec<usize> = m
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            exp.cct.kind(NodeId(hits[0] as u32)).label(&exp.cct.names),
            "slow_solve"
        );
    }

    #[test]
    fn metric_threshold_absolute_and_percent() {
        let exp = sample();
        // Inclusive cycles >= 900 : root, main, slow, loop, stmt = 5 nodes.
        let m = mask(&exp, "incl(\"cycles\") >= 900");
        assert_eq!(m.iter().filter(|&&b| b).count(), 5);
        // >= 90% of the program total — the same five nodes.
        let mp = mask(&exp, "incl(\"cycles\") >= 90%");
        assert_eq!(m, mp);
    }

    #[test]
    fn composition_matches_naive() {
        let exp = sample();
        let a = mask(&exp, "proc ~ \"a\"");
        let b = mask(&exp, "incl(\"cycles\") > 100");
        let and = mask(&exp, "proc ~ \"a\" and incl(\"cycles\") > 100");
        let or = mask(&exp, "proc ~ \"a\" or incl(\"cycles\") > 100");
        let not = mask(&exp, "not proc ~ \"a\"");
        for i in 0..a.len() {
            assert_eq!(and[i], a[i] && b[i]);
            assert_eq!(or[i], a[i] || b[i]);
            assert_eq!(not[i], !a[i]);
        }
    }

    #[test]
    fn subtree_marks_ancestors_of_matches() {
        let exp = sample();
        // Nodes whose subtree contains the slow frame: root, main, slow.
        let m = mask(&exp, "subtree(proc ~ \"^slow\")");
        let naive: Vec<bool> = exp
            .cct
            .all_nodes()
            .map(|n| {
                exp.cct.preorder(n).any(|d| {
                    matches!(exp.cct.kind(d), ScopeKind::Frame { proc, .. }
                        if exp.cct.names.proc_name(proc) == "slow_solve")
                })
            })
            .collect();
        assert_eq!(m, naive);
    }

    #[test]
    fn run_query_orders_by_score() {
        let exp = sample();
        let r = run_query(&exp, "label ~ \"x\\.c\"", Some("cycles (I)"), 2, 1).unwrap();
        assert_eq!(r.score_col, "cycles (I)");
        assert!(r.matched >= 2);
        assert_eq!(r.hits.len(), 2);
        assert!(r.hits[0].score >= r.hits[1].score);
        assert!(!r.hits[0].path.is_empty());
    }

    #[test]
    fn unknown_column_is_an_error_not_a_panic() {
        let exp = sample();
        let q = Query::parse("incl(\"nope\") > 1").unwrap();
        assert!(eval_mask(&exp, &q.pred).is_err());
        assert!(run_query(&exp, "proc ~ \"m\"", Some("nope"), 5, 1).is_err());
    }

    #[test]
    fn hostile_queries_are_errors() {
        for bad in [
            "",
            "proc ~",
            "proc ~ unquoted",
            "proc ~ \"(\"",
            "incl(\"c\") >",
            "incl(\"c\") > 1 2",
            "and and",
            "subtree(",
            "proc ~ \"a\" garbage",
            "frobnicate ~ \"a\"",
            "incl(\"c\") = 1",
            "incl(\"c\") > NaN",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = format!("{}proc ~ \"a\"{}", "(".repeat(100), ")".repeat(100));
        assert!(Query::parse(&deep).is_err(), "depth bomb rejected");
        let long = format!("proc ~ \"{}\"", "a".repeat(MAX_QUERY));
        assert!(Query::parse(&long).is_err(), "oversized query rejected");
    }
}
