//! Derived metrics: spreadsheet-like formulas over metric columns
//! (Section V-D).
//!
//! A derived metric is defined by a formula that refers to other columns
//! with `$n` (the value of column *n* at the current scope) and `@n` (the
//! aggregate/root value of column *n*, convenient for "percent of total"
//! metrics). The paper's running example is floating-point **waste**:
//!
//! ```text
//! waste = $cyc * peak_flops_per_cycle - $fp_ops
//! ```
//!
//! and its companion **relative efficiency** `$fp_ops / ($cyc * peak)`.
//!
//! The grammar (implemented by a hand-written recursive-descent parser):
//!
//! ```text
//! expr    := term  (('+' | '-') term)*
//! term    := factor (('*' | '/') factor)*
//! factor  := unary ('^' factor)?                 // right-associative
//! unary   := '-' unary | primary
//! primary := NUMBER | '$' INT | '@' INT
//!          | IDENT '(' expr (',' expr)* ')'
//!          | '(' expr ')'
//! ```
//!
//! Functions: `min`, `max` (n-ary), `sqrt`, `abs`, `ln`, `exp`, `floor`,
//! `ceil`.
//!
//! [`evaluate`] is the one evaluator of a derived column over a tree:
//! `Experiment::add_derived` and a lazily opened database's column fault
//! both call it, and it reads only the columns the formula references.

use crate::ids::ColumnId;
use crate::metrics::{ColumnSet, MetricVec};
use std::fmt;

/// Parsed formula AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// `$n`: per-scope value of column n.
    Col(u32),
    /// `@n`: aggregate (root) value of column n.
    Agg(u32),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division (yields 0 on a zero divisor — see [`Expr::eval`]).
    Div(Box<Expr>, Box<Expr>),
    /// Exponentiation (right-associative).
    Pow(Box<Expr>, Box<Expr>),
    /// A built-in function application.
    Call(Func, Vec<Expr>),
}

/// Built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// N-ary minimum.
    Min,
    /// N-ary maximum.
    Max,
    /// Square root (clamped at 0 for negative inputs).
    Sqrt,
    /// Absolute value.
    Abs,
    /// Natural log (0 for non-positive inputs).
    Ln,
    /// Exponential.
    Exp,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
}

impl Func {
    fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "min" => Func::Min,
            "max" => Func::Max,
            "sqrt" => Func::Sqrt,
            "abs" => Func::Abs,
            "ln" => Func::Ln,
            "exp" => Func::Exp,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            _ => return None,
        })
    }

    fn arity_ok(self, n: usize) -> bool {
        match self {
            Func::Min | Func::Max => n >= 1,
            _ => n == 1,
        }
    }
}

impl fmt::Display for Expr {
    /// Pretty-print with minimal parentheses; `Expr::parse ∘ to_string` is
    /// the identity on the AST (property-tested).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl Expr {
    /// Precedence levels: 0 add/sub, 1 mul/div, 2 pow, 3 unary/primary.
    fn prec(&self) -> u8 {
        match self {
            Expr::Add(..) | Expr::Sub(..) => 0,
            Expr::Mul(..) | Expr::Div(..) => 1,
            Expr::Pow(..) => 2,
            Expr::Neg(..) => 3,
            _ => 4,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let prec = self.prec();
        let paren = prec < min;
        if paren {
            write!(f, "(")?;
        }
        match self {
            Expr::Num(v) => write!(f, "{v}")?,
            Expr::Col(i) => write!(f, "${i}")?,
            Expr::Agg(i) => write!(f, "@{i}")?,
            Expr::Neg(e) => {
                write!(f, "-")?;
                e.fmt_prec(f, 4)?;
            }
            Expr::Add(a, b) => {
                a.fmt_prec(f, 0)?;
                write!(f, " + ")?;
                // Right operand needs one level more to keep left
                // associativity unambiguous (a - (b + c) etc.).
                b.fmt_prec(f, 1)?;
            }
            Expr::Sub(a, b) => {
                a.fmt_prec(f, 0)?;
                write!(f, " - ")?;
                b.fmt_prec(f, 1)?;
            }
            Expr::Mul(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " * ")?;
                b.fmt_prec(f, 2)?;
            }
            Expr::Div(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " / ")?;
                b.fmt_prec(f, 2)?;
            }
            Expr::Pow(a, b) => {
                // Right-associative: the base needs more than pow level.
                a.fmt_prec(f, 3)?;
                write!(f, " ^ ")?;
                b.fmt_prec(f, 2)?;
            }
            Expr::Call(func, args) => {
                let name = match func {
                    Func::Min => "min",
                    Func::Max => "max",
                    Func::Sqrt => "sqrt",
                    Func::Abs => "abs",
                    Func::Ln => "ln",
                    Func::Exp => "exp",
                    Func::Floor => "floor",
                    Func::Ceil => "ceil",
                };
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")?;
            }
        }
        if paren {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Formula parse/analysis error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormulaError {
    /// Byte offset of the error in the formula source.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "formula error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for FormulaError {}

/// Values a formula reads: per-scope column values and column aggregates.
pub trait EvalContext {
    /// Per-scope value of column `idx`.
    fn column(&self, idx: u32) -> f64;
    /// Whole-program (`@`) value of column `idx`.
    fn aggregate(&self, idx: u32) -> f64;
}

/// Convenience context backed by two slices.
pub struct SliceContext<'a> {
    /// Per-scope column values, indexed by column id.
    pub columns: &'a [f64],
    /// Column aggregates, indexed by column id.
    pub aggregates: &'a [f64],
}

impl EvalContext for SliceContext<'_> {
    fn column(&self, idx: u32) -> f64 {
        self.columns.get(idx as usize).copied().unwrap_or(0.0)
    }

    fn aggregate(&self, idx: u32) -> f64 {
        self.aggregates.get(idx as usize).copied().unwrap_or(0.0)
    }
}

impl Expr {
    /// Parse a formula.
    pub fn parse(src: &str) -> Result<Expr, FormulaError> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let e = p.expr()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("unexpected trailing input"));
        }
        Ok(e)
    }

    /// Evaluate against a context. Division by zero yields 0 rather than
    /// infinity: a ratio over an absent (zero) metric means "no data", and
    /// propagating infinities would wreck sorting and summaries.
    pub fn eval(&self, ctx: &dyn EvalContext) -> f64 {
        match self {
            Expr::Num(v) => *v,
            Expr::Col(i) => ctx.column(*i),
            Expr::Agg(i) => ctx.aggregate(*i),
            Expr::Neg(e) => -e.eval(ctx),
            Expr::Add(a, b) => a.eval(ctx) + b.eval(ctx),
            Expr::Sub(a, b) => a.eval(ctx) - b.eval(ctx),
            Expr::Mul(a, b) => a.eval(ctx) * b.eval(ctx),
            Expr::Div(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx) / d
                }
            }
            Expr::Pow(a, b) => a.eval(ctx).powf(b.eval(ctx)),
            Expr::Call(f, args) => {
                let vals: Vec<f64> = args.iter().map(|a| a.eval(ctx)).collect();
                match f {
                    Func::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
                    Func::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    Func::Sqrt => vals[0].max(0.0).sqrt(),
                    Func::Abs => vals[0].abs(),
                    Func::Ln => {
                        if vals[0] > 0.0 {
                            vals[0].ln()
                        } else {
                            0.0
                        }
                    }
                    Func::Exp => vals[0].exp(),
                    Func::Floor => vals[0].floor(),
                    Func::Ceil => vals[0].ceil(),
                }
            }
        }
    }

    /// Every `$n` / `@n` column index the formula references. Used to
    /// validate that a derived metric only refers to existing columns and to
    /// order evaluation of chained derived metrics.
    pub fn references(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_refs(&self, out: &mut Vec<u32>) {
        match self {
            Expr::Num(_) => {}
            Expr::Col(i) | Expr::Agg(i) => out.push(*i),
            Expr::Neg(e) => e.collect_refs(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_refs(out);
                }
            }
        }
    }
}

/// The derived column `expr` over a tree of `n_nodes` nodes, reading the
/// columns it references from `columns` (faulting a lazily backed one
/// into its slot; no other column is read), which must not include the
/// column being computed, and `@n` from `aggregates`.
///
/// A formula that is zero where all its inputs are is evaluated only on
/// the union of their non-zeros; one that is not (`$0 + 1`, or a NaN
/// like 0 × ∞) at every node. A zero of either sign is stored as
/// nothing, and the entries take the shape [`MetricVec::from_sorted`]
/// picks.
pub fn evaluate(expr: &Expr, columns: &ColumnSet, aggregates: &[f64], n_nodes: usize) -> MetricVec {
    let refs = expr.references();
    let mut cursors: Vec<_> = refs
        .iter()
        .map(|&r| columns.vec(ColumnId(r)).nonzero_sorted().peekable())
        .collect();
    let mut row = vec![0.0; refs.last().map_or(0, |&r| r as usize + 1)];
    let eval = |row: &[f64]| {
        expr.eval(&SliceContext {
            columns: row,
            aggregates,
        })
    };
    let everywhere = eval(&row) != 0.0;
    let mut out = Vec::new();
    let mut node = 0;
    loop {
        if !everywhere {
            let heads = cursors.iter_mut().filter_map(|it| it.peek());
            match heads.map(|&(k, _)| k).min() {
                Some(k) => node = k,
                None => break,
            }
        }
        if node as usize >= n_nodes {
            break;
        }
        for (&r, it) in refs.iter().zip(&mut cursors) {
            row[r as usize] = it.next_if(|&(k, _)| k == node).map_or(0.0, |(_, v)| v);
        }
        let v = eval(&row);
        if v != 0.0 {
            out.push((node, v));
        }
        node += 1;
    }
    MetricVec::from_sorted(out, n_nodes)
}

/// Parse `formula` as a derived column to follow `existing` columns,
/// whose whole-program values are `aggregates`: every reference must name
/// one of them. Returns the formula and its own whole-program (`@`)
/// value, the formula over the aggregates.
pub fn parse_column(
    formula: &str,
    existing: usize,
    aggregates: &[f64],
) -> Result<(Expr, f64), FormulaError> {
    let expr = Expr::parse(formula)?;
    if let Some(&bad) = expr.references().iter().find(|&&r| r as usize >= existing) {
        return Err(FormulaError {
            pos: 0,
            message: format!("formula references non-existent column ${bad}"),
        });
    }
    let total = expr.eval(&SliceContext {
        columns: aggregates,
        aggregates,
    });
    Ok((expr, total))
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> FormulaError {
        FormulaError {
            pos: self.pos,
            message: msg.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            self.skip_ws();
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.term()?;
        loop {
            if self.eat(b'+') {
                let rhs = self.term()?;
                lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat(b'-') {
                let rhs = self.term()?;
                lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat(b'*') {
                let rhs = self.factor()?;
                lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
            } else if self.eat(b'/') {
                let rhs = self.factor()?;
                lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, FormulaError> {
        let base = self.unary()?;
        if self.eat(b'^') {
            let exp = self.factor()?; // right-associative
            return Ok(Expr::Pow(Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr, FormulaError> {
        if self.eat(b'-') {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, FormulaError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                self.skip_ws();
                let e = self.expr()?;
                if !self.eat(b')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some(b'$') => {
                self.pos += 1;
                Ok(Expr::Col(self.integer()?))
            }
            Some(b'@') => {
                self.pos += 1;
                Ok(Expr::Agg(self.integer()?))
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.call(),
            _ => Err(self.err("expected a number, '$n', '@n', function or '('")),
        }
    }

    fn integer(&mut self) -> Result<u32, FormulaError> {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a column index"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let v = text
            .parse::<u32>()
            .map_err(|_| self.err("column index out of range"))?;
        self.skip_ws();
        Ok(v)
    }

    fn number(&mut self) -> Result<Expr, FormulaError> {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_digit()
                || self.src[self.pos] == b'.'
                || self.src[self.pos] == b'e'
                || self.src[self.pos] == b'E'
                || ((self.src[self.pos] == b'+' || self.src[self.pos] == b'-')
                    && self.pos > start
                    && matches!(self.src[self.pos - 1], b'e' | b'E')))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let v = text
            .parse::<f64>()
            .map_err(|_| self.err("malformed number"))?;
        self.skip_ws();
        Ok(Expr::Num(v))
    }

    fn call(&mut self) -> Result<Expr, FormulaError> {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .to_owned();
        self.skip_ws();
        let func = Func::from_name(&name)
            .ok_or_else(|| self.err(&format!("unknown function '{name}'")))?;
        if !self.eat(b'(') {
            return Err(self.err("expected '(' after function name"));
        }
        let mut args = vec![self.expr()?];
        while self.eat(b',') {
            args.push(self.expr()?);
        }
        if !self.eat(b')') {
            return Err(self.err("expected ')'"));
        }
        if !func.arity_ok(args.len()) {
            return Err(self.err(&format!("wrong number of arguments for '{name}'")));
        }
        Ok(Expr::Call(func, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str, cols: &[f64]) -> f64 {
        let aggs: Vec<f64> = cols.iter().map(|c| c * 100.0).collect();
        Expr::parse(src).unwrap().eval(&SliceContext {
            columns: cols,
            aggregates: &aggs,
        })
    }

    #[test]
    fn precedence_and_associativity() {
        assert_eq!(eval("1+2*3", &[]), 7.0);
        assert_eq!(eval("(1+2)*3", &[]), 9.0);
        assert_eq!(eval("2^3^2", &[]), 512.0, "pow is right-associative");
        assert_eq!(eval("10-3-2", &[]), 5.0, "sub is left-associative");
        assert_eq!(eval("8/4/2", &[]), 1.0);
        assert_eq!(eval("-2^2", &[]), 4.0, "unary binds the base");
    }

    #[test]
    fn column_and_aggregate_refs() {
        assert_eq!(eval("$0 + $1", &[3.0, 4.0]), 7.0);
        assert_eq!(eval("$1 / @1", &[0.0, 5.0]), 5.0 / 500.0);
        assert_eq!(eval("$9", &[1.0]), 0.0, "missing columns read as zero");
    }

    #[test]
    fn waste_metric_formula() {
        // waste = cycles * peak_flops_per_cycle - fp_ops
        let cols = [1000.0, 800.0]; // $0 = cycles, $1 = fp ops
        assert_eq!(eval("$0 * 4 - $1", &cols), 3200.0);
        // relative efficiency = fp_ops / (cycles * peak)
        assert!((eval("$1 / ($0 * 4)", &cols) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn functions() {
        assert_eq!(eval("min(3, 1, 2)", &[]), 1.0);
        assert_eq!(eval("max($0, 10)", &[3.0]), 10.0);
        assert_eq!(eval("sqrt(16)", &[]), 4.0);
        assert_eq!(eval("abs(-5)", &[]), 5.0);
        assert_eq!(eval("floor(2.7) + ceil(2.1)", &[]), 5.0);
        assert!((eval("ln(exp(1))", &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        assert_eq!(eval("1/0", &[]), 0.0);
        assert_eq!(eval("$0 / $1", &[5.0, 0.0]), 0.0);
    }

    #[test]
    fn guarded_math_functions() {
        assert_eq!(eval("sqrt(0-4)", &[]), 0.0);
        assert_eq!(eval("ln(0)", &[]), 0.0);
    }

    #[test]
    fn scientific_literals() {
        assert_eq!(eval("1e3 + 2.5E-1", &[]), 1000.25);
    }

    #[test]
    fn whitespace_tolerant() {
        assert_eq!(eval("  $0   *  ( 2 + 3 ) ", &[2.0]), 10.0);
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("1 +").is_err());
        assert!(Expr::parse("(1").is_err());
        assert!(Expr::parse("$").is_err());
        assert!(Expr::parse("foo(1)").is_err());
        assert!(Expr::parse("sqrt(1,2)").is_err(), "arity check");
        assert!(Expr::parse("1 2").is_err(), "trailing input");
    }

    #[test]
    fn references_collects_all_columns() {
        let e = Expr::parse("$3 + @1 * min($3, $0)").unwrap();
        assert_eq!(e.references(), vec![0, 1, 3]);
    }

    /// The per-node loop `Experiment::add_derived` ran before
    /// [`evaluate`], every existing column read at every node, against
    /// it: the same shape and the same bits.
    #[test]
    fn evaluate_matches_the_every_node_loop_bit_for_bit() {
        use crate::metrics::{ColumnDesc, ColumnFlavor};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let formulas = [
            "$0 * 4 - $3",
            "$0 + 1",         // a constant term: a value at every node
            "$2 / $0",        // `/` guards a zero divisor: zero off `$0`
            "$1 * exp(1000)", // 0 × ∞ is NaN, not zero: every node
            "-$0",            // −0.0 off `$0`, stored as nothing
            "max($1, $2) - $1 + $3 / @0",
        ];
        let shape = |v: &MetricVec| {
            let bits = v.nonzero_sorted().map(|(n, x)| (n, x.to_bits()));
            (matches!(v, MetricVec::Dense(_)), bits.collect::<Vec<_>>())
        };
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_nodes = rng.gen_range(1..400usize);
            let mut columns = ColumnSet::new();
            // Sparse and dense inputs, overlapping.
            for p in [0.01, 0.1, 0.5, 0.9].map(|p: f64| p.powi(seed as i32 % 3)) {
                let entries = (0..n_nodes as u32).filter_map(|n| {
                    let v = rng.gen_range(-5.0..5.0f64).round() * 1.5;
                    (rng.gen_bool(p) && v != 0.0).then_some((n, v))
                });
                let flavor = ColumnFlavor::Inclusive(crate::ids::MetricId(0));
                let desc = ColumnDesc {
                    name: String::new(),
                    flavor,
                    visible: true,
                };
                columns.add_column_with(desc, MetricVec::from_sorted(entries.collect(), n_nodes));
            }
            let aggregates = [rng.gen_range(1.0..9.0f64), 2.0, 3.0, 4.0];
            for src in formulas {
                let expr = Expr::parse(src).unwrap();
                let entries = (0..n_nodes as u32).filter_map(|n| {
                    let row: Vec<f64> = columns.columns().map(|c| columns.get(c, n)).collect();
                    let v = expr.eval(&SliceContext {
                        columns: &row,
                        aggregates: &aggregates,
                    });
                    (v != 0.0).then_some((n, v))
                });
                let want = MetricVec::from_sorted(entries.collect(), n_nodes);
                let got = evaluate(&expr, &columns, &aggregates, n_nodes);
                assert_eq!(shape(&got), shape(&want), "seed {seed}: {src}");
                let count = got.nonzero_count();
                match src {
                    "$0 + 1" | "$1 * exp(1000)" => assert_eq!(count, n_nodes, "{src}"),
                    "-$0" => assert_eq!(count, columns.vec(ColumnId(0)).nonzero_count()),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn ast_roundtrips_through_parse() {
        let e = Expr::parse("$0*4 - $1").unwrap();
        assert_eq!(
            e,
            Expr::Sub(
                Box::new(Expr::Mul(Box::new(Expr::Col(0)), Box::new(Expr::Num(4.0)))),
                Box::new(Expr::Col(1)),
            )
        );
    }
}
