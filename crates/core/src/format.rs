//! Metric-value formatting for the metric pane (Section V-A).
//!
//! Two of the paper's presentation rules live here:
//!
//! * zero cells render as *blank* — "explicitly representing zeros invites
//!   the user to gaze upon cells only to find that they contain no useful
//!   information";
//! * values render "with scientific notation with simple and intuitively
//!   readable format" instead of "naively long and painful numbers", and
//!   each value is accompanied by its percentage of the column aggregate.

use std::fmt::Write as _;

/// Format a raw metric value the way hpcviewer's metric pane does:
/// `1.23e+07` style mantissa/exponent, or blank for zero.
pub fn metric_value(v: f64) -> String {
    let mut s = String::new();
    write_metric_value(v, &mut s);
    s
}

/// [`metric_value`] writing into an existing buffer — the renderer's
/// per-row hot path reuses one buffer instead of allocating per cell.
pub fn write_metric_value(v: f64, out: &mut String) {
    if v != 0.0 {
        let _ = write!(out, "{v:.2e}");
    }
}

/// Append a value together with its percentage of `total`:
/// `1.23e+07 41.4%`. Zero values are blank; a zero total suppresses the
/// percentage.
pub fn write_metric_with_percent(v: f64, total: f64, out: &mut String) {
    if v == 0.0 {
        return;
    }
    if total == 0.0 {
        return write_metric_value(v, out);
    }
    let _ = write!(out, "{v:.2e} {:>5.1}%", 100.0 * v / total);
}

/// Format a percentage alone (used by derived ratio columns such as
/// relative efficiency).
pub fn percent(fraction: f64) -> String {
    if fraction == 0.0 {
        return String::new();
    }
    format!("{:.1}%", 100.0 * fraction)
}

/// Append a label right-padded or truncated to a fixed display width,
/// with an ellipsis when truncated. Keeps the tabular layout aligned
/// without pulling in a full terminal-width library.
pub fn write_fit(label: &str, width: usize, out: &mut String) {
    let n = label.chars().count();
    if n <= width {
        out.push_str(label);
        for _ in n..width {
            out.push(' ');
        }
    } else if width >= 1 {
        out.extend(label.chars().take(width - 1));
        out.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_with_percent(v: f64, total: f64) -> String {
        let mut s = String::new();
        write_metric_with_percent(v, total, &mut s);
        s
    }

    fn fit(label: &str, width: usize) -> String {
        let mut s = String::new();
        write_fit(label, width, &mut s);
        s
    }

    #[test]
    fn zero_is_blank() {
        assert_eq!(metric_value(0.0), "");
        assert_eq!(metric_with_percent(0.0, 100.0), "");
        assert_eq!(percent(0.0), "");
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(metric_value(12_345_678.0), "1.23e7");
        assert_eq!(metric_value(0.00321), "3.21e-3");
        assert_eq!(metric_value(-42.0), "-4.20e1");
    }

    #[test]
    fn value_with_percent() {
        let s = metric_with_percent(414.0, 1000.0);
        assert!(s.starts_with("4.14e2"));
        assert!(s.ends_with("41.4%"), "{s}");
    }

    #[test]
    fn percent_of_zero_total_omitted() {
        assert_eq!(metric_with_percent(5.0, 0.0), "5.00e0");
    }

    #[test]
    fn fit_pads_and_truncates() {
        assert_eq!(fit("abc", 5), "abc  ");
        assert_eq!(fit("abcdef", 4), "abc…");
        assert_eq!(fit("abcd", 4), "abcd");
        assert_eq!(fit("x", 0), "");
    }

    #[test]
    fn fit_handles_multibyte() {
        assert_eq!(fit("héllo", 5), "héllo");
        assert_eq!(fit("héllowørld", 6), "héllo…");
    }
}
