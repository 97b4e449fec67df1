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
    if v != 0.0 && !write_sci3(v, out) {
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
    write_metric_value(v, out);
    if total != 0.0 {
        let pct = 100.0 * v / total;
        out.push(' ');
        if !write_fixed1(pct, out) {
            let _ = write!(out, "{pct:>5.1}");
        }
        out.push('%');
    }
}

// The two fast paths below write what `core::fmt` would, at a fifth of
// its cost, for the values a metric pane is made of; when they cannot
// *prove* a digit they write nothing and the caller falls back to
// `write!`. The proof: scaling by an exactly representable power of ten
// is one correctly rounded operation, so the scaled value is within 2⁻⁵³
// relative (under 2e-12 absolute at the magnitudes admitted) of the true
// one, and [`round_checked`] refuses anything within 1e-6 of a tie —
// everything further from one rounds the same way under any tie rule.

/// 10⁰ ..= 10²²: the powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `0 ≤ x < 2³²` rounded to the nearest integer, or `None` when `x` is
/// too close to a tie for an approximation of it to decide.
fn round_checked(x: f64) -> Option<u32> {
    let floor = x as u32;
    let frac = x - f64::from(floor);
    ((frac - 0.5).abs() > 1e-6).then_some(floor + u32::from(frac > 0.5))
}

fn digit(d: u32) -> char {
    (b'0' + d as u8) as char
}

/// `{v:.2e}` for `1e-18 ≤ |v| < 1e21`; `false` (nothing written) otherwise
/// or when the third digit is not provable.
fn write_sci3(v: f64, out: &mut String) -> bool {
    let a = v.abs();
    if !(1e-18..1e21).contains(&a) {
        return false;
    }
    // floor(log10 a) from the binary exponent: exact or one short.
    let mut exp = (((a.to_bits() >> 52) as i32 - 1023) * 1233) >> 12;
    let scaled = |exp: i32| match exp {
        2.. => a / POW10[(exp - 2) as usize],
        _ => a * POW10[(2 - exp) as usize],
    };
    // `a` as ddd.…; a value within rounding of a power of ten may take
    // either side of it, and rounds to the same "1.00" from both.
    let mut m = scaled(exp);
    if m >= 1000.0 {
        exp += 1;
        m = scaled(exp);
    }
    let (d, exp) = match round_checked(m) {
        Some(1000) => (100, exp + 1),
        Some(d) if (100..1000).contains(&d) => (d, exp),
        _ => return false,
    };
    out.extend((v < 0.0).then_some('-'));
    out.extend([digit(d / 100), '.', digit(d / 10 % 10), digit(d % 10), 'e']);
    out.extend((exp < 0).then_some('-'));
    let exp = exp.unsigned_abs();
    out.extend((exp >= 10).then(|| digit(exp / 10)));
    out.push(digit(exp % 10));
    true
}

/// `{x:>5.1}` for `0 ≤ x < 1000`; `false` (nothing written) otherwise or
/// when the decimal is not provable.
fn write_fixed1(x: f64, out: &mut String) -> bool {
    if !(0.0..1000.0).contains(&x) || x.is_sign_negative() {
        return false;
    }
    let t = match round_checked(x * 10.0) {
        Some(tenths) if tenths < 10_000 => tenths,
        _ => return false,
    };
    let lead = |d: u32, shown: bool| if shown { digit(d) } else { ' ' };
    out.extend([lead(t / 1000, t >= 1000), lead(t / 100 % 10, t >= 100)]);
    out.extend([digit(t / 10 % 10), '.', digit(t % 10)]);
    true
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
    const BLANKS: &str = "                                ";
    let n = label.chars().count();
    if n <= width {
        out.push_str(label);
        let mut pad = width - n;
        while pad > 0 {
            let run = pad.min(BLANKS.len());
            out.push_str(&BLANKS[..run]);
            pad -= run;
        }
    } else if width >= 1 {
        out.extend(label.chars().take(width - 1));
        out.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The cells `core::fmt` writes — what the fast paths must equal.
    fn reference(v: f64, total: f64) -> (String, String) {
        if v == 0.0 {
            return (String::new(), String::new());
        }
        let plain = format!("{v:.2e}");
        if total == 0.0 {
            return (plain.clone(), plain);
        }
        (plain, format!("{v:.2e} {:>5.1}%", 100.0 * v / total))
    }

    fn assert_cells_match(v: f64, total: f64) {
        let (plain, with_percent) = reference(v, total);
        assert_eq!(metric_value(v), plain, "v = {v:e} ({:#x})", v.to_bits());
        assert_eq!(
            metric_with_percent(v, total),
            with_percent,
            "v = {v:e} ({:#x}), total = {total:e} ({:#x})",
            v.to_bits(),
            total.to_bits()
        );
    }

    #[test]
    fn cells_equal_core_fmt_on_the_edges() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            2.2e-308,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::EPSILON,
            1e-18,
            9.999e-19,
            1e21,
            9.995e20,
            0.05,
            0.25,
            0.35,
            99.95,
            999.95,
            1e15 + 0.5,
        ];
        // Rounding carries, exact ties and their neighbours, every decade
        // the fast path admits and a few it does not.
        for exp in -25..=25 {
            let p = 10f64.powi(exp);
            for m in [
                1.0, 1.005, 1.115, 1.125, 1.135, 2.5, 4.14, 9.985, 9.994999, 9.995, 9.995001, 9.999,
            ] {
                let x = m * p;
                values.extend([
                    x,
                    -x,
                    f64::from_bits(x.to_bits() - 1),
                    f64::from_bits(x.to_bits() + 1),
                ]);
            }
        }
        for &v in &values {
            for total in [
                0.0,
                1.0,
                3.0,
                1000.0,
                -7.0,
                1e-300,
                f64::NAN,
                f64::INFINITY,
                v,
                8.0 * v,
            ] {
                assert_cells_match(v, total);
            }
        }
        // Percentages on and around their own ties: 12.25 %, 0.05 %, 999.95 %.
        for (v, total) in [
            (12.25, 100.0),
            (49.0, 400.0),
            (0.0005, 1.0),
            (9.9995, 1.0),
            (1.0, 3.2),
        ] {
            assert_cells_match(v, total);
            assert_cells_match(-v, total);
            assert_cells_match(v, -total);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any bit pattern at all, as the value and as the aggregate.
        #[test]
        fn cells_equal_core_fmt_on_random_bits(v in any::<u64>(), total in any::<u64>()) {
            assert_cells_match(f64::from_bits(v), f64::from_bits(total));
        }

        /// Values a profile holds: counts scaled by periods, and shares of
        /// a total near them.
        #[test]
        fn cells_equal_core_fmt_on_metric_values(
            mantissa in 1u64..(1 << 53),
            exp in -70i32..70,
            share in 1e-6f64..20.0,
        ) {
            let v = mantissa as f64 * 2f64.powi(exp - 52);
            assert_cells_match(v, v / share);
            assert_cells_match(-v, v / share);
            assert_cells_match((mantissa % 100_000) as f64, 100_000.0);
        }
    }

    #[test]
    fn fit_pads_and_truncates() {
        assert_eq!(fit("abc", 5), "abc  ");
        assert_eq!(fit("abcdef", 4), "abc…");
        assert_eq!(fit("abcd", 4), "abcd");
        assert_eq!(fit("x", 0), "");
        // A pad wider than the blank run it is sliced from.
        assert_eq!(fit("ab", 70), format!("ab{:68}", ""));
    }

    #[test]
    fn fit_handles_multibyte() {
        assert_eq!(fit("héllo", 5), "héllo");
        assert_eq!(fit("héllowørld", 6), "héllo…");
    }
}
