//! Shared infrastructure for the table/figure regenerator binaries.
//!
//! Every binary prints one artifact of the paper's evaluation:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table3` | component gate counts + approximation error |
//! | `table4` | benchmarks 1–4 without pre-processing |
//! | `table5` | benchmarks 1–4 with pre-processing + improvement |
//! | `table6` | DeepSecure vs CryptoNets per-sample comparison |
//! | `fig5`   | the sequential garbling/OT/eval pipeline timeline |
//! | `fig6`   | expected delay vs batch size with crossovers |
//!
//! Run them with `cargo run --release -p deepsecure-bench --bin <name>`.

/// Formats a gate count in engineering notation like the paper
/// (`4.31E7`).
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor() as i32;
    let mantissa = v / 10f64.powi(exp);
    format!("{mantissa:.2}E{exp}")
}

/// Formats bytes as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1.0e6)
}

/// Renders one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  ", w = w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_matches_paper_style() {
        assert_eq!(sci(4.31e7), "4.31E7");
        assert_eq!(sci(1.09e8), "1.09E8");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(16.0), "1.60E1");
    }

    #[test]
    fn mb_formats() {
        assert_eq!(mb(791_000_000), "791.00");
    }
}
