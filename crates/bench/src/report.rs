//! Text output helpers for the figure benches: series tables, ASCII
//! heatmaps, and paper-vs-measured summary lines.

/// Print a figure header.
pub fn header(fig: &str, caption: &str) {
    println!();
    println!("==================================================================");
    println!("{fig}: {caption}");
    println!("==================================================================");
}

/// Print one table of series: `x_label` column plus one column per series.
pub fn series_table(x_label: &str, xs: &[String], series: &[(&str, Vec<f64>)]) {
    print!("{x_label:>12}");
    for (name, _) in series {
        print!(" {name:>24}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, vals) in series {
            print!(" {:>24.1}", vals[i]);
        }
        println!();
    }
}

/// Print an ASCII heatmap of speedup percentages (rows = y axis labels,
/// cols = x axis labels). Positive = red zone in the paper (faster than
/// PyTorch), negative = blue zone (slower).
pub fn heatmap(title: &str, x_label: &str, xs: &[String], ys: &[String], rows: &[Vec<f64>]) {
    println!("\n--- {title} ---");
    print!("{:>10} |", x_label);
    for x in xs {
        print!("{x:>7}");
    }
    println!();
    println!("{}", "-".repeat(12 + 7 * xs.len()));
    for (yi, y) in ys.iter().enumerate() {
        print!("{y:>10} |");
        for v in &rows[yi] {
            print!("{v:>7.0}");
        }
        println!();
    }
}

/// Summary statistics over a set of speedup values.
pub fn summarize(values: &[f64]) -> (f64, f64, f64) {
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (avg, max, min)
}

/// Print a paper-vs-measured comparison line. Every line starts with
/// `PAPER-CHECK`, so `grep PAPER-CHECK` over a bench run collects them.
pub fn paper_vs_measured(metric: &str, paper: &str, measured: &str, verdict: &str) {
    println!("PAPER-CHECK | {metric:<46} | paper: {paper:<22} | measured: {measured:<22} | {verdict}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_stats() {
        let (avg, max, min) = summarize(&[0.0, 50.0, 100.0]);
        assert!((avg - 50.0).abs() < 1e-9);
        assert!((max - 100.0).abs() < 1e-9);
        assert!((min - 0.0).abs() < 1e-9);
    }
}
