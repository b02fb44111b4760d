//! Text-table rendering helpers for the gate rows.

/// Renders an aligned text table: a header row plus data rows. Column
/// widths adapt to content.
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}", w = *w));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// SI megabytes, as the paper's tables use.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_output() {
        let t = render(
            &["app", "value"],
            &[vec!["bt".into(), "147".into()], vec!["lu".into(), "9".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[2].ends_with("147"));
        assert!(lines[3].ends_with("  9"));
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn si_megabytes() {
        assert!((mb(84_000_000) - 84.0).abs() < 1e-9);
    }
}
