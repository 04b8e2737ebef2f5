//! Shared plumbing for the experiment harness binaries.
//!
//! Every figure and table of the reconstruction (see DESIGN.md's
//! experiment index) has a binary in `src/bin/` that regenerates its
//! rows/series on stdout. This library holds the tiny shared formatting
//! layer so the binaries stay focused on their experiment, plus the
//! [`manifests`] builders that render headline runs as deterministic
//! JSON run manifests (gated on `AMBIENCE_MANIFEST`).
//!
//! # Example
//!
//! The formatting helpers the binaries share:
//!
//! ```
//! use ami_experiments::{eng, print_table};
//!
//! assert_eq!(eng(1.5), "1.500");
//! print_table(
//!     &["nodes", "energy [J]"],
//!     &[vec!["25".to_owned(), eng(0.0123)]],
//! );
//! ```

#![forbid(unsafe_code)]

pub mod manifests;
pub mod tables;

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("(ambience reproduction of Aarts & Roovers, DATE 2003)");
    println!("==============================================================");
}

/// Prints a section separator with a caption.
pub fn section(caption: &str) {
    println!();
    println!("--- {caption} ---");
}

/// Formats a float in short engineering style for table cells.
pub fn eng(value: f64) -> String {
    if value == 0.0 {
        return "0".to_owned();
    }
    let magnitude = value.abs();
    if (0.01..10_000.0).contains(&magnitude) {
        format!("{value:.3}")
    } else {
        format!("{value:.3e}")
    }
}

/// Renders a simple aligned table: a header row then data rows, all
/// left-padded to the widest cell of each column.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (idx, cell) in row.iter().enumerate() {
            widths[idx] = widths[idx].max(cell.len());
        }
    }
    let render = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(idx, c)| format!("{:>width$}", c, width = widths[idx]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        render(header.iter().map(|s| (*s).to_owned()).collect())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", render(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formats_ranges() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1.5), "1.500");
        assert!(eng(1e-7).contains('e'));
        assert!(eng(1e7).contains('e'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
