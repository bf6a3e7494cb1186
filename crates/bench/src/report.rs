//! Table printing and JSON result records.

use serde::Serialize;
use std::path::PathBuf;

/// A simple aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Writes a JSON record to `bench-results/<name>.json` (relative to the
/// workspace root when run via `cargo run`) and returns its value model
/// for schema inspection.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> serde::Value {
    let model = value.to_value();
    let dir = PathBuf::from("bench-results");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: could not create bench-results/");
        return model;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(&model) {
        Ok(json) => {
            if std::fs::write(&path, json).is_ok() {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: JSON serialization failed: {e}"),
    }
    model
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // smoke test: must not panic
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(2.0), "2.0");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into()]);
    }
}
