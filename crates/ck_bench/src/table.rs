//! Plain-text table formatting for experiment output.

use std::fmt;

/// A formatted experiment result: a title, column headers, and rows of
/// cells. Renders as an aligned text table; `to_csv` gives the same data
/// machine-readably.
pub struct Table {
    /// Experiment id and description (e.g. "Table 2: ...").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table with headers.
    pub fn new<H: ToString>(title: impl Into<String>, headers: impl IntoIterator<Item = H>) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// GitHub-flavored markdown rendering (title as heading, headers,
    /// rows; notes as a trailing paragraph).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            "---|".repeat(self.headers.len())
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }

    /// CSV rendering (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, " ")?;
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, " {}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Table X", ["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "2000".into()]);
        let s = format!("{t}");
        assert!(s.contains("Table X"));
        assert!(s.contains("long_header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn markdown_has_title_and_separator() {
        let mut t = Table::new("Table X: demo", ["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        let md = t.to_markdown();
        assert!(md.starts_with("## Table X: demo"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("*a note*"));
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("T", ["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", ["x", "y"]);
        t.row(vec!["1".into()]);
    }
}
