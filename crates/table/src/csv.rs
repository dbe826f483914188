//! CSV ingest and output.
//!
//! The paper's `ingest table Products products.csv` command reads a CSV
//! file "formatted using the CSV (comma separated values) standard" and
//! parses it "according to the data types of the attributes in the
//! corresponding table". This module implements an RFC-4180-style reader
//! (quoted fields, embedded commas/newlines, doubled-quote escapes, CRLF)
//! and a writer used by the BSBM generator and result output.

use std::io::{BufRead, Write};

use graql_types::{GraqlError, Result};

use crate::table::Table;

/// Splits one CSV *record* stream into rows of raw string fields.
///
/// Handles quoted fields containing commas, quotes (doubled) and newlines;
/// accepts both `\n` and `\r\n` record terminators.
pub fn parse_csv(input: &str) -> Result<Vec<Vec<String>>> {
    let mut rows = Vec::new();
    let mut field = String::new();
    let mut row: Vec<String> = Vec::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut any = false; // anything seen in the current record?

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                if !field.is_empty() {
                    return Err(GraqlError::ingest("quote inside unquoted CSV field"));
                }
                in_quotes = true;
                any = true;
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' | '\n' => {
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                // Blank lines (no content at all) are skipped rather than
                // parsed as a single empty field.
                if any || !row.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                any = false;
            }
            _ => {
                field.push(c);
                any = true;
            }
        }
    }
    if in_quotes {
        return Err(GraqlError::ingest("unterminated quoted CSV field"));
    }
    if any || !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Quotes a field if it contains a comma, quote or newline.
fn quote_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Ingests CSV text into `table`, coercing each field to the declared
/// column type (paper §II-A2). Returns the number of rows added.
///
/// If the first record matches the table's column names (case-insensitive)
/// it is treated as a header and skipped.
pub fn ingest_str(table: &mut Table, text: &str) -> Result<usize> {
    let rows = parse_csv(text)?;
    let mut added = 0;
    let schema = table.schema().clone();
    let names: Vec<String> = schema
        .columns()
        .iter()
        .map(|c| c.name.to_ascii_lowercase())
        .collect();
    // One appender for the whole file: the columns are unshared once.
    let mut out = table.appender();
    for (ri, raw) in rows.iter().enumerate() {
        if ri == 0 {
            let lowered: Vec<String> = raw.iter().map(|f| f.trim().to_ascii_lowercase()).collect();
            if lowered == names {
                continue; // header row
            }
        }
        if raw.len() != schema.len() {
            return Err(GraqlError::ingest(format!(
                "CSV record {} has {} fields, table has {} columns",
                ri + 1,
                raw.len(),
                schema.len()
            )));
        }
        let mut vals = Vec::with_capacity(raw.len());
        for (f, def) in raw.iter().zip(schema.columns()) {
            vals.push(def.dtype.parse_value(f).map_err(|e| {
                GraqlError::ingest(format!("record {}, column '{}': {e}", ri + 1, def.name))
            })?);
        }
        out.push_row(&vals)?;
        added += 1;
    }
    Ok(added)
}

/// Ingests from any buffered reader (e.g. a file on the "parallel
/// filesystem" — here, the local filesystem).
pub fn ingest_reader(table: &mut Table, mut reader: impl BufRead) -> Result<usize> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| GraqlError::ingest(format!("I/O error: {e}")))?;
    ingest_str(table, &text)
}

/// Writes `table` as CSV (with a header row) to `w`.
pub fn write_csv(table: &Table, mut w: impl Write) -> Result<()> {
    let io_err = |e: std::io::Error| GraqlError::ingest(format!("I/O error: {e}"));
    let header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| quote_field(&c.name))
        .collect();
    writeln!(w, "{}", header.join(",")).map_err(io_err)?;
    for row in table.iter_rows() {
        let cells: Vec<String> = row.iter().map(|v| quote_field(&v.to_string())).collect();
        writeln!(w, "{}", cells.join(",")).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use graql_types::{DataType, Date, Value};

    fn offers_schema() -> TableSchema {
        TableSchema::of(&[
            ("id", DataType::Varchar(10)),
            ("price", DataType::Float),
            ("deliveryDays", DataType::Integer),
            ("validFrom", DataType::Date),
        ])
    }

    #[test]
    fn parse_plain_records() {
        let rows = parse_csv("a,b,c\nd,e,f\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["d", "e", "f"]]);
    }

    #[test]
    fn parse_handles_quotes_commas_and_newlines() {
        let rows = parse_csv("\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n").unwrap();
        assert_eq!(rows, vec![vec!["a,b", "say \"hi\"", "two\nlines"]]);
    }

    #[test]
    fn parse_handles_crlf_and_missing_final_newline() {
        let rows = parse_csv("a,b\r\nc,d").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(parse_csv("\"oops").is_err());
    }

    #[test]
    fn empty_input_has_no_rows() {
        assert!(parse_csv("").unwrap().is_empty());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let rows = parse_csv("a,b\n\nc,d\n\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
        // A quoted empty field is NOT a blank line.
        let rows = parse_csv("\"\"\n").unwrap();
        assert_eq!(rows, vec![vec![""]]);
    }

    #[test]
    fn ingest_coerces_types() {
        let mut t = Table::empty(offers_schema());
        let n = ingest_str(&mut t, "o1,9.99,3,2008-03-01\no2,12.5,,2008-04-02\n").unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.get(0, 1), Value::Float(9.99));
        assert!(t.get(1, 2).is_null(), "empty field ingests as null");
        assert_eq!(
            t.get(1, 3),
            Value::Date(Date::from_ymd(2008, 4, 2).unwrap())
        );
    }

    #[test]
    fn ingest_skips_matching_header() {
        let mut t = Table::empty(offers_schema());
        let n = ingest_str(
            &mut t,
            "id,price,deliveryDays,validFrom\no1,1.0,1,2008-01-01\n",
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.get(0, 0), Value::str("o1"));
    }

    #[test]
    fn ingest_reports_bad_field_with_location() {
        let mut t = Table::empty(offers_schema());
        let err = ingest_str(&mut t, "o1,abc,3,2008-03-01\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 1"), "{msg}");
        assert!(msg.contains("price"), "{msg}");
    }

    #[test]
    fn ingest_rejects_wrong_arity() {
        let mut t = Table::empty(offers_schema());
        assert!(ingest_str(&mut t, "o1,1.5\n").is_err());
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::empty(offers_schema());
        ingest_str(&mut t, "o1,9.99,3,2008-03-01\n\"o,2\",1.5,7,2009-12-31\n").unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut t2 = Table::empty(offers_schema());
        ingest_str(&mut t2, &text).unwrap();
        assert_eq!(t2.n_rows(), 2);
        for i in 0..2 {
            assert_eq!(t.row(i), t2.row(i));
        }
    }
}
