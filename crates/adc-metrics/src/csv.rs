//! Minimal CSV export for experiment results.
//!
//! Only what the figure harness needs: numeric tables with a header row.
//! Fields containing commas, quotes or newlines are quoted per RFC 4180.

use crate::series::Series;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Escapes one CSV field.
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Whether a cell is the `Display` form of a non-finite float. Such
/// cells would round-trip poorly (and silently poison downstream
/// plotting), so the writers reject them.
fn non_finite_cell(cell: &str) -> bool {
    matches!(
        cell,
        "NaN" | "-NaN" | "inf" | "-inf" | "Infinity" | "-Infinity"
    )
}

/// Writes a header row and data rows to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer; returns
/// `InvalidInput` when any data cell is a non-finite float rendering
/// (`NaN`, `inf`, `-inf`).
pub fn write_rows<W: Write>(
    mut w: W,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> io::Result<()> {
    let head: Vec<String> = header.iter().map(|h| escape(h)).collect();
    writeln!(w, "{}", head.join(","))?;
    for row in rows {
        if let Some(bad) = row.iter().find(|c| non_finite_cell(c)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("refusing to write non-finite CSV cell {bad:?}"),
            ));
        }
        let cells: Vec<String> = row.iter().map(|c| escape(c)).collect();
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Writes a header row and data rows to a file, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_file(
    path: impl AsRef<Path>,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = BufWriter::new(File::create(path)?);
    write_rows(file, header, rows)
}

/// Writes multiple series that share an x axis as one CSV file:
/// `x, <series 1 name>, <series 2 name>, …`.
///
/// Series are aligned by position, not by x value; all series must have
/// been sampled on the same schedule. Shorter series leave empty cells.
///
/// # Errors
///
/// Propagates I/O errors; returns `InvalidInput` when no series is given
/// or when any series contains a non-finite point.
pub fn write_series_file(
    path: impl AsRef<Path>,
    x_name: &str,
    series: &[&Series],
) -> io::Result<()> {
    if series.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one series",
        ));
    }
    for s in series {
        if let Some(&(x, y)) = s
            .points
            .iter()
            .find(|(x, y)| !x.is_finite() || !y.is_finite())
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("series {:?} has non-finite point ({x}, {y})", s.name),
            ));
        }
    }
    let mut header: Vec<&str> = vec![x_name];
    header.extend(series.iter().map(|s| s.name.as_str()));
    let longest = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let rows = (0..longest).map(|i| {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|&(x, _)| x))
            .unwrap_or(i as f64);
        let mut row = Vec::with_capacity(series.len() + 1);
        row.push(format!("{x}"));
        for s in series {
            row.push(
                s.points
                    .get(i)
                    .map(|&(_, y)| format!("{y}"))
                    .unwrap_or_default(),
            );
        }
        row
    });
    write_file(path, &header, rows)
}

/// Reads a file written by [`write_series_file`] back into one [`Series`]
/// per data column. Empty cells (from length-mismatched series) are
/// skipped.
///
/// # Errors
///
/// Propagates I/O errors; returns `InvalidData` for files without a
/// header or with non-numeric cells.
pub fn read_series_file(path: impl AsRef<Path>) -> io::Result<Vec<Series>> {
    let file = BufReader::new(File::open(path)?);
    let mut lines = file.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty series file"))??;
    let names: Vec<&str> = header.split(',').collect();
    if names.len() < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "series file needs an x column and at least one series",
        ));
    }
    let mut series: Vec<Series> = names[1..].iter().map(|&name| Series::new(name)).collect();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad series row: {line:?}"),
            )
        };
        let x: f64 = cells.first().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        for (i, s) in series.iter_mut().enumerate() {
            match cells.get(i + 1) {
                Some(&"") | None => continue,
                Some(cell) => {
                    let y: f64 = cell.parse().map_err(|_| bad())?;
                    s.push(x, y);
                }
            }
        }
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh directory path per call: the pid keeps concurrent test
    /// binaries apart, the counter keeps parallel test threads apart.
    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // ordering: the counter only has to hand out distinct values.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("adc-metrics-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn writes_simple_table() {
        let mut buf = Vec::new();
        write_rows(
            &mut buf,
            &["a", "b"],
            vec![
                vec!["1".to_string(), "2".to_string()],
                vec!["3".to_string(), "4".to_string()],
            ],
        )
        .unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn escapes_problem_fields() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn series_file_round_trip() {
        let dir = scratch_dir("test");
        let path = dir.join("series.csv");
        let mut a = Series::new("adc");
        a.push(5000.0, 0.1);
        a.push(10000.0, 0.3);
        let mut b = Series::new("hash");
        b.push(5000.0, 0.2);
        write_series_file(&path, "requests", &[&a, &b]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "requests,adc,hash");
        assert_eq!(lines[1], "5000,0.1,0.2");
        assert_eq!(lines[2], "10000,0.3,");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn series_file_read_round_trip() {
        let dir = scratch_dir("read-test");
        let path = dir.join("rt.csv");
        let mut a = Series::new("adc");
        a.push(1.0, 0.25);
        a.push(2.0, 0.5);
        let mut b = Series::new("hash");
        b.push(1.0, 0.75);
        write_series_file(&path, "x", &[&a, &b]).unwrap();
        let back = read_series_file(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b); // the short column's empty cell is skipped
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_rejects_garbage() {
        let dir = scratch_dir("badread-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "x,adc\n1.0,banana\n").unwrap();
        assert!(read_series_file(&path).is_err());
        std::fs::write(&path, "justonecolumn\n").unwrap();
        assert!(read_series_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_series_list_is_an_error() {
        let err = write_series_file("/tmp/never.csv", "x", &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn write_rows_rejects_non_finite_cells() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut buf = Vec::new();
            let err = write_rows(
                &mut buf,
                &["a", "b"],
                vec![vec!["1".to_string(), format!("{bad}")]],
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "value {bad}");
        }
        // Finite rows keep working.
        let mut buf = Vec::new();
        write_rows(&mut buf, &["a"], vec![vec!["inflation".to_string()]]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a\ninflation\n");
    }

    #[test]
    fn write_series_file_rejects_non_finite_points() {
        let dir = scratch_dir("nonfinite");
        let path = dir.join("bad.csv");
        let mut s = Series::new("adc");
        s.push(1.0, f64::NAN);
        let err = write_series_file(&path, "x", &[&s]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut s = Series::new("adc");
        s.push(f64::INFINITY, 0.5);
        let err = write_series_file(&path, "x", &[&s]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "no partial file on rejection");
        std::fs::remove_dir_all(&dir).ok();
    }
}
