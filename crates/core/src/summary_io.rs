//! Summary serialization: save and reload summary graphs.
//!
//! The whole point of summarization is to persist/ship the summary
//! instead of the graph, so the library provides a compact plain-text
//! format (one header line, one line per supernode membership run, one
//! line per superedge). The format is line-oriented and
//! version-stamped; it round-trips every [`Summary`] exactly.
//!
//! ```text
//! pgs-summary v1 <num_nodes> <num_supernodes> <num_superedges>
//! n <node> <supernode>     # one per node
//! e <a> <b> <weight>       # one per superedge
//! ```

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::summary::Summary;

/// Errors from reading a serialized summary.
#[derive(Debug)]
pub enum SummaryIoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Structural problem in the file.
    Format(String),
}

impl std::fmt::Display for SummaryIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummaryIoError::Io(e) => write!(f, "io error: {e}"),
            SummaryIoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for SummaryIoError {}

impl From<io::Error> for SummaryIoError {
    fn from(e: io::Error) -> Self {
        SummaryIoError::Io(e)
    }
}

/// Writes a summary to any writer in the `pgs-summary v1` format.
pub fn write_summary_to<W: Write>(s: &Summary, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "pgs-summary v1 {} {} {}",
        s.num_nodes(),
        s.num_supernodes(),
        s.num_superedges()
    )?;
    for u in 0..s.num_nodes() as u32 {
        writeln!(w, "n {u} {}", s.supernode_of(u))?;
    }
    for (a, b, weight) in s.superedges() {
        writeln!(w, "e {a} {b} {weight}")?;
    }
    Ok(())
}

/// Writes a summary to a file. See [`write_summary_to`].
pub fn write_summary<P: AsRef<Path>>(s: &Summary, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_summary_to(s, &mut w)?;
    w.flush()
}

/// Reads a summary from any buffered reader.
pub fn read_summary_from<R: BufRead>(r: R) -> Result<Summary, SummaryIoError> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| SummaryIoError::Format("empty file".into()))??;
    let mut it = header.split_whitespace();
    if it.next() != Some("pgs-summary") || it.next() != Some("v1") {
        return Err(SummaryIoError::Format("bad magic/version".into()));
    }
    let parse = |tok: Option<&str>, what: &str| -> Result<usize, SummaryIoError> {
        tok.and_then(|t| t.parse().ok())
            .ok_or_else(|| SummaryIoError::Format(format!("bad header field: {what}")))
    };
    let num_nodes = parse(it.next(), "num_nodes")?;
    let num_supers = parse(it.next(), "num_supernodes")?;
    let num_superedges = parse(it.next(), "num_superedges")?;

    // The header counts are unchecked input: the dense assignment is
    // sized only once the body holds that many node records, and the
    // superedge preallocation is capped (a mismatch is reported below).
    let mut nodes: Vec<(usize, u32)> = Vec::new();
    let mut superedges: Vec<(u32, u32, f32)> = Vec::with_capacity(num_superedges.min(1 << 20));
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        match it.next() {
            Some("n") => {
                let u: usize = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SummaryIoError::Format(format!("bad node line: {trimmed}")))?;
                let s: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SummaryIoError::Format(format!("bad node line: {trimmed}")))?;
                if u >= num_nodes {
                    return Err(SummaryIoError::Format(format!("node {u} out of range")));
                }
                // Labels index a table in `Summary::new`; |V| bounds how
                // many distinct supernodes a valid file can name.
                if s as usize >= num_nodes {
                    return Err(SummaryIoError::Format(format!(
                        "supernode label {s} out of range (|V| = {num_nodes})"
                    )));
                }
                nodes.push((u, s));
            }
            Some("e") => {
                let a: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SummaryIoError::Format(format!("bad edge line: {trimmed}")))?;
                let b: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SummaryIoError::Format(format!("bad edge line: {trimmed}")))?;
                let w: f32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SummaryIoError::Format(format!("bad edge line: {trimmed}")))?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(SummaryIoError::Format(format!(
                        "superedge weight must be finite and positive: {trimmed}"
                    )));
                }
                superedges.push((a, b, w));
            }
            Some(other) => return Err(SummaryIoError::Format(format!("unknown record: {other}"))),
            None => continue,
        }
    }
    let missing = || SummaryIoError::Format("missing node assignments".into());
    if nodes.len() < num_nodes {
        return Err(missing());
    }
    let mut assignment = vec![u32::MAX; num_nodes];
    for (u, s) in nodes {
        assignment[u] = s;
    }
    if assignment.contains(&u32::MAX) {
        return Err(missing());
    }
    let mut is_label = vec![false; num_nodes];
    for &label in &assignment {
        is_label[label as usize] = true;
    }
    for &(a, b, _) in &superedges {
        for end in [a, b] {
            if is_label.get(end as usize) != Some(&true) {
                return Err(SummaryIoError::Format(format!(
                    "superedge endpoint {end} names no supernode"
                )));
            }
        }
    }
    let summary = Summary::new(num_nodes, assignment, &superedges);
    if summary.num_supernodes() != num_supers {
        return Err(SummaryIoError::Format(format!(
            "supernode count mismatch: header {num_supers}, body {}",
            summary.num_supernodes()
        )));
    }
    if summary.num_superedges() != num_superedges {
        return Err(SummaryIoError::Format(format!(
            "superedge count mismatch: header {num_superedges}, body {}",
            summary.num_superedges()
        )));
    }
    Ok(summary)
}

/// Reads a summary from a file. See [`read_summary_from`].
pub fn read_summary<P: AsRef<Path>>(path: P) -> Result<Summary, SummaryIoError> {
    read_summary_from(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
    use pgs_graph::gen::barabasi_albert;
    use std::io::Cursor;

    fn roundtrip(s: &Summary) -> Summary {
        let mut buf = Vec::new();
        write_summary_to(s, &mut buf).unwrap();
        read_summary_from(Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = barabasi_albert(200, 3, 5);
        let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let r = roundtrip(&s);
        assert_eq!(r.num_nodes(), s.num_nodes());
        assert_eq!(r.num_supernodes(), s.num_supernodes());
        assert_eq!(r.num_superedges(), s.num_superedges());
        for u in 0..200u32 {
            // Ids may be renumbered, but co-membership must be identical.
            for v in 0..200u32 {
                assert_eq!(
                    s.supernode_of(u) == s.supernode_of(v),
                    r.supernode_of(u) == r.supernode_of(v),
                    "membership differs at ({u},{v})"
                );
            }
        }
        assert_eq!(s.reconstruct(), r.reconstruct());
    }

    #[test]
    fn roundtrip_weighted() {
        let s = Summary::new(4, vec![0, 0, 1, 1], &[(0, 1, 2.5), (0, 0, 1.0)]);
        let r = roundtrip(&s);
        let mut ws: Vec<f32> = r.superedges().map(|(_, _, w)| w).collect();
        ws.sort_by(f32::total_cmp);
        assert_eq!(ws, vec![1.0, 2.5]);
        assert!((r.size_bits() - s.size_bits()).abs() < 1e-9);
    }

    #[test]
    fn file_roundtrip() {
        let g = barabasi_albert(50, 2, 9);
        let s = Summary::identity(&g);
        let dir = std::env::temp_dir().join("pgs_summary_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.txt");
        write_summary(&s, &path).unwrap();
        let r = read_summary(&path).unwrap();
        assert_eq!(r.reconstruct(), g);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_summary_from(Cursor::new("nonsense v1 1 1 0\nn 0 0\n")).unwrap_err();
        assert!(matches!(err, SummaryIoError::Format(_)));
    }

    #[test]
    fn rejects_missing_assignment() {
        let data = "pgs-summary v1 2 2 0\nn 0 0\n";
        let err = read_summary_from(Cursor::new(data)).unwrap_err();
        assert!(matches!(err, SummaryIoError::Format(_)));
    }

    #[test]
    fn rejects_count_mismatch() {
        let data = "pgs-summary v1 2 5 0\nn 0 0\nn 1 1\n";
        let err = read_summary_from(Cursor::new(data)).unwrap_err();
        assert!(matches!(err, SummaryIoError::Format(_)));
    }

    fn format_error(data: &str) -> String {
        match read_summary_from(Cursor::new(data)) {
            Err(SummaryIoError::Format(m)) => m,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_superedge_to_unknown_label() {
        let m = format_error("pgs-summary v1 2 2 1\nn 0 0\nn 1 1\ne 0 7 1\n");
        assert!(m.contains("endpoint 7"), "{m}");
    }

    #[test]
    fn rejects_non_positive_weight() {
        let m = format_error("pgs-summary v1 2 2 1\nn 0 0\nn 1 1\ne 0 1 -1\n");
        assert!(m.contains("weight"), "{m}");
    }

    #[test]
    fn rejects_oversized_superedge_count() {
        let m = format_error("pgs-summary v1 2 2 18446744073709551615\nn 0 0\nn 1 1\n");
        assert!(m.contains("superedge count mismatch"), "{m}");
    }

    #[test]
    fn rejects_node_count_beyond_body() {
        // Neither header may size memory before the body backs it.
        for data in [
            "pgs-summary v1 18446744073709551615 0 0\n",
            "pgs-summary v1 1000000000 1 0\nn 0 0\n",
        ] {
            let m = format_error(data);
            assert!(m.contains("missing node assignments"), "{m}");
        }
    }

    #[test]
    fn rejects_label_beyond_node_count() {
        let m = format_error("pgs-summary v1 2 2 0\nn 0 0\nn 1 5\n");
        assert!(m.contains("label 5"), "{m}");
    }

    #[test]
    fn ignores_comments_and_blank_lines() {
        let data = "pgs-summary v1 2 2 1\n# comment\nn 0 0\n\nn 1 1\ne 0 1 1\n";
        let s = read_summary_from(Cursor::new(data)).unwrap();
        assert_eq!(s.num_superedges(), 1);
    }
}
