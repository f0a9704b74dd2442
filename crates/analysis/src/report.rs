//! Findings and the two output formats (human text, `--format json`).

/// One rule finding. `allowed` carries the pragma reason; `None`
/// means the violation is undocumented and fails the check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule code (`PGS001`, `PGS002`, `PGS003` or `PGS005`).
    pub code: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Short machine-friendly category within the rule
    /// (e.g. `hash-iteration`, `never-rendered`, `lock-order`).
    pub category: &'static str,
    /// Human explanation of this specific site.
    pub message: String,
    /// `Some(reason)` when documented by a pragma; `None` =
    /// undocumented violation.
    pub allowed: Option<String>,
}

/// A full check result over one scan.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, code) and deduplicated.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Builds a report: sorts and deduplicates raw findings.
    pub fn new(mut findings: Vec<Finding>) -> Self {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.code, a.category.len()).cmp(&(
                b.file.as_str(),
                b.line,
                b.code,
                b.category.len(),
            ))
        });
        findings.dedup_by(|a, b| {
            (&a.file, a.line, a.code, &a.message) == (&b.file, b.line, b.code, &b.message)
        });
        Report { findings }
    }

    /// Findings with no pragma/policy cover — these fail the check.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Number of undocumented violations.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// Renders the human format: one line per undocumented violation,
    /// then a per-rule summary including documented (allowed) counts.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in self.violations() {
            out.push_str(&format!(
                "{}:{}: {} [{}] {}\n",
                f.file, f.line, f.code, f.category, f.message
            ));
        }
        let mut codes: Vec<&'static str> = self.findings.iter().map(|f| f.code).collect();
        codes.sort_unstable();
        codes.dedup();
        for code in codes {
            let total = self.findings.iter().filter(|f| f.code == code).count();
            let bad = self
                .findings
                .iter()
                .filter(|f| f.code == code && f.allowed.is_none())
                .count();
            out.push_str(&format!(
                "{code}: {bad} violation(s), {} documented\n",
                total - bad
            ));
        }
        let v = self.violation_count();
        out.push_str(&if v == 0 {
            "analysis clean: no undocumented violations\n".to_string()
        } else {
            format!("analysis FAILED: {v} undocumented violation(s)\n")
        });
        out
    }

    /// Renders the JSON format (stable field order, fully escaped).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!(
                "\"code\": {}, \"file\": {}, \"line\": {}, \"category\": {}, \"message\": {}, \"allowed\": {}",
                json_str(f.code),
                json_str(&f.file),
                f.line,
                json_str(f.category),
                json_str(&f.message),
                match &f.allowed {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            ));
            out.push('}');
            if i + 1 < self.findings.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ],\n  \"violations\": {},\n  \"documented\": {}\n}}\n",
            self.violation_count(),
            self.findings.len() - self.violation_count()
        ));
        out
    }
}

/// Minimal JSON string encoder (the analyzer is dependency-free).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(code: &'static str, line: u32, allowed: Option<&str>) -> Finding {
        Finding {
            code,
            file: "x.rs".into(),
            line,
            category: "c",
            message: "m \"quoted\"".into(),
            allowed: allowed.map(String::from),
        }
    }

    #[test]
    fn violations_exclude_allowed() {
        let r = Report::new(vec![f("PGS004", 1, None), f("PGS004", 2, Some("ok"))]);
        assert_eq!(r.violation_count(), 1);
        assert!(r.render_human().contains("1 violation(s), 1 documented"));
    }

    #[test]
    fn json_is_escaped_and_counts_match() {
        let r = Report::new(vec![f("PGS001", 3, None)]);
        let j = r.render_json();
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("\"violations\": 1"), "{j}");
    }

    #[test]
    fn duplicate_findings_collapse() {
        let r = Report::new(vec![f("PGS004", 1, None), f("PGS004", 1, None)]);
        assert_eq!(r.findings.len(), 1);
    }
}
