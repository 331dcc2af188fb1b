//! `jits-lint` CLI.
//!
//! ```text
//! cargo run -p jits-lint                        # lint the workspace
//! cargo run -p jits-lint -- --deny-all          # warnings fail too (CI)
//! cargo run -p jits-lint -- --format json       # machine-readable findings
//! cargo run -p jits-lint -- --format github     # GitHub annotations (CI)
//! cargo run -p jits-lint -- --explain RULE      # rule rationale + waiver
//! cargo run -p jits-lint -- --prune-waivers     # list stale waivers
//! cargo run -p jits-lint -- path/to/file.rs …   # strict mode on given files
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error.

#![forbid(unsafe_code)]

use jits_lint::{Report, Severity, Violation};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut prune_waivers = false;
    let mut format = Format::Text;
    let mut explain: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--prune-waivers" => prune_waivers = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("github") => Format::Github,
                    other => {
                        eprintln!(
                            "jits-lint: --format takes text|json|github, got {:?}",
                            other.unwrap_or("<none>")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("jits-lint: --explain takes a rule name (see --help)");
                    return ExitCode::from(2);
                };
                explain = Some(rule);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: jits-lint [--deny-all] [--format text|json|github] \
                     [--explain RULE] [--prune-waivers] [FILE.rs ...]"
                );
                eprintln!("rules:");
                for r in jits_lint::RULES {
                    eprintln!("  {:<18} {}", r.slug, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("jits-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    if let Some(rule) = explain {
        return match jits_lint::rule_info(&rule) {
            Some(info) => {
                println!("{}", info.slug);
                println!("  what:   {}", info.summary);
                println!("  why:    {}", info.rationale);
                println!(
                    "  waiver: `// jits-lint: allow({})` on the offending line or the \
                     line above, with a justification; unused waivers are themselves \
                     reported",
                    info.slug
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "jits-lint: unknown rule `{rule}`; known: {}",
                    jits_lint::RULES
                        .iter()
                        .map(|r| r.slug)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    let report = if paths.is_empty() {
        jits_lint::run_repo(&jits_lint::repo_root())
    } else {
        jits_lint::run_paths(&paths)
    };

    if prune_waivers {
        let stale: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| v.rule == "unused-waiver")
            .collect();
        if stale.is_empty() {
            println!("jits-lint: no stale waivers");
            return ExitCode::SUCCESS;
        }
        for v in &stale {
            println!("{}:{}: {}", v.path, v.line, v.message);
        }
        println!("jits-lint: {} stale waiver(s)", stale.len());
        return ExitCode::FAILURE;
    }

    match format {
        Format::Text => {
            for v in &report.violations {
                println!("{v}");
            }
            let (errors, warnings) = (report.errors(), report.warnings());
            if errors == 0 && warnings == 0 {
                println!("jits-lint: clean ({} waived)", report.waived.len());
            } else {
                println!("jits-lint: {errors} error(s), {warnings} warning(s)");
            }
        }
        Format::Json => println!("{}", to_json(&report)),
        Format::Github => {
            // GitHub Actions workflow commands: one annotation per finding
            for v in &report.violations {
                let level = match v.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                println!(
                    "::{level} file={},line={},title=jits-lint[{}]::{}",
                    v.path,
                    v.line,
                    v.rule,
                    v.message.replace('\n', " ")
                );
            }
            println!(
                "jits-lint: {} error(s), {} warning(s), {} waived",
                report.errors(),
                report.warnings(),
                report.waived.len()
            );
        }
    }
    if report.failed(deny_all) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Hand-rolled JSON (the workspace is offline — no serde): a stable
/// machine-readable findings document.
fn to_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn finding(v: &Violation) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"severity\":\"{}\",\
             \"waived\":{},\"message\":\"{}\"}}",
            esc(v.rule),
            esc(&v.path),
            v.line,
            match v.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            },
            v.waived,
            esc(&v.message)
        )
    }
    let all: Vec<String> = report
        .violations
        .iter()
        .chain(report.waived.iter())
        .map(finding)
        .collect();
    format!(
        "{{\"errors\":{},\"warnings\":{},\"waived\":{},\"findings\":[{}]}}",
        report.errors(),
        report.warnings(),
        report.waived.len(),
        all.join(",")
    )
}
