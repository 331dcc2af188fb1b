//! Metric snapshot exporters: JSON and Prometheus text format.
//!
//! Both exporters are hand-rolled (the workspace carries no serde) and
//! operate on [`MetricSample`] slices, so output ordering inherits the
//! registry's deterministic BTreeMap order. All values are `u64`, which
//! sidesteps float-formatting hazards in both formats.
//!
//! The module also ships validators — a full recursive-descent JSON parser
//! and a Prometheus line-grammar checker — used by CI to assert exporter
//! output is well-formed without external tooling.

use crate::registry::{histogram_quantile, MetricSample, SampleValue};

/// The per-stage latency quantiles exported for every histogram, as
/// `(suffix, q)` pairs: p50/p99/p999 derived from the log2 buckets.
const EXPORTED_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)];

/// Quotes and escapes a string as a JSON string literal (shared by the
/// metrics exporter and the flight dump).
pub(crate) fn json_str(s: &str) -> String {
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

/// Renders samples as a JSON object keyed by metric name.
///
/// Counters/gauges become `{"type":"counter","value":N,"volatile":B}`;
/// histograms add `"count"`, `"sum"`, and a `"buckets"` array of
/// `{"le":bound,"count":N}` objects. With `include_volatile = false`,
/// volatile metrics are omitted entirely — the remaining document is a pure
/// function of workload + seed and safe to byte-compare in determinism
/// tests.
pub fn to_json(samples: &[MetricSample], include_volatile: bool) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for s in samples {
        if s.volatile && !include_volatile {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let vol = if s.volatile { "true" } else { "false" };
        out.push_str(&format!("  {}: ", json_str(&s.name)));
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(
                    "{{\"type\": \"counter\", \"value\": {v}, \"volatile\": {vol}}}"
                ));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "{{\"type\": \"gauge\", \"value\": {v}, \"volatile\": {vol}}}"
                ));
            }
            SampleValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                let entries: Vec<String> = buckets
                    .iter()
                    .map(|(le, n)| format!("{{\"le\": {le}, \"count\": {n}}}"))
                    .collect();
                let quantiles: Vec<String> = EXPORTED_QUANTILES
                    .iter()
                    .map(|(suffix, q)| {
                        format!("\"{suffix}\": {}", histogram_quantile(buckets, *count, *q))
                    })
                    .collect();
                out.push_str(&format!(
                    "{{\"type\": \"histogram\", \"count\": {count}, \"sum\": {sum}, {}, \
                     \"buckets\": [{}], \"volatile\": {vol}}}",
                    quantiles.join(", "),
                    entries.join(", ")
                ));
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// Mangles a dotted metric name into a Prometheus-legal identifier
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if ok && !(i == 0 && c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a `# HELP` payload per the exposition format: backslash and
/// newline are the only characters with escape sequences in help text.
fn prom_escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn prom_escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The `# HELP` payload for one sample: the original dotted name (which the
/// mangled Prometheus identifier loses) plus the volatility class.
fn prom_help(s: &MetricSample) -> String {
    let class = if s.volatile {
        "volatile"
    } else {
        "deterministic"
    };
    prom_escape_help(&format!("{} ({class})", s.name))
}

/// Renders samples in the Prometheus text exposition format.
///
/// Every metric emits `# HELP` (escaped) and `# TYPE` comments; ordering is
/// the snapshot's deterministic name order. Counters/gauges emit one sample
/// line; histograms emit cumulative `_bucket{le="…"}` series with a
/// terminal `le="+Inf"`, plus `_sum`, `_count`, and derived `_p50`/`_p99`/
/// `_p999` gauges (upper-bound latency quantiles from the log2 buckets).
pub fn to_prometheus(samples: &[MetricSample], include_volatile: bool) -> String {
    let mut out = String::new();
    for s in samples {
        if s.volatile && !include_volatile {
            continue;
        }
        let name = prom_name(&s.name);
        let help = prom_help(s);
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
                ));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
                ));
            }
            SampleValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (le, n) in buckets {
                    cumulative += n;
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        prom_escape_label(&le.to_string())
                    ));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
                out.push_str(&format!("{name}_sum {sum}\n"));
                out.push_str(&format!("{name}_count {count}\n"));
                for (suffix, q) in EXPORTED_QUANTILES {
                    let v = histogram_quantile(buckets, *count, q);
                    out.push_str(&format!(
                        "# TYPE {name}_{suffix} gauge\n{name}_{suffix} {v}\n"
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.fail(&format!(
                "expected '{}', found '{}'",
                want as char, b as char
            ))),
            None => Err(self.fail(&format!("expected '{}', found end of input", want as char))),
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.fail(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.bytes() {
            self.expect_byte(want)?;
        }
        Ok(())
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect_byte(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                Some(b) => {
                    return Err(self.fail(&format!("expected ',' or '}}', found '{}'", b as char)))
                }
                None => return Err(self.fail("unterminated object")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect_byte(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                Some(b) => {
                    return Err(self.fail(&format!("expected ',' or ']', found '{}'", b as char)))
                }
                None => return Err(self.fail("unterminated array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect_byte(b'"')?;
        loop {
            match self.bump() {
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            match self.bump() {
                                Some(b) if b.is_ascii_hexdigit() => {}
                                _ => return Err(self.fail("bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(self.fail("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.fail("raw control character in string")),
                Some(_) => {}
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.fail("number without digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.fail("number with empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.fail("number with empty exponent"));
            }
        }
        Ok(())
    }
}

/// Checks that `input` is one well-formed JSON value with no trailing junk.
pub fn validate_json(input: &str) -> Result<(), String> {
    let mut p = JsonParser::new(input);
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing content after JSON value"));
    }
    Ok(())
}

fn is_prom_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_prom_value(s: &str) -> bool {
    if matches!(s, "+Inf" | "-Inf" | "NaN") {
        return true;
    }
    !s.is_empty() && s.parse::<f64>().is_ok()
}

/// Checks that every non-empty line of `input` matches the Prometheus text
/// exposition grammar: a `# HELP`/`# TYPE` comment or a
/// `name[{label="value",…}] value` sample line.
pub fn validate_prometheus(input: &str) -> Result<(), String> {
    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if rest.starts_with("HELP ") || rest.starts_with("TYPE ") || rest.is_empty() {
                if let Some(type_rest) = rest.strip_prefix("TYPE ") {
                    let mut parts = type_rest.split_whitespace();
                    let name_ok = parts.next().is_some_and(is_prom_name);
                    let kind_ok = matches!(
                        parts.next(),
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped")
                    );
                    if !name_ok || !kind_ok || parts.next().is_some() {
                        return Err(format!("line {lineno}: malformed # TYPE comment"));
                    }
                }
                continue;
            }
            // bare comments are legal in the exposition format
            continue;
        }
        // sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {lineno}: sample line without value")),
        };
        if !is_prom_value(value.trim()) {
            return Err(format!("line {lineno}: bad sample value '{value}'"));
        }
        let name_part = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {lineno}: label without '='"))?;
                    if !is_prom_name(k.trim()) {
                        return Err(format!("line {lineno}: bad label name '{k}'"));
                    }
                    let v = v.trim();
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {lineno}: unquoted label value '{v}'"));
                    }
                }
                name
            }
            None => series,
        };
        if !is_prom_name(name_part.trim()) {
            return Err(format!("line {lineno}: bad metric name '{name_part}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricsRegistry, Volatility};

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("jits.query.statements", Volatility::Deterministic)
            .add(12);
        reg.gauge("jits.archive.histograms", Volatility::Deterministic)
            .set(3);
        let h = reg.histogram("jits.query.compile_nanos", Volatility::Volatile);
        h.observe(900);
        h.observe(40_000);
        reg
    }

    #[test]
    fn json_roundtrips_through_validator() {
        let reg = sample_registry();
        for include_volatile in [false, true] {
            let json = to_json(&reg.snapshot(), include_volatile);
            validate_json(&json).expect("exporter output must parse");
            assert_eq!(json.contains("compile_nanos"), include_volatile);
        }
    }

    #[test]
    fn prometheus_passes_grammar_check() {
        let reg = sample_registry();
        let text = to_prometheus(&reg.snapshot(), true);
        validate_prometheus(&text).expect("exporter output must match grammar");
        assert!(text.contains("# TYPE jits_query_statements counter"));
        assert!(text.contains("jits_query_compile_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("jits_query_compile_nanos_sum 40900"));
    }

    #[test]
    fn json_validator_rejects_garbage() {
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{\"a\": 1} trailing").is_err());
        assert!(validate_json("{'a': 1}").is_err());
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("{\"a\": 1e}").is_err());
        assert!(validate_json("{\"a\": [1, {\"b\": true}], \"c\": null}").is_ok());
    }

    #[test]
    fn prometheus_validator_rejects_garbage() {
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("name_only\n").is_err());
        assert!(validate_prometheus("m{le=\"1\" 2\n").is_err());
        assert!(validate_prometheus("m{le=unquoted} 2\n").is_err());
        assert!(validate_prometheus("m 1\nm{le=\"5\"} 2\n# TYPE m histogram\n").is_ok());
    }

    #[test]
    fn help_lines_present_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("jits.odd.name\\with\nnewline", Volatility::Deterministic)
            .inc();
        let text = to_prometheus(&reg.snapshot(), true);
        validate_prometheus(&text).expect("escaped help must keep the output grammatical");
        // the help payload carries the dotted name with backslash and
        // newline escaped, so the comment stays on one line
        assert!(text.contains("# HELP jits_odd_name_with_newline jits.odd.name\\\\with\\nnewline"));
        assert!(text.contains("(deterministic)"));
    }

    #[test]
    fn histogram_quantiles_exported_in_both_formats() {
        let reg = sample_registry();
        let json = to_json(&reg.snapshot(), true);
        validate_json(&json).unwrap();
        // observations at 900 and 40_000 → p50 in (512,1024], p99/p999 in
        // (32768, 65536]
        assert!(json.contains("\"p50\": 1024"));
        assert!(json.contains("\"p99\": 65536"));
        assert!(json.contains("\"p999\": 65536"));
        let text = to_prometheus(&reg.snapshot(), true);
        validate_prometheus(&text).unwrap();
        assert!(text.contains("jits_query_compile_nanos_p50 1024"));
        assert!(text.contains("jits_query_compile_nanos_p99 65536"));
        assert!(text.contains("jits_query_compile_nanos_p999 65536"));
    }

    #[test]
    fn volatile_exclusion_is_stable() {
        let reg = sample_registry();
        let a = to_json(&reg.snapshot(), false);
        let b = to_json(&reg.snapshot(), false);
        assert_eq!(a, b);
        assert!(!a.contains("compile_nanos"));
    }
}
