//! Metric exporter: Prometheus-style text exposition.
//!
//! [`PrometheusText`] assembles the standard text exposition format —
//! `# TYPE` headers, `name{label="value"} value` samples, and
//! histogram series as cumulative `_bucket{le="…"}` lines derived
//! from [`HistogramSnapshot::cumulative_buckets`] plus `_sum` /
//! `_count`. Metric names are sanitized to `[a-zA-Z0-9_:]` and label
//! values escaped per the exposition rules (`\\`, `\"`, `\n`), so
//! arbitrary model names survive scraping.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;

/// Appends `name` mapped into the Prometheus metric-name alphabet
/// `[a-zA-Z0-9_:]`, every other byte becoming `_` and a leading digit
/// gaining a `_` prefix. Allocation-free: exporters render thousands
/// of label sets per scrape, and the scrape runs on the serving box.
fn push_sanitized_name(out: &mut String, name: &str) {
    let base = out.len();
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.len() == base {
        out.push('_');
    }
}

/// Appends `value` escaped per the exposition label rules: backslash,
/// double quote, and newline. Allocation-free, like
/// [`push_sanitized_name`].
fn push_escaped_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Rewrites `name` into the Prometheus metric-name alphabet
/// `[a-zA-Z0-9_:]`, mapping every other byte to `_` and prefixing a
/// leading digit with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    push_sanitized_name(&mut out, name);
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    push_escaped_value(&mut out, value);
    out
}

/// Appends a `{k="v",…}` label set (nothing when empty), the optional
/// `extra` pair last. Writes straight into `out` — no intermediate
/// strings.
fn push_label_set(out: &mut String, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().copied().chain(extra).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_sanitized_name(out, k);
        out.push_str("=\"");
        push_escaped_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Incremental builder for a Prometheus text exposition. Emits one
/// `# TYPE` header per metric name (first use wins) and appends sample
/// lines in call order.
#[derive(Debug, Default)]
pub struct PrometheusText {
    out: String,
    typed: BTreeSet<String>,
}

impl PrometheusText {
    /// An empty exposition.
    pub fn new() -> Self {
        PrometheusText::default()
    }

    fn type_header(&mut self, name: &str, kind: &str) {
        if self.typed.insert(name.to_string()) {
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    /// Appends one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let name = sanitize_metric_name(name);
        self.type_header(&name, "counter");
        self.out.push_str(&name);
        push_label_set(&mut self.out, labels, None);
        let _ = writeln!(self.out, " {value}");
    }

    /// Appends one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let name = sanitize_metric_name(name);
        self.type_header(&name, "gauge");
        self.out.push_str(&name);
        push_label_set(&mut self.out, labels, None);
        let _ = writeln!(self.out, " {value}");
    }

    /// Appends a full histogram series: cumulative `_bucket{le="…"}`
    /// lines for every non-empty bucket, the `le="+Inf"` closer, then
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let name = sanitize_metric_name(name);
        self.type_header(&name, "histogram");
        let mut le = String::with_capacity(20);
        for (bound, cumulative) in snap.cumulative_buckets() {
            le.clear();
            let _ = write!(le, "{bound}");
            self.out.push_str(&name);
            self.out.push_str("_bucket");
            push_label_set(&mut self.out, labels, Some(("le", &le)));
            let _ = writeln!(self.out, " {cumulative}");
        }
        self.out.push_str(&name);
        self.out.push_str("_bucket");
        push_label_set(&mut self.out, labels, Some(("le", "+Inf")));
        let _ = writeln!(self.out, " {}", snap.count);
        self.out.push_str(&name);
        self.out.push_str("_sum");
        push_label_set(&mut self.out, labels, None);
        let _ = writeln!(self.out, " {}", snap.sum);
        self.out.push_str(&name);
        self.out.push_str("_count");
        push_label_set(&mut self.out, labels, None);
        let _ = writeln!(self.out, " {}", snap.count);
    }

    /// The assembled exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use std::collections::HashMap;

    /// One parsed exposition sample: metric name, label pairs, value.
    type Sample = (String, Vec<(String, String)>, f64);

    /// A minimal exposition parser: returns (name, labels, value) per
    /// sample line, failing the test on any malformed line.
    fn parse_exposition(text: &str) -> Vec<Sample> {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "unknown comment line: {line}");
                continue;
            }
            let (head, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().unwrap_or(f64::INFINITY);
            let (name, labels) = match head.split_once('{') {
                None => (head.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("label set closes");
                    let mut labels = Vec::new();
                    let mut chars = body.chars().peekable();
                    while chars.peek().is_some() {
                        let mut key = String::new();
                        for c in chars.by_ref() {
                            if c == '=' {
                                break;
                            }
                            key.push(c);
                        }
                        assert_eq!(chars.next(), Some('"'), "label value opens with a quote");
                        let mut val = String::new();
                        loop {
                            match chars.next().expect("label value closes") {
                                '"' => break,
                                '\\' => match chars.next().expect("escape has a payload") {
                                    'n' => val.push('\n'),
                                    c => val.push(c),
                                },
                                c => val.push(c),
                            }
                        }
                        if chars.peek() == Some(&',') {
                            chars.next();
                        }
                        labels.push((key, val));
                    }
                    (name.to_string(), labels)
                }
            };
            assert!(
                name.chars().enumerate().all(|(i, c)| {
                    (c.is_ascii_alphanumeric() && (i > 0 || !c.is_ascii_digit()))
                        || c == '_'
                        || c == ':'
                }),
                "invalid metric name: {name}"
            );
            samples.push((name, labels, value));
        }
        samples
    }

    #[test]
    fn exposition_round_trips_names_labels_and_buckets() {
        let h = Histogram::with_shards(1);
        for v in [10u64, 100, 100, 5_000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut text = PrometheusText::new();
        text.histogram(
            "panacea dim latency ns",
            &[("model", "chain\"v2\\x"), ("verb", "de\ncode")],
            &snap,
        );
        text.counter("panacea_dim_outcomes_total", &[("outcome", "ok")], 42);
        text.gauge("panacea_slo_burn", &[], 1.5);
        let out = text.finish();
        assert!(out.contains("# TYPE panacea_dim_latency_ns histogram"));

        let samples = parse_exposition(&out);
        // Label escaping round-trips through the parser.
        let bucket = samples
            .iter()
            .find(|(n, _, _)| n == "panacea_dim_latency_ns_bucket")
            .expect("bucket series present");
        let labels: HashMap<&str, &str> = bucket
            .1
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(labels["model"], "chain\"v2\\x");
        assert_eq!(labels["verb"], "de\ncode");

        // Bucket bounds ascend, cumulative counts are monotone, and
        // +Inf equals _count.
        let mut last_le = -1.0f64;
        let mut last_cum = 0.0f64;
        let buckets: Vec<_> = samples
            .iter()
            .filter(|(n, _, _)| n == "panacea_dim_latency_ns_bucket")
            .collect();
        assert!(buckets.len() >= 2);
        for (_, labels, value) in &buckets {
            let le = &labels.iter().find(|(k, _)| k == "le").expect("le label").1;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("finite le bound")
            };
            assert!(le > last_le, "le bounds ascend");
            assert!(*value >= last_cum, "cumulative counts are monotone");
            last_le = le;
            last_cum = *value;
        }
        let count = samples
            .iter()
            .find(|(n, _, _)| n == "panacea_dim_latency_ns_count")
            .expect("_count present");
        assert_eq!(last_le, f64::INFINITY, "series closes with +Inf");
        assert_eq!(last_cum, count.2, "+Inf bucket equals _count");
        let sum = samples
            .iter()
            .find(|(n, _, _)| n == "panacea_dim_latency_ns_sum")
            .expect("_sum present");
        assert_eq!(sum.2, snap.sum as f64);
        assert_eq!(count.2, snap.count as f64);

        // Counter and gauge samples parse too.
        let counter = samples
            .iter()
            .find(|(n, _, _)| n == "panacea_dim_outcomes_total")
            .expect("counter present");
        assert_eq!(counter.2, 42.0);
        let gauge = samples
            .iter()
            .find(|(n, _, _)| n == "panacea_slo_burn")
            .expect("gauge present");
        assert_eq!(gauge.2, 1.5);
    }

    #[test]
    fn type_headers_emit_once_per_name() {
        let mut text = PrometheusText::new();
        text.counter("x_total", &[("a", "1")], 1);
        text.counter("x_total", &[("a", "2")], 2);
        let out = text.finish();
        assert_eq!(out.matches("# TYPE x_total counter").count(), 1);
        assert_eq!(out.matches("x_total{").count(), 2);
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("a b-c.d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok:name_1"), "ok:name_1");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
