//! Metric collection, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;

/// How far a per-layer number can be trusted across two runs of one seed at two
/// workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// A count not yet compared against a second pass.
    Count,
    /// A count that repeated exactly in two passes over the same work.
    Exact,
    /// A count that differed between two passes over the same work (steals,
    /// queue depths, polls: thread timing decides them).
    Advisory,
    /// A wall-clock measurement.
    Timing,
}

impl Label {
    fn as_str(self) -> &'static str {
        match self {
            Label::Count => "count",
            Label::Exact => "exact",
            Label::Advisory => "advisory",
            Label::Timing => "timing",
        }
    }
}

struct Entry {
    value: f64,
    unit: &'static str,
    label: Label,
}

/// An ordered set of named metrics.
#[derive(Default)]
pub struct Metrics {
    entries: BTreeMap<String, Entry>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, label: Label) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries
            .insert(name.into(), Entry { value, unit, label });
    }

    /// A wall-clock measurement (or a ratio of measurements).
    pub fn time(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(name, value, unit, Label::Timing);
    }

    /// A count (or a ratio of counts), labelled later by [`Metrics::label_against`].
    pub fn count(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(name, value, unit, Label::Count);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|e| e.value)
    }

    /// Labels every count `exact` if `second` (a repeat of the same work) read
    /// the same value, `advisory` otherwise.
    pub fn label_against(&mut self, second: &Metrics) {
        for (name, e) in self.entries.iter_mut() {
            if e.label == Label::Count {
                e.label = if second.get(name) == Some(e.value) {
                    Label::Exact
                } else {
                    Label::Advisory
                };
            }
        }
    }

    /// Prints `names` (in that order) as human-readable lines; a name the
    /// workload does not exercise reads 0, labelled `unused`.
    pub fn print_table(&self, heading: &str, names: &[(&str, &'static str)]) {
        println!("# {heading}");
        for &(name, unit) in names {
            let (value, label) = self
                .entries
                .get(name)
                .map_or((0.0, "unused"), |e| (e.value, e.label.as_str()));
            println!("#   {name:<34} {value:>18.6} {unit:<7} [{label}]");
        }
    }

    /// The `metrics` object of the result line, restricted to `names`; a name
    /// the workload does not exercise reads 0.
    pub fn json_object(&self, names: &[(&str, &'static str)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Every entry with its unit and label, as a JSON object.
    pub fn labelled_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, e)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"label\": \"{}\"}}",
                    num(e.value),
                    e.unit,
                    e.label.as_str()
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with every digit of Rust's shortest round-trip form.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated between closest ranks;
/// 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
