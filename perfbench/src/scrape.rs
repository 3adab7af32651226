//! `/metrics` scrapes and the deltas between two of them.
//!
//! A scrape is the Prometheus text the server exports. Per-layer numbers
//! are deltas between a scrape at the start of a traced phase and one at
//! its end. A histogram's observation count is taken from its bucket
//! totals, never from its `_count` series: the exporter loads `_count`
//! after the buckets, so a writer racing the scrape can push `_count`
//! past the bucket total and skew a mean derived from it.

use std::collections::BTreeMap;

/// One histogram series: cumulative bucket counts in `le` order plus the
/// sum of observed values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(le, cumulative count)`; the `+Inf` bucket has `le = f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Hist {
    /// Observations recorded: the `+Inf` (last cumulative) bucket.
    pub fn total(&self) -> u64 {
        self.buckets.last().map_or(0, |&(_, c)| c)
    }
}

/// A parsed scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Counters and gauges by name.
    pub scalars: BTreeMap<String, f64>,
    /// Histograms by base name.
    pub hists: BTreeMap<String, Hist>,
}

impl Scrape {
    /// Parses Prometheus text exposition (unlabeled series plus
    /// `_bucket{le="…"}`, `_sum` and `_count` for histograms).
    pub fn parse(text: &str) -> Scrape {
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        let mut scrape = Scrape::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    kinds.insert(name, kind.trim());
                }
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<f64>() else {
                continue;
            };
            if let Some((base, labels)) = series.split_once("_bucket{") {
                if kinds.get(base) == Some(&"histogram") {
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix("\"}"))
                        .map(|l| {
                            if l == "+Inf" {
                                f64::INFINITY
                            } else {
                                l.parse().unwrap_or(f64::INFINITY)
                            }
                        })
                        .unwrap_or(f64::INFINITY);
                    let hist = scrape.hists.entry(base.to_string()).or_default();
                    hist.buckets.push((le, value as u64));
                    continue;
                }
            }
            if let Some(base) = series.strip_suffix("_sum") {
                if kinds.get(base) == Some(&"histogram") {
                    scrape.hists.entry(base.to_string()).or_default().sum = value;
                    continue;
                }
            }
            if let Some(base) = series.strip_suffix("_count") {
                if kinds.get(base) == Some(&"histogram") {
                    continue;
                }
            }
            scrape.scalars.insert(series.to_string(), value);
        }
        scrape
    }
}

/// What changed between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Counter deltas (gauges: the later level).
    pub scalars: BTreeMap<String, f64>,
    /// Histogram deltas: `(observations, sum)`.
    pub hists: BTreeMap<String, (u64, f64)>,
}

/// `end − base` for every series in `end`. A series missing at `base`
/// counts from zero (its first observation happened in between); gauge
/// names (listed in `gauges`) keep their `end` level.
pub fn delta(base: &Scrape, end: &Scrape, gauges: &[&str]) -> Delta {
    let mut out = Delta::default();
    for (name, &v) in &end.scalars {
        let d = if gauges.contains(&name.as_str()) {
            v
        } else {
            (v - base.scalars.get(name).copied().unwrap_or(0.0)).max(0.0)
        };
        out.scalars.insert(name.clone(), d);
    }
    for (name, h) in &end.hists {
        let (count, sum) = match base.hists.get(name) {
            None => (h.total(), h.sum),
            Some(b) => (
                h.total().saturating_sub(b.total()),
                (h.sum - b.sum).max(0.0),
            ),
        };
        out.hists.insert(name.clone(), (count, sum));
    }
    out
}

impl Delta {
    /// A counter delta, 0 when the series never appeared.
    pub fn counter(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Mean observed value over the delta window, 0 with no observations.
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(count, sum)) if count > 0 => sum / count as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(requests: u64, buckets: [u64; 3], sum: u64, count: u64) -> String {
        format!(
            "# HELP reqs_total requests\n# TYPE reqs_total counter\nreqs_total {requests}\n\
             # HELP depth queue depth\n# TYPE depth gauge\ndepth 3\n\
             # HELP lat_us latency\n# TYPE lat_us histogram\n\
             lat_us_bucket{{le=\"1\"}} {}\nlat_us_bucket{{le=\"2\"}} {}\n\
             lat_us_bucket{{le=\"+Inf\"}} {}\nlat_us_sum {sum}\nlat_us_count {count}\n",
            buckets[0], buckets[1], buckets[2]
        )
    }

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let s = Scrape::parse(&text(7, [1, 3, 4], 9, 4));
        assert_eq!(s.scalars["reqs_total"], 7.0);
        assert_eq!(s.scalars["depth"], 3.0);
        assert!(!s.scalars.contains_key("lat_us_sum"));
        assert!(!s.scalars.contains_key("lat_us_count"));
        let h = &s.hists["lat_us"];
        assert_eq!(h.buckets, vec![(1.0, 1), (2.0, 3), (f64::INFINITY, 4)]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum, 9.0);
    }

    #[test]
    fn histogram_delta_counts_buckets_not_the_count_series() {
        let base = Scrape::parse(&text(7, [1, 3, 4], 9, 4));
        // The end scrape raced a writer: `_count` says 12 but the
        // buckets only hold 10 observations.
        let end = Scrape::parse(&text(10, [2, 6, 10], 29, 12));
        let d = delta(&base, &end, &["depth"]);
        assert_eq!(d.counter("reqs_total"), 3.0);
        assert_eq!(d.counter("depth"), 3.0);
        assert_eq!(d.hists["lat_us"].0, 6);
        assert!((d.mean("lat_us") - 20.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn series_missing_at_baseline_count_from_zero() {
        let base = Scrape::parse("# TYPE other_total counter\nother_total 5\n");
        let end = Scrape::parse(&text(7, [1, 3, 4], 9, 4));
        let d = delta(&base, &end, &[]);
        assert_eq!(d.counter("reqs_total"), 7.0);
        assert_eq!(d.hists["lat_us"].0, 4);
        assert!((d.mean("lat_us") - 2.25).abs() < 1e-9);
        assert_eq!(d.counter("never_seen_total"), 0.0);
        assert_eq!(d.mean("never_seen_us"), 0.0);
    }
}
