//! `compare`: the verdict of `run.sh --selfcheck`.
//!
//! Reads the reports two full sets of runs of the same build left behind and
//! prints, per metric × workload, both values, their relative difference and
//! the metric's bound from `BENCHMARK.json`. Two sets of the same code must
//! agree within the benchmark's own bounds on every end-to-end metric;
//! per-layer metrics have no bound and are printed for reference.

use crate::json::{parse, Value};

struct Bounded {
    name: String,
    bound: Option<f64>,
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_list(manifest: &Value, key: &str) -> Result<Vec<Bounded>, String> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("BENCHMARK.json: a metric has no name")?
                    .to_string(),
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

fn value_of(report: &Value, metric: &str) -> Option<f64> {
    report
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `|second − first| / |first|`, or `None` when `first` is zero.
pub fn relative_difference(first: f64, second: f64) -> Option<f64> {
    (first != 0.0).then(|| (second - first).abs() / first.abs())
}

/// Entry point: `compare <BENCHMARK.json> <first-dir> <second-dir>`. Returns
/// whether every bounded pair agrees.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [manifest_path, first_dir, second_dir] = args else {
        return Err("usage: compare <BENCHMARK.json> <first-dir> <second-dir>".into());
    };
    let manifest = read_json(manifest_path)?;
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let mut agree = true;
    println!(
        "{:<20} {:<42} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (key, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let metrics = metric_list(&manifest, key)?;
        for workload in &workloads {
            let file = format!("result-{workload}-trace{trace}.json");
            let first = read_json(&format!("{first_dir}/{file}"))?;
            let second = read_json(&format!("{second_dir}/{file}"))?;
            for metric in &metrics {
                let (Some(a), Some(b)) = (
                    value_of(&first, &metric.name),
                    value_of(&second, &metric.name),
                ) else {
                    return Err(format!("{file}: metric {} is missing", metric.name));
                };
                let diff = relative_difference(a, b);
                let verdict = match (diff, metric.bound) {
                    (Some(d), Some(bound)) if d > bound => {
                        agree = false;
                        "  DISAGREE"
                    }
                    _ => "",
                };
                println!(
                    "{workload:<20} {:<42} {a:>16.6} {b:>16.6} {:>9} {:>7}{verdict}",
                    metric.name,
                    diff.map_or("-".into(), |d| format!("{:.2}%", d * 100.0)),
                    metric
                        .bound
                        .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                );
            }
        }
    }
    println!(
        "selfcheck: {}",
        if agree {
            "every end-to-end pair agrees within its bound"
        } else {
            "at least one end-to-end pair disagrees by more than its bound"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_is_symmetric_in_sign_and_guards_zero() {
        assert_eq!(relative_difference(10.0, 11.0), Some(0.1));
        assert_eq!(relative_difference(10.0, 9.0), Some(0.1));
        assert_eq!(relative_difference(0.0, 1.0), None);
    }

    #[test]
    fn metric_list_reads_names_and_optional_bounds() {
        let manifest = parse(
            "{\"end_to_end\": [{\"name\": \"trial_s\", \"bound\": 0.07}], \
             \"per_layer\": [{\"name\": \"core.engine.step_ms\"}]}",
        )
        .unwrap();
        let bounded = metric_list(&manifest, "end_to_end").unwrap();
        assert_eq!(bounded[0].name, "trial_s");
        assert_eq!(bounded[0].bound, Some(0.07));
        assert_eq!(metric_list(&manifest, "per_layer").unwrap()[0].bound, None);
        assert!(metric_list(&manifest, "missing").is_err());
    }
}
