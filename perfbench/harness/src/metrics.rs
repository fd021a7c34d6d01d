//! Every metric the harness prints, with its unit. `BENCHMARK.json`
//! names the same metrics; a test keeps the two in step.

use crate::json;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("die_cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed by traced runs. `worker-s` marks worker
/// wall time summed across workers (not CPU time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("device.pair_eval_ns", "ns"),
    ("device.delay_evals_per_die_cell", "count"),
    ("device.energy_evals_per_die_cell", "count"),
    ("tdc.quantize_ns", "ns"),
    ("tdc.sense_ns", "ns"),
    ("tdc.calibrate_ms", "ms"),
    ("core.draw_s", "worker-s"),
    ("core.fixed_lane_s", "worker-s"),
    ("core.word_settle_s", "worker-s"),
    ("core.adaptive_lanes_s", "worker-s"),
    ("core.dither_settle_s", "worker-s"),
    ("core.shared_draw_s", "worker-s"),
    ("core.fault_walk_s", "worker-s"),
    ("core.sub_batches", "count"),
    ("regulators.settle_table_ms", "ms"),
    ("exec.chunks", "count"),
    ("exec.chunk_ms_p50", "ms"),
    ("exec.chunk_ms_p90", "ms"),
    ("exec.busy_share", "ratio"),
    ("checkpoint.records", "count"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.read_ms", "ms"),
    ("checkpoint.append_us", "us"),
    ("scenario.parse_ms", "ms"),
    ("scenario.render_ms", "ms"),
    ("residual_s", "s"),
    ("trace_overhead_share", "ratio"),
];

/// The `metrics` object of the result line: every metric of `table`
/// exactly once, each with its unit.
///
/// # Errors
///
/// A metric of `table` without a value, a value for a metric outside
/// `table`, or a value JSON cannot hold.
pub fn render(table: &[(&str, &str)], values: &[(&str, f64)]) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric `{name}` is not in the table"));
    }
    let fields = table
        .iter()
        .map(|(name, unit)| {
            let mut found = values.iter().filter(|(n, _)| n == name);
            match (found.next(), found.next()) {
                (Some((_, v)), None) if v.is_finite() => Ok((
                    *name,
                    json::object(&[("value", json::number(*v)), ("unit", json::string(unit))]),
                )),
                (Some((_, v)), None) => Err(format!("metric `{name}` is {v}")),
                (None, _) => Err(format!("metric `{name}` has no value")),
                (Some(_), Some(_)) => Err(format!("metric `{name}` has two values")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(json::object(&fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn every_printed_metric_and_workload_is_in_benchmark_json() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| (*n).to_owned()).collect()
        };
        assert_eq!(names_in(&text, "end_to_end"), names(END_TO_END));
        assert_eq!(names_in(&text, "per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
        assert_eq!(names_in(&text, "workloads"), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "`{name}` must carry unit `{unit}` in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn render_demands_every_metric_exactly_once() {
        let table = &[("a", "s"), ("b", "ms")];
        assert_eq!(
            render(table, &[("b", 2.0), ("a", 0.5)]).unwrap(),
            r#"{"a": {"value": 0.5, "unit": "s"}, "b": {"value": 2, "unit": "ms"}}"#
        );
        assert!(render(table, &[("a", 1.0)]).is_err());
        assert!(render(table, &[("a", 1.0), ("b", 1.0), ("c", 1.0)]).is_err());
        assert!(render(table, &[("a", 1.0), ("a", 1.0), ("b", 1.0)]).is_err());
        assert!(render(table, &[("a", f64::NAN), ("b", 1.0)]).is_err());
    }
}
