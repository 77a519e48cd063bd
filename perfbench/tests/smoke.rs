//! Smoke test: every workload, at the tiny size, passes every output
//! check in both the untraced and the traced process, and reports
//! exactly the metrics `BENCHMARK.json` names.

use mm_perfbench::trace::Tracer;
use mm_perfbench::{end_to_end, per_layer, Report, Size, Workload};

/// The `"name"` values of the objects in list `key` of `BENCHMARK.json`
/// (the file's layout is fixed, so a scan for `"name": "…"` inside the
/// list's brackets is enough).
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    let list = &json[start..];
    let list = &list[..list.find(']').expect("list closes")];
    list.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_owned()).collect()
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed(&json, "workloads"), workloads);
    let (e2e, layers) = (listed(&json, "end_to_end"), listed(&json, "per_layer"));

    for w in Workload::ALL {
        let r = end_to_end(w, 1, Size::Tiny, 0.05);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.lines);
        assert!(
            r.attempted >= 4,
            "a default-workers run and at least three serial runs"
        );
        assert_eq!(names(&r), e2e, "{}", w.name());
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        assert!(r.json().starts_with("{\"correct\": true, "));

        let mut tracer = Tracer::new();
        let r = per_layer(w, 1, Size::Tiny, 0.05, &mut tracer);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.lines);
        assert_eq!(names(&r), layers, "{}", w.name());
        for span in [
            "run",
            "generate",
            "assemble",
            "build",
            "load",
            "simulate",
            "epoch",
            "run_until_halt",
            "settle",
            "drain",
        ] {
            assert!(tracer.named(span).next().is_some(), "no {span} span");
        }
        let coh = value(&r, "coh.packets");
        if w == Workload::CoherencePairs {
            assert!(coh > 0.0, "coherence_pairs sent no protocol packets");
        } else {
            assert_eq!(coh, 0.0, "{} sent protocol packets", w.name());
        }
    }
}

#[test]
fn a_different_seed_still_passes() {
    for w in Workload::ALL {
        let r = end_to_end(w, 0xDEAD_BEEF, Size::Tiny, 0.01);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.lines);
    }
}
