//! End-to-end telemetry smoke: generate the metric artifact and the
//! Chrome trace on a small mesh, validate the artifact against the
//! checked-in JSON schema, and reject malformed documents. This is the
//! test the CI telemetry job runs.

use meshslice::{MeshShape, SimConfig};
use meshslice_cli::{chrome_trace_json, chrome_trace_json_sorted, fc1_metrics, Model};
use meshslice_telemetry::{validate, Json};

fn metrics_schema() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/metrics.schema.json"
    );
    Json::parse(&std::fs::read_to_string(path).expect("schema file")).expect("schema parses")
}

fn small_artifact() -> Json {
    let cfg = SimConfig::tpu_v4();
    fc1_metrics(Model::Gpt3, MeshShape::new(2, 2), 2, 8, &cfg)
        .expect("2x2 gpt3 FC1 schedules")
        .to_json()
}

#[test]
fn metrics_artifact_conforms_to_the_checked_in_schema() {
    let errors = validate(&metrics_schema(), &small_artifact());
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}

#[test]
fn schema_rejects_malformed_artifacts() {
    let schema = metrics_schema();
    let doc = small_artifact();

    // Drop a required section.
    let Json::Obj(pairs) = &doc else { panic!() };
    let without_buckets = Json::Obj(
        pairs
            .iter()
            .filter(|(k, _)| k != "buckets_s")
            .cloned()
            .collect(),
    );
    let errors = validate(&schema, &without_buckets);
    assert!(errors.iter().any(|(_, m)| m.contains("buckets_s")));

    // Push a bounded gauge out of range.
    let out_of_range = Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                if k == "overlap_efficiency" {
                    (k.clone(), Json::Num(1.5))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect(),
    );
    let errors = validate(&schema, &out_of_range);
    assert!(
        errors.iter().any(|(p, _)| p.contains("overlap_efficiency")),
        "{errors:?}"
    );
}

#[test]
fn trace_events_are_well_formed_json() {
    use meshslice::llm::{LlmConfig, TrainingSetup};
    use meshslice::{Dataflow, DistributedGemm, GemmProblem, GemmShape, MeshSlice};
    use meshslice_mesh::Torus2d;
    use meshslice_sim::{Engine, RunScratch, SpanRecorder};

    let cfg = SimConfig::tpu_v4();
    let mesh = MeshShape::new(2, 2);
    let torus = Torus2d::from_shape(mesh);
    let model = LlmConfig::gpt3();
    let setup = TrainingSetup::weak_scaling(mesh.num_chips());
    let problem = GemmProblem::new(
        GemmShape::new(setup.tokens(), model.ffn_mult * model.hidden, model.hidden),
        Dataflow::Os,
    );
    let program = MeshSlice::new(2, 8)
        .schedule(&torus, problem, cfg.elem_bytes)
        .expect("schedules");
    let engine = Engine::new(torus, cfg);
    let lowered = engine.lower_program(&program);
    let mut recorder = SpanRecorder::new(&lowered);
    engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut recorder);
    let spans = recorder.into_spans();

    for json in [
        chrome_trace_json(&program, &spans),
        chrome_trace_json_sorted(&program, &spans),
    ] {
        let doc = Json::parse(&json).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut x_events = 0;
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            assert!(e.get("pid").and_then(Json::as_usize).is_some(), "pid");
            assert!(e.get("name").and_then(Json::as_str).is_some(), "name");
            match ph {
                "M" => {}
                "X" => {
                    x_events += 1;
                    assert!(e.get("tid").and_then(Json::as_usize).is_some());
                    assert!(e.get("cat").and_then(Json::as_str).is_some());
                    let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                    let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                    assert!(ts >= 0.0 && dur >= 0.0);
                }
                other => panic!("unexpected event phase {other}"),
            }
        }
        assert_eq!(x_events, spans.len());
    }
}
