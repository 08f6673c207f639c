//! Golden test for the `MetricsSnapshot` JSON rendering.
//!
//! The render is a hand-rolled serializer (the crate is dependency-free),
//! so downstream tooling depends on byte-stable output: declaration-ordered
//! keys, fixed decimal formatting, `null` for non-finite samples. Any
//! change here is a schema change and must bump `"schema"`.

use ganopc_obs::{MetricsSnapshot, SpanStats, TraceStats};

#[test]
fn render_json_matches_golden_bytes() {
    let snapshot = MetricsSnapshot {
        ticks_per_ns: 2.0,
        counters: vec![("train_steps", 3), ("ilt_runs", 1)],
        worker_claims: vec![5, 0, 7],
        spans: vec![
            (
                "train_step",
                SpanStats {
                    count: 3,
                    total_ns: 24.0,
                    mean_ns: 8.0,
                    p50_ns: 3.0,
                    max_ns: 16.0,
                    buckets: vec![(3, 2), (5, 1)],
                },
            ),
            (
                "infer",
                SpanStats {
                    count: 0,
                    total_ns: 0.0,
                    mean_ns: 0.0,
                    p50_ns: 0.0,
                    max_ns: 0.0,
                    buckets: vec![],
                },
            ),
        ],
        traces: vec![("ilt_loss", TraceStats { pushed: 5, values: vec![1.25, 0.5, f64::NAN] })],
    };
    let golden = concat!(
        "{\n",
        "  \"schema\": 1,\n",
        "  \"ticks_per_ns\": 2.000,\n",
        "  \"counters\": {\n",
        "    \"train_steps\": 3,\n",
        "    \"ilt_runs\": 1\n",
        "  },\n",
        "  \"pool_worker_claims\": [5, 0, 7],\n",
        "  \"spans\": {\n",
        "    \"train_step\": {\"count\": 3, \"total_ns\": 24.0, \"mean_ns\": 8.0, ",
        "\"p50_ns\": 3.0, \"max_ns\": 16.0, \"buckets\": ",
        "[{\"le_ns\": 4.0, \"count\": 2}, {\"le_ns\": 16.0, \"count\": 1}]},\n",
        "    \"infer\": {\"count\": 0, \"total_ns\": 0.0, \"mean_ns\": 0.0, ",
        "\"p50_ns\": 0.0, \"max_ns\": 0.0, \"buckets\": []}\n",
        "  },\n",
        "  \"traces\": {\n",
        "    \"ilt_loss\": {\"pushed\": 5, \"values\": [1.25, 0.5, null]}\n",
        "  }\n",
        "}\n",
    );
    assert_eq!(snapshot.render_json(), golden);
}

#[test]
fn captured_snapshot_covers_the_whole_registry_in_declaration_order() {
    let snap = MetricsSnapshot::capture();
    let counters: Vec<&str> = snap.counters.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        counters,
        [
            "train_steps",
            "pretrain_steps",
            "infer_batches",
            "ilt_runs",
            "ilt_iterations",
            "litho_aerial_calls",
            "litho_gradient_calls",
            "pool_dispatches",
            "pool_chunks_inline",
            "pool_worker_parks",
            "pool_worker_wakes",
            "checkpoint_saves",
            "faults_injected",
            "stale_tmp_swept",
            "supervisor_trips",
            "supervisor_rollbacks",
            "supervisor_retries",
            "supervisor_ckpt_failures",
            "ilt_guard_trips",
        ]
    );
    let spans: Vec<&str> = snap.spans.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        spans,
        [
            "train_step",
            "train_g_forward",
            "train_d_pass",
            "train_backward",
            "train_optimizer",
            "pretrain_step",
            "pretrain_litho",
            "infer",
            "ilt_optimize",
            "ilt_iteration",
            "litho_aerial",
            "litho_gradient",
            "checkpoint_save",
            "artifact_write",
            "artifact_fsync",
            "flow_generator",
            "flow_refinement",
            "flow_total",
        ]
    );
    let traces: Vec<&str> = snap.traces.iter().map(|(n, _)| *n).collect();
    assert_eq!(traces, ["ilt_loss", "ilt_epe"]);
}
