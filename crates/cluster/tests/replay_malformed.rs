//! End-to-end tests of the flight-recorder contract through the public
//! API: a recorded run — token-bucket admission included — replays
//! bit-identically, and every malformed input class — truncated JSONL
//! mid-record, unknown schema versions, out-of-order arrivals, duplicate
//! job ids, invalid admission budgets — is a typed [`ReplayError`], never
//! a panic (the `sx_lint` H003 contract extends to parsing adversarial
//! files).

use std::sync::Arc;

use sx_cluster::prelude::*;

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        qpus: 2,
        seed,
        ..FleetConfig::default()
    }
}

fn workload(seed: u64) -> Workload {
    WorkloadSpec::repeated_topologies(16, 1.5, seed).generate()
}

fn cell(seed: u64, scheduler: SchedulerSpec, admission: AdmissionSpec) -> CellSpec {
    CellSpec {
        label: format!("s{seed}/{}", scheduler.name()),
        seed,
        fleet: fleet_config(seed),
        scheduler,
        admission,
        config: SimConfig::default(),
        workload: Arc::new(workload(seed)),
    }
}

/// Record `spec`'s run into a string: its flight record.
fn record(spec: &CellSpec) -> String {
    let mut recorder = RecorderSink::new(Vec::new());
    recorder.begin_run(spec);
    run_cell(0, spec, &mut recorder);
    let (bytes, _) = recorder.finish().expect("Vec<u8> writes cannot fail");
    String::from_utf8(bytes).expect("flight records are UTF-8")
}

/// Parse `text`, replay its one segment under a fresh recorder, and hand
/// back the replay's divergence and its own flight record.
fn replay_and_rerecord(text: &str) -> (Option<usize>, String) {
    let flight = parse_flight_record(text).expect("the recorder's own output parses");
    assert_eq!(flight.runs.len(), 1);
    let run = &flight.runs[0];
    let mut recorder = RecorderSink::new(Vec::new());
    recorder.begin_run(&run.spec);
    let check = check_replay(run, &mut recorder);
    assert_eq!(check.compared, run.records.len());
    let (bytes, _) = recorder.finish().expect("Vec<u8> writes cannot fail");
    (check.divergence, String::from_utf8(bytes).expect("UTF-8"))
}

/// Record one admit-all affinity run.
fn recorded(seed: u64) -> String {
    record(&cell(
        seed,
        SchedulerSpec::CacheAffinity,
        AdmissionSpec::AdmitAll,
    ))
}

/// A token bucket tight enough to defer and shed this workload, with a
/// per-tenant override and the "no depth limit" `usize::MAX`.
fn tight_bucket() -> AdmissionSpec {
    AdmissionSpec::TokenBucket {
        default: TokenBucketConfig::default(),
        per_tenant: vec![(
            TenantId(0),
            TokenBucketConfig {
                rate_hz: 0.5,
                burst: 1.0,
                max_queue_depth: usize::MAX,
                max_defer_seconds: 4.0,
                shed_infeasible: false,
            },
        )],
    }
}

#[test]
fn a_recorded_run_round_trips_and_replays_bit_identically() {
    let text = recorded(23);
    let record = parse_flight_record(&text).expect("the recorder's own output parses");
    assert_eq!(record.runs[0].spec.scheduler.name(), "affinity");
    // Re-recording the parsed run reproduces the file byte-for-byte: the
    // JSON rendering is deterministic, so diffing records is diffing runs.
    let (divergence, rerecorded) = replay_and_rerecord(&text);
    assert_eq!(divergence, None, "replay must be bit-identical");
    assert_eq!(rerecorded, text);
}

#[test]
fn token_bucket_runs_replay_and_rerecord_bit_identically() {
    let text = record(&cell(23, SchedulerSpec::Fifo, tight_bucket()));
    let record = parse_flight_record(&text).expect("parses");
    let records = &record.runs[0].records;
    assert!(
        records
            .iter()
            .any(|r| matches!(r, TraceRecord::Deferred { .. })),
        "the bucket must bind, or the test shows nothing"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r, TraceRecord::Shed { .. })),
        "the defer budget must run out for some job"
    );
    let (divergence, rerecorded) = replay_and_rerecord(&text);
    assert_eq!(divergence, None, "replay must be bit-identical");
    assert_eq!(rerecorded, text);
}

#[test]
fn truncated_jsonl_mid_record_is_a_typed_parse_error() {
    let text = recorded(23);
    // Chop the file mid-way through its final line.
    let cut = text.trim_end().len() - 7;
    let err = parse_flight_record(&text[..cut]).expect_err("truncated JSON must not parse");
    assert!(
        matches!(err, ReplayError::Json { .. }),
        "expected a Json parse error, got {err:?}"
    );
    // The error is printable and names the failing line.
    assert!(err.to_string().contains("line"));
}

#[test]
fn unknown_flight_schema_versions_are_refused() {
    // v1 headers described admission by name only and v2 headers carried
    // a registry cadence no output read; no path reads either.
    for schema in [
        "sx-flight-record/v999",
        "sx-flight-record/v1",
        "sx-flight-record/v2",
    ] {
        let text = recorded(23).replace(FLIGHT_SCHEMA, schema);
        match parse_flight_record(&text) {
            Err(ReplayError::UnknownSchema { found, expected }) => {
                assert_eq!(found, schema);
                assert_eq!(expected, FLIGHT_SCHEMA);
            }
            other => panic!("expected UnknownSchema, got {other:?}"),
        }
    }
}

#[test]
fn unknown_arrival_schema_versions_are_refused() {
    let trace = render_arrival_trace(&workload(5)).replace(ARRIVAL_SCHEMA, "sx-arrival-trace/v999");
    assert!(matches!(
        parse_arrival_trace(&trace),
        Err(ReplayError::UnknownSchema { .. })
    ));
}

#[test]
fn arrival_traces_round_trip_through_the_public_api() {
    let original = workload(5);
    let trace = render_arrival_trace(&original);
    let reread = parse_arrival_trace(&trace).expect("own output parses");
    assert_eq!(reread.jobs, original.jobs);
    assert_eq!(reread.tenants, original.tenants);
    assert_eq!(workload_digest(&reread), workload_digest(&original));
    // A recorded trace stands in for the generator that produced it.
    let generated = WorkloadSpec::repeated_topologies(16, 1.5, 5)
        .try_generate()
        .expect("valid spec");
    assert_eq!(reread, generated);
}

#[test]
fn out_of_order_arrivals_are_a_typed_error_not_a_panic() {
    let trace = render_arrival_trace(&workload(5));
    let mut lines: Vec<&str> = trace.lines().collect();
    // Swapping two job lines breaks the non-decreasing arrival invariant
    // (Poisson arrivals are almost surely strictly increasing).
    lines.swap(3, 4);
    let err = parse_arrival_trace(&lines.join("\n")).expect_err("must refuse reordering");
    assert!(
        matches!(
            err,
            ReplayError::OutOfOrderArrival { .. }
                | ReplayError::DuplicateJobId { .. }
                | ReplayError::Field { .. }
        ),
        "expected a typed ordering error, got {err:?}"
    );
}

#[test]
fn duplicate_job_ids_are_a_typed_error_not_a_panic() {
    let trace = render_arrival_trace(&workload(5));
    let lines: Vec<&str> = trace.lines().collect();
    // Repeat a job line verbatim: its id collides with itself while its
    // arrival time stays non-decreasing, isolating the duplicate-id check.
    let mut doctored: Vec<&str> = lines.clone();
    doctored.insert(3, lines[2]);
    let err = parse_arrival_trace(&doctored.join("\n")).expect_err("must refuse duplicate ids");
    assert!(
        matches!(
            err,
            ReplayError::DuplicateJobId { .. } | ReplayError::Field { .. }
        ),
        "expected a duplicate-id error, got {err:?}"
    );
}

#[test]
fn truncated_arrival_traces_fail_the_declared_count_check() {
    let trace = render_arrival_trace(&workload(5));
    let lines: Vec<&str> = trace.lines().collect();
    let clipped = lines[..lines.len() - 2].join("\n");
    let err = parse_arrival_trace(&clipped).expect_err("must notice missing jobs");
    assert!(
        err.to_string().contains("truncated"),
        "the error should point at truncation, got: {err}"
    );
}

#[test]
fn tampered_records_keep_their_integrity_digests_honest() {
    // Flip one workload field inside the header: the embedded digest no
    // longer matches and parsing refuses the record.
    let text = recorded(23);
    let tampered = text.replacen("\"lps\":", "\"lps\":1", 1);
    assert_ne!(tampered, text, "the tamper must hit a workload job line");
    let err = parse_flight_record(&tampered).expect_err("tampering must be caught");
    assert!(
        matches!(err, ReplayError::Field { field, .. } if field == "workload_digest"),
        "expected the workload_digest integrity check, got {err:?}"
    );
}

/// The token-bucket header of a real record, its `"admission"` object
/// rewritten by `edit` — a hand-edited record.
fn edited_bucket_record(edit: impl Fn(&str) -> String) -> String {
    let text = record(&cell(23, SchedulerSpec::Fifo, tight_bucket()));
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit must hit the header");
    edited
}

#[test]
fn invalid_admission_budgets_are_typed_errors_not_panics() {
    let cases: [(&str, &str, &str); 4] = [
        ("\"rate_hz\":0.5", "\"rate_hz\":0", "rate"),
        ("\"burst\":1,", "\"burst\":0.5,", "burst"),
        (
            "\"max_defer_seconds\":4,",
            "\"max_defer_seconds\":-1,",
            "max_defer_seconds",
        ),
        (
            "\"kind\":\"token-bucket\"",
            "\"kind\":\"leaky-bucket\"",
            "leaky-bucket",
        ),
    ];
    for (from, to, named) in cases {
        let text = edited_bucket_record(|t| t.replacen(from, to, 1));
        match parse_flight_record(&text) {
            Err(err @ ReplayError::Field { .. }) => {
                assert!(err.to_string().contains(named), "{from} -> {to}: got {err}")
            }
            other => panic!("{from} -> {to}: expected a Field error, got {other:?}"),
        }
    }
}

#[test]
fn queue_depths_travel_as_decimal_strings() {
    let text = record(&cell(23, SchedulerSpec::Fifo, tight_bucket()));
    assert!(text.contains("\"max_queue_depth\":\"18446744073709551615\""));
    // A bare number is refused like any mistyped field, not rounded.
    let text = edited_bucket_record(|t| {
        t.replacen(
            "\"max_queue_depth\":\"18446744073709551615\"",
            "\"max_queue_depth\":64",
            1,
        )
    });
    assert!(
        matches!(
            parse_flight_record(&text),
            Err(ReplayError::Field {
                field: "max_queue_depth",
                ..
            })
        ),
        "expected a max_queue_depth Field error"
    );
}
